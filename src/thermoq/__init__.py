"""Temperature estimation with a dissipative two-level sensor read out through
an ancilla meter.

The sensor thermalizes with the bath to be probed; an ancilla coupled through
a nondemolition interaction picks up temperature-dependent dephasing that can
be read out long after the sensor itself has equilibrated. The modules map the
pipeline: `bath` for the thermal qubit alone, `dynamics` for the exact joint
evolution, `qfi` for Fisher information, `spectrum` for the Liouvillian
eigenvalues built from the generator's 2x2 blocks and the closed-form slow
pair, `optimize` for meter design, `cli` for sweep commands.
"""

from .bath import (SensorParams, ThermalRates, bose_occupation,
                   d_occupation_dT, excited_population, sensor_qfi,
                   sensor_state, steady_sensor_qfi, thermal_rates)
from .dynamics import (MeterSpec, MeterState, coherence_block, coherence_trace,
                       joint_state, meter_state, spin_x_spectrum)
from .optimize import (NoCrossingError, OptimizationReport, SweepGrid,
                       bures_distance_pure, crossing_time, dimension_scaling,
                       find_t_max, optimize_initial_state)
from .qfi import (QfiResult, SupportError, effective_decay_rate, joint_qfi,
                  joint_qfi_grid, meter_qfi, meter_qfi_grid, qfi_general,
                  qfi_longtime, qfi_qubit)
from .spectrum import coherence_eigenvalues_closed_form, slow_spectrum

__version__ = "0.1.0"

__all__ = [
    "SensorParams", "ThermalRates", "bose_occupation", "d_occupation_dT",
    "excited_population", "sensor_qfi", "sensor_state", "steady_sensor_qfi",
    "thermal_rates",
    "MeterSpec", "MeterState", "coherence_block", "coherence_trace",
    "joint_state", "meter_state", "spin_x_spectrum",
    "QfiResult", "SupportError", "effective_decay_rate", "joint_qfi",
    "joint_qfi_grid", "meter_qfi", "meter_qfi_grid", "qfi_general",
    "qfi_longtime", "qfi_qubit",
    "coherence_eigenvalues_closed_form", "slow_spectrum",
    "NoCrossingError", "OptimizationReport", "SweepGrid",
    "bures_distance_pure", "crossing_time", "dimension_scaling", "find_t_max",
    "optimize_initial_state",
    "__version__",
]
