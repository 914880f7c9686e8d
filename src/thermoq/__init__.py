"""Temperature estimation with a dissipative two-level sensor read out through
an ancilla meter.

The sensor thermalizes with the bath to be probed; an ancilla coupled through
a nondemolition interaction picks up temperature-dependent dephasing that can
be read out long after the sensor itself has equilibrated. The modules map the
pipeline: `bath` for the thermal qubit alone, `dynamics` for the batched
closed-form blocks of the joint evolution and their temperature derivatives,
`qfi` for Fisher information over whole (tau, t) grids, `spectrum` for the
Liouvillian eigenvalues built from the generator's 2x2 blocks and the
closed-form slow pair, `optimize` for meter design and the T_max and
dimension sweeps, `cli` for the sweep grid and commands. Every function that
depends on the temperature takes tau directly (scalar or array); there is no
parameter object, and no rate: the sensor-bath rate gamma is the unit of t,
Omega and the eigenvalues (see `bath`).
"""

from .bath import (bose_occupation, d_occupation_dT, excited_population,
                   sensor_qfi, steady_sensor_qfi)
from .dynamics import equal_superposition, spin_x_spectrum
from .optimize import (OptimizationReport, bures_distance_pure, dimension_scaling,
                       find_t_max, optimize_initial_state)
from .qfi import (SupportError, joint_and_meter_qfi_grid, joint_qfi_grid,
                  meter_qfi_grid)
from .spectrum import coherence_eigenvalues_closed_form, slow_spectrum

__version__ = "0.1.0"

__all__ = [
    "bose_occupation", "d_occupation_dT", "excited_population", "sensor_qfi",
    "steady_sensor_qfi",
    "equal_superposition", "spin_x_spectrum",
    "SupportError", "joint_qfi_grid", "meter_qfi_grid", "joint_and_meter_qfi_grid",
    "coherence_eigenvalues_closed_form", "slow_spectrum",
    "OptimizationReport", "bures_distance_pure", "dimension_scaling",
    "find_t_max", "optimize_initial_state",
    "__version__",
]
