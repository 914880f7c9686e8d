"""Exact relations between the QFIs, checked over the whole accepted range
without an oracle (ROADMAP item 11).

The joint state is classical-quantum, p_e sigma_e (+) p_g sigma_g, and both
marginals are data processing of it, so its QFI bounds the sensor's and the
meter's; the package forms it as the sensor's QFI plus nonnegative terms,
so the sensor bound holds exactly in floating point. At Omega = 0 the
meter carries no information and the joint state none beyond the sensor's.
"""

import math

import numpy as np
import pytest

from thermoq.bath import sensor_qfi
from thermoq.dynamics import equal_superposition
from thermoq.qfi import joint_and_meter_qfi_grid

# item 11's grid: 22 tau x 31 gamma t x 5 Omega
_TAUS = np.geomspace(1e-2, 1e3, 22)
_TS = np.append(np.geomspace(1e-8, 1e12, 30), math.inf)
_OMEGAS = np.array([1e-6, 1e-2, 0.7, 2.0, 1e3])


@pytest.mark.parametrize("n", [2, 3, 6])
def test_joint_qfi_bounds_both_marginals_exactly(n):
    psi0 = equal_superposition(n)
    taus, ts = _TAUS[:, None], _TS[:, None, None]  # (t, tau, Omega)
    sensor = sensor_qfi(taus, ts)
    joint, meter = joint_and_meter_qfi_grid(taus, ts, _OMEGAS, psi0)
    assert joint.shape == (31, 22, 5)
    assert np.count_nonzero(joint < sensor) == 0
    assert np.count_nonzero(joint < meter) == 0
    # no coupling: the sensor's information alone, bitwise
    sensor = np.broadcast_to(sensor, (31, 22, 1))
    joint, meter = joint_and_meter_qfi_grid(taus, ts, 0.0, psi0)
    assert joint.tobytes() == sensor.tobytes()
    assert not meter.any()
