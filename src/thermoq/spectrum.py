"""Spectrum of the joint Lindblad generator, assembled from its closed blocks.

The sensor never exchanges energy with the meter, so the generator acting on
the (2n)^2 joint matrix elements splits into independent pieces:

* n^2 population blocks, one per meter pair (m, m'), acting on the sensor
  populations (x, y) = (<m e|rho|m' e>, <m g|rho|m' g>) through

      [[-i Omega_mm' - (N+1) gamma,  N gamma],
       [ (N+1) gamma,               -N gamma]],   Omega_mm' = lambda_m - lambda_m';

* 2 n^2 sensor coherences <m e|rho|m' g> and <m g|rho|m' e>, each an
  eigenvector on its own with eigenvalue -(N+1/2) gamma - i lambda_m or
  -(N+1/2) gamma + i lambda_m'.

Every diagonal block (m = m') contributes one zero eigenvalue, so the null
space is n-dimensional when the meter gaps are distinct and nonzero, and
grows to n^2 when gaps vanish or N = 0, because the meter coherences then
stop decaying; for n = 2 that is the 2 vs 4 transition at Omega = 0.

`slow_spectrum` takes one meter's levels or a stack (..., n) of meters, and
solves the 2x2 blocks of the whole stack in one batched eigensolve.

The slowest decaying pair for n = 2 belongs to the (+-) population blocks.
Its closed form is the conjugate pair

    lambda = (-(2N+1) gamma -/+ i Omega +/- alpha(*)) / 2

with the same alpha as the time-domain solution; at N = 0 both members go
to zero (pure dephasing stops), matching the null-space growth at zero
temperature.
"""

from __future__ import annotations

import numpy as np

from .bath import bose_occupation, check_thermal
from .dynamics import alpha

__all__ = [
    "slow_spectrum",
    "coherence_eigenvalues_closed_form",
]


def slow_spectrum(tau, levels, k, gamma=1.0):
    """The k eigenvalues of largest real part of the joint generator for a
    meter whose coupling operator has the eigenvalues `levels` (any n >= 2
    finite reals, such as `spin_x_spectrum`), sorted by descending real part
    (descending imaginary part breaks ties).

    levels may also be a stack (..., n) of meters, for a result (..., k):
    one batched eigensolve and one sort for all of them, each meter's row
    bitwise as if it were evaluated alone.

    The population-block eigenvalues come from a numerical eigensolver, so
    they stay an independent check on the closed-form pair. Raises
    RuntimeError if any real part of a meter sits above the contraction
    tolerance, which scales with that meter's largest eigenvalue, and
    FloatingPointError naming tau and gamma where the rates (N+1) gamma and
    N gamma, or their sum, overflow double precision.
    """
    levels = np.asarray(levels, dtype=float)
    if levels.ndim < 1 or levels.shape[-1] < 2 or not np.all(np.isfinite(levels)):
        raise ValueError(f"levels must be at least two finite reals, got {levels!r}")
    stack, n = levels.shape[:-1], levels.shape[-1]
    if not (isinstance(k, (int, np.integer)) and 1 <= k <= 4 * n * n):
        raise ValueError(f"k must be between 1 and {4 * n * n}, got {k!r}")
    check_thermal(tau, gamma)
    n_bar = bose_occupation(tau)
    with np.errstate(over="ignore"):
        decay_rate, excite_rate = (n_bar + 1.0) * gamma, n_bar * gamma
        decay = -0.5 * (decay_rate + excite_rate)
    if not np.isfinite(decay):
        raise FloatingPointError(f"Lindblad rates overflow double precision at "
                                 f"tau={tau:g}, gamma={gamma:g}")
    gaps = (levels[..., :, None] - levels[..., None, :]).reshape(stack + (n * n,))
    blocks = np.empty(gaps.shape + (2, 2), dtype=complex)
    blocks[..., 0, 0] = -1j * gaps - decay_rate
    blocks[..., 0, 1] = excite_rate
    blocks[..., 1, 0] = decay_rate
    blocks[..., 1, 1] = -excite_rate
    shift = 1j * np.repeat(levels, n, axis=-1)
    w = np.concatenate([np.linalg.eigvals(blocks).reshape(stack + (2 * n * n,)),
                        decay - shift, decay + shift], axis=-1)
    top = w.real.max(axis=-1)
    growing = top > 1e-10 * np.maximum(1.0, np.abs(w).max(axis=-1))
    if growing.any():
        raise RuntimeError(f"positive real part {top[growing][0]:.3e} "
                           f"in a Lindblad spectrum")
    order = np.lexsort((-w.imag, -w.real), axis=-1)
    return np.take_along_axis(w, order[..., :k], axis=-1)


def coherence_eigenvalues_closed_form(tau, omega_drive, gamma=1.0):
    """Closed form of the two slow coherence eigenvalues for the n = 2 meter.

    Returns the conjugate pair (lambda_1, lambda_2) with

        lambda_2 = (-(2N+1) gamma - i Omega + alpha)/2,   lambda_1 = conj(lambda_2),

    using the principal-branch alpha. The sign of the root in lambda_1 is
    fixed by requiring it to be slow (the opposite printed sign lands on the
    fast eigenvalue of the same block). tau and omega_drive broadcast. Raises
    FloatingPointError naming the first tau and Omega where the pair
    overflows double precision (alpha squares (2N+1) gamma and Omega, so
    from about 1e154).
    """
    check_thermal(tau, gamma)
    n_bar, g = bose_occupation(tau), gamma
    with np.errstate(over="ignore", invalid="ignore"):
        a = alpha(n_bar, omega_drive, g)
        lam2 = 0.5 * (-(2.0 * n_bar + 1.0) * g - 1j * omega_drive + a)
    finite = np.isfinite(lam2)
    if not finite.all():
        i = np.argmin(finite)  # the first point, in broadcast order
        tau, omega = (np.broadcast_to(v, finite.shape).flat[i]
                      for v in (tau, omega_drive))
        raise FloatingPointError(f"closed-form eigenvalues overflow double "
                                 f"precision at tau={tau:g}, Omega={omega:g}")
    return lam2.conjugate(), lam2
