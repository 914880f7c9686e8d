"""Spectrum of the joint Lindblad generator, in closed form.

The sensor never exchanges energy with the meter, so the generator acting on
the (2n)^2 joint matrix elements splits into independent pieces:

* n^2 population blocks, one per meter pair (m, m'), acting on the sensor
  populations (x, y) = (<m e|rho|m' e>, <m g|rho|m' g>) through

      [[-i Omega_mm' - (N+1),  N],
       [ (N+1),               -N]],   Omega_mm' = lambda_m - lambda_m';

* 2 n^2 sensor coherences <m e|rho|m' g> and <m g|rho|m' e>, each an
  eigenvector on its own with eigenvalue -(N+1/2) - i lambda_m or
  -(N+1/2) + i lambda_m'.

Rates, levels and eigenvalues are in units of gamma (see `bath`). A block
of gap Omega has trace -(2N+1) - i Omega and determinant i N Omega, so with
the alpha of the time-domain solution its roots are

    s- = (-(2N+1) - i Omega - alpha) / 2,    s+ = i N Omega / s-.

The terms of s- share their signs, so nothing cancels: N ~ e^{-1/tau}
survives in s+ to full relative precision, Re s+ <= 0 holds in rounding,
and a zero gap or N = 0 gives s+ = 0 exactly. Every eigenvalue comes from
these formulas, with no eigensolve; the tests check them against a dense
generator built from the master equation and 60-digit roots of each block.

Each diagonal block (m = m') gives one zero eigenvalue, so the null space
is n-dimensional for distinct nonzero gaps and grows to n^2 when gaps
vanish or N = 0 (for n = 2, the 2 vs 4 transition at Omega = 0). The
slowest decaying pair for n = 2 is s+ of the (+-) and (-+) blocks, the
conjugate pair of `coherence_eigenvalues_closed_form`; at N = 0 it is zero
(pure dephasing stops).
"""

from __future__ import annotations

import numpy as np

from .bath import bose_occupation
from .dynamics import alpha

__all__ = [
    "slow_spectrum",
    "coherence_eigenvalues_closed_form",
]


def _roots(n_bar, gap):
    """The eigenvalues (s+, s-) of the population block at `gap` (module
    docstring); n_bar and gap broadcast. Where alpha overflows, s- is not
    finite, and s+ may not be either. Adding 0.0 makes a zero s+ +0, so
    that the null modes print as 0, not -0."""
    s_minus = -0.5 * ((2.0 * n_bar + 1.0) + 1j * gap + alpha(n_bar, gap))
    return 1j * (n_bar * gap) / s_minus + 0.0, s_minus


def slow_spectrum(tau, levels, k):
    """The k eigenvalues of largest real part of the joint generator for a
    meter whose coupling operator has the eigenvalues `levels` (any n >= 2
    finite reals, such as `spin_x_spectrum`), sorted by descending real part
    (descending imaginary part breaks ties).

    levels may also be a stack (..., n) of meters, for a result (..., k):
    each meter's row bitwise as if it were evaluated alone.

    Every eigenvalue is closed form (module docstring), so every real part
    is <= 0. Raises FloatingPointError naming tau and the first gap where an
    eigenvalue overflows double precision: where 2N+1 or a gap passes about
    1e154, since alpha squares both.
    """
    levels = np.asarray(levels, dtype=float)
    if levels.ndim < 1 or levels.shape[-1] < 2 or not np.all(np.isfinite(levels)):
        raise ValueError(f"levels must be at least two finite reals, got {levels!r}")
    stack, n = levels.shape[:-1], levels.shape[-1]
    if not (isinstance(k, (int, np.integer)) and 1 <= k <= 4 * n * n):
        raise ValueError(f"k must be between 1 and {4 * n * n}, got {k!r}")
    n_bar = bose_occupation(tau)
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = (levels[..., :, None] - levels[..., None, :]).reshape(stack + (n * n,))
        s_plus, s_minus = _roots(n_bar, gaps)
        decay = -(n_bar + 0.5)
    finite = np.isfinite(s_plus) & np.isfinite(s_minus)
    if not finite.all():
        raise FloatingPointError(f"Lindblad rates overflow double precision at "
                                 f"tau={tau:g}, gap={gaps.flat[np.argmin(finite)]:g}")
    shift = 1j * np.repeat(levels, n, axis=-1)
    w = np.concatenate([s_plus, s_minus, decay - shift, decay + shift], axis=-1)
    order = np.lexsort((-w.imag, -w.real), axis=-1)
    return np.take_along_axis(w, order[..., :k], axis=-1)


def coherence_eigenvalues_closed_form(tau, omega_drive):
    """Closed form of the two slow coherence eigenvalues for the n = 2 meter.

    Returns the conjugate pair (lambda_1, lambda_2) = (conj s+, s+), with s+
    the slow root of the population block at gap Omega (module docstring).
    tau and omega_drive broadcast. Raises FloatingPointError naming the
    first tau and Omega where the pair overflows double precision (alpha
    squares 2N+1 and Omega, so from about 1e154).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        lam2, s_minus = _roots(bose_occupation(tau), omega_drive)
    finite = np.isfinite(lam2) & np.isfinite(s_minus)
    if not finite.all():
        i = np.argmin(finite)  # the first point, in broadcast order
        tau, omega = (np.broadcast_to(v, finite.shape).flat[i]
                      for v in (tau, omega_drive))
        raise FloatingPointError(f"closed-form eigenvalues overflow double "
                                 f"precision at tau={tau:g}, Omega={omega:g}")
    return lam2.conjugate(), lam2
