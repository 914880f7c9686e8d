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

Rates, levels and eigenvalues are in units of gamma (see `bath`). A block's
roots s- and s+ are those of the time-domain solution, `dynamics.block_roots`
(formulas and precision in the `dynamics` docstring). Every eigenvalue comes
from these formulas, with no eigensolve; the tests check them against a
dense generator built from the master equation and 60-digit roots of each
block.

Each diagonal block (m = m') gives one zero eigenvalue, so the null space
is n-dimensional for distinct nonzero gaps and grows to n^2 when gaps
vanish or N = 0 (for n = 2, the 2 vs 4 transition at Omega = 0). The
slowest decaying pair for n = 2 is s+ of the (+-) and (-+) blocks, the
paper's closed-form coherence pair: `slow_spectrum` returns it third and
fourth, as (conj s+, s+) at gap +Omega; at N = 0 it is zero (pure dephasing
stops).
"""

from __future__ import annotations

import numpy as np

from .bath import bose_occupation
from .dynamics import block_roots

__all__ = ["slow_spectrum"]


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
        _, s_minus, s_plus = block_roots(n_bar, gaps)
        decay = -(n_bar + 0.5)
    finite = np.isfinite(s_plus) & np.isfinite(s_minus)
    if not finite.all():
        raise FloatingPointError(f"Lindblad rates overflow double precision at "
                                 f"tau={tau:g}, gap={gaps.flat[np.argmin(finite)]:g}")
    shift = 1j * np.repeat(levels, n, axis=-1)
    w = np.concatenate([s_plus, s_minus, decay - shift, decay + shift], axis=-1)
    order = np.lexsort((-w.imag, -w.real), axis=-1)
    return np.take_along_axis(w, order[..., :k], axis=-1)
