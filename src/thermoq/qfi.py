"""Quantum Fisher information for temperature estimation.

`meter_qfi_grid` and `joint_qfi_grid` evaluate whole (tau, t) grids in one
call, with the analytic temperature derivatives of `dynamics.sector_blocks`:

* two-level meter: rho = C o c c^T has one coherence C, and the qubit
  formula |dr|^2 + (r.dr)^2/(1-|r|^2) in its Bloch vector r reads
      I = 4 c_0^2 c_1^2 [|C'|^2 + (Re conj(C) C')^2 / (1 - |C|^2)],
  with 1 - |C|^2 = -2 Re delta - |delta|^2 evaluated from delta = C - 1
  (see `dynamics`), so the small occupation survives in the denominator.
* n > 2 meters and the joint state: the general mixed-state formula
      I = 2 vec(d rho)^dag (rho* (x) 1 + 1 (x) rho)^+ vec(d rho),
  evaluated in the factorized eigenbasis of the Jordan superoperator: with
  rho = sum_a p_a |a><a| its eigenpairs are conj|a> (x) |b> at p_a + p_b, so
      I = 2 sum_{ab, p_a+p_b > cutoff} |<a| d rho |b>|^2 / (p_a + p_b).
  Stacks of states are solved with one batched eigh. The joint state is a
  direct sum of its excited and ground sectors, and so is its derivative, so
  its QFI is the sum of the two n x n sector sums, with the support cutoff
  and the support check taken over the whole joint state.
"""

from __future__ import annotations

import math

import numpy as np

from .bath import _check_time, bose_occupation, check_thermal, d_occupation_dT
from .dynamics import MeterState, meter_blocks

__all__ = [
    "SupportError",
    "meter_qfi_grid",
    "joint_qfi_grid",
]

# Jordan eigenvalues p_a + p_b below this times the largest count as the null
# space
_RANK_TOL = 1e-12

# derivatives with weight beyond this (relative to ||d rho||_F, floored at 1)
# on the Jordan null space indicate a rank-changing derivative
_SUPPORT_TOL = 1e-8

# QFI estimates may dip this far below zero from roundoff before it is an error
_NEGATIVE_TOL = 1e-9


class SupportError(ValueError):
    """vec(d rho) has weight outside the numerical support of the Jordan operator."""


def _clipped(value):
    """Clip roundoff below zero; anything further below is an error."""
    value = np.asarray(value, dtype=float)
    if np.any(value < -_NEGATIVE_TOL):
        raise ValueError(f"QFI evaluated to {value.min()}, below the roundoff tolerance")
    return np.maximum(value, 0.0)


def _check_support(outside, norm, what):
    worst = np.max(outside / np.maximum(1.0, norm), initial=0.0)
    if worst > _SUPPORT_TOL:
        raise SupportError(
            f"derivative weight {worst:.3e} (relative) outside the state support "
            f"({what}); derivative changes the rank")


def _jordan_qfi(rho, drho, sld=False):
    """QFIs of stacked direct sums: rho and drho are (..., k, d, d), the k
    diagonal blocks of one state each; returns an array of shape (...).

    With sld=True, returns (QFIs, (u, l, w)), each (..., k, d, d): u holds
    the eigenvectors of rho, w = 1/(p_a + p_b) on the support and 0 off it,
    and l = 2 w o (u^dag drho u) is the symmetric logarithmic derivative in
    that eigenbasis. Any Jordan equation rho X + X rho = Y then solves on the
    support as X = u (w o u^dag Y u) u^dag; L = u l u^dag gives
    rho L + L rho = 2 drho and the QFI Tr[drho L]."""
    p, u = np.linalg.eigh(rho)
    e = u.conj().swapaxes(-1, -2) @ drho @ u
    denom = p[..., :, None] + p[..., None, :]
    blocks = (-3, -2, -1)
    support = denom > _RANK_TOL * denom.max(axis=blocks, keepdims=True)
    weights = np.abs(e) ** 2
    _check_support(np.sqrt(np.sum(weights, axis=blocks, where=~support)),
                   np.sqrt(weights.sum(axis=blocks)), "Jordan operator")
    terms = np.divide(weights, denom, out=np.zeros_like(weights), where=support)
    qfi = _clipped(2.0 * terms.sum(axis=blocks))
    if not sld:
        return qfi
    w = np.divide(1.0, denom, out=np.zeros_like(denom), where=support)
    return qfi, (u, 2.0 * w * e, w)


# meter-matrix entries evaluated together: grids run in chunks of
# _CHUNK_ENTRIES // n^2 points, which bounds the working memory at any grid size
_CHUNK_ENTRIES = 4096


def _grid_blocks(taus, ts, meter, gamma, shape=(), step=None):
    """The broadcast (tau, t) grid, broadcast also against `shape`, in chunks:
    returns (grid shape, iterator of (slice of the flattened grid, its
    meter_blocks)). A chunk holds at most `step` points, by default
    _CHUNK_ENTRIES // n^2."""
    taus, ts = check_thermal(taus, gamma), _check_time(ts)
    # N depends on tau alone: once per temperature, broadcast over t
    n_bar, dn = bose_occupation(taus), d_occupation_dT(taus)
    shape = np.broadcast_shapes(taus.shape, ts.shape, shape)
    n_bar, dn, ts = (np.broadcast_to(v, shape).ravel() for v in (n_bar, dn, ts))
    step = step or max(1, _CHUNK_ENTRIES // (meter.n * meter.n))

    def chunks():
        for lo in range(0, n_bar.size, step):
            part = slice(lo, lo + step)
            blocks = meter_blocks(n_bar[part], dn[part], gamma, meter, ts[part])
            # an overflow (huge N, gamma or t) would come back as nan, or as a
            # silent 0 from the eigensolve
            if not all(np.isfinite(v).all() for v in blocks):
                raise FloatingPointError(
                    f"sector blocks overflow double precision at gamma={gamma:g}, "
                    f"N up to {n_bar[part].max():g}, t up to {ts[part].max():g}")
            yield part, blocks

    return shape, chunks()


def _on_grid(kernel, taus, ts, meter, psi0, gamma):
    """kernel(meter_blocks, c c^T) -> QFIs, over the broadcast (tau, t, psi0)
    grid; returns an array of the broadcast shape."""
    n = meter.n
    c = psi0.coefficients if isinstance(psi0, MeterState) else np.asarray(psi0, float)
    if c.shape[-1:] != (n,):
        raise ValueError(f"psi0 has {c.shape[-1]} coefficients but the meter has "
                         f"{n} levels")
    shape, chunks = _grid_blocks(taus, ts, meter, gamma, c.shape[:-1])
    c = np.broadcast_to(c, shape + (n,)).reshape(-1, n)
    out = np.empty(c.shape[0])
    for part, blocks in chunks:
        # a QFI beyond double precision (huge tau and t) raises below, not inf
        with np.errstate(over="ignore", invalid="ignore"):
            out[part] = kernel(blocks, c[part, :, None] * c[part, None, :])
    if not np.isfinite(out).all():
        raise FloatingPointError(f"QFI overflows double precision at tau up to "
                                 f"{np.max(taus):g}, t up to {np.max(ts):g}")
    return out.reshape(shape)


def _meter_kernel(blocks, cc):
    coh, dcoh = blocks.x + blocks.y, blocks.dx + blocks.dy
    if cc.shape[-1] > 2:
        return _jordan_qfi((coh * cc)[..., None, :, :], (dcoh * cc)[..., None, :, :])
    w = cc[..., 0, 1]
    coh, dcoh, delta = coh[..., 0, 1], dcoh[..., 0, 1], blocks.delta[..., 0, 1]
    mixed = -2.0 * delta.real - np.abs(delta) ** 2  # 1 - |C|^2
    along = (coh.conj() * dcoh).real
    pure = mixed <= 0.0
    # a pure state moves out of its support by -(r.dr)/2 = -2 w^2 Re conj(C) C'
    _check_support(np.where(pure, 2.0 * w * w * np.abs(along), 0.0),
                   math.sqrt(2.0) * w * np.abs(dcoh), "pure two-level meter")
    radial = np.divide(along * along, mixed, out=np.zeros_like(along), where=~pure)
    return _clipped(4.0 * w * w * (np.abs(dcoh) ** 2 + radial))


def _joint_kernel(blocks, cc):
    rho = np.stack([blocks.x * cc, blocks.y * cc], axis=-3)
    drho = np.stack([blocks.dx * cc, blocks.dy * cc], axis=-3)
    return _jordan_qfi(rho, drho)


def meter_qfi_grid(taus, ts, meter, psi0, gamma=1.0):
    """Temperature QFI of the reduced meter state over broadcast (tau, t) arrays.

    psi0 is a MeterState, or an array (..., n) of MeterState coefficients that
    broadcasts against the grid (one preparation per point). Returns an array
    of the broadcast shape: the qubit closed form for n = 2, the stacked
    general formula otherwise.
    """
    return _on_grid(_meter_kernel, taus, ts, meter, psi0, gamma)


def joint_qfi_grid(taus, ts, meter, psi0, gamma=1.0):
    """Temperature QFI of the joint sensor-meter state over broadcast (tau, t)
    arrays: the sum of the excited- and ground-sector QFIs. psi0 as in
    meter_qfi_grid."""
    return _on_grid(_joint_kernel, taus, ts, meter, psi0, gamma)
