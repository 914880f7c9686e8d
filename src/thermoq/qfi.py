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
  and the support check taken over the whole joint state. `qfi_general`
  applies this formula to one given state.

`qfi_longtime` is the printed long-time expression for the two-level meter,
controlled by the effective decay rate Gamma_N.
"""

from __future__ import annotations

import math

import numpy as np

from .bath import SensorParams, bose_occupation, d_occupation_dT
from .dynamics import MeterState, meter_blocks

__all__ = [
    "SupportError",
    "qfi_general",
    "qfi_longtime",
    "meter_qfi_grid",
    "joint_qfi_grid",
    "effective_decay_rate",
]

# derivatives with weight beyond this (relative to ||d rho||_F, floored at 1)
# on the Jordan null space indicate a rank-changing derivative or a rank_tol
# too coarse for the state
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
            f"({what}); derivative changes the rank or rank_tol is too coarse")


def _jordan_qfi(rho, drho, rank_tol=1e-12, sld=False):
    """QFIs of stacked direct sums: rho and drho are (..., k, d, d), the k
    diagonal blocks of one state each; returns an array of shape (...).

    With sld=True, returns (QFIs, L): L (..., k, d, d) holds the symmetric
    logarithmic derivatives, rho L + L rho = 2 drho on the support (zero
    off it), so that the QFI is Tr[drho L]."""
    p, u = np.linalg.eigh(rho)
    e = u.conj().swapaxes(-1, -2) @ drho @ u
    denom = p[..., :, None] + p[..., None, :]
    blocks = (-3, -2, -1)
    support = denom > rank_tol * denom.max(axis=blocks, keepdims=True)
    weights = np.abs(e) ** 2
    _check_support(np.sqrt(np.sum(weights, axis=blocks, where=~support)),
                   np.sqrt(weights.sum(axis=blocks)), f"rank_tol={rank_tol:g}")
    terms = np.divide(weights, denom, out=np.zeros_like(weights), where=support)
    qfi = _clipped(2.0 * terms.sum(axis=blocks))
    if not sld:
        return qfi
    l_eig = np.divide(2.0 * e, denom, out=np.zeros_like(e), where=support)
    return qfi, u @ l_eig @ u.conj().swapaxes(-1, -2)


def qfi_general(rho, drho, rank_tol=1e-12):
    """General mixed-state QFI via the pseudo-inverse of the Jordan superoperator.

    Eigenvalues of rho* (x) 1 + 1 (x) rho below rank_tol times the largest
    are dropped; any weight of the derivative on the dropped subspace beyond
    1e-8 (relative to its norm) raises SupportError.
    """
    rho = np.asarray(rho, dtype=complex)
    drho = np.asarray(drho, dtype=complex)
    if rho.ndim != 2 or rho.shape != drho.shape or rho.shape[0] != rho.shape[1]:
        raise ValueError("rho and drho must be square matrices of equal shape")
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    return float(_jordan_qfi(rho[None], drho[None], rank_tol))


# meter-matrix entries evaluated together: grids run in chunks of
# _CHUNK_ENTRIES // n^2 points, which bounds the working memory at any grid size
_CHUNK_ENTRIES = 4096


def _on_grid(kernel, taus, ts, meter, psi0, gamma):
    """kernel(meter_blocks, c c^T) -> QFIs, over the broadcast (tau, t, psi0)
    grid; returns an array of the broadcast shape."""
    taus = np.asarray(taus, dtype=float)
    ts = np.asarray(ts, dtype=float)
    if not np.all(ts >= 0):
        raise ValueError("t must be nonnegative")
    n = meter.n
    c = psi0.coefficients if isinstance(psi0, MeterState) else np.asarray(psi0, float)
    if c.shape[-1:] != (n,):
        raise ValueError(f"psi0 has {c.shape[-1]} coefficients but the meter has "
                         f"{n} levels")
    # N depends on tau alone: once per temperature, broadcast over t
    params = [SensorParams(temperature=float(x), gamma=gamma) for x in taus.ravel()]
    n_bar = np.array([bose_occupation(p) for p in params]).reshape(taus.shape)
    dn = np.array([d_occupation_dT(p) for p in params]).reshape(taus.shape)
    shape = np.broadcast_shapes(taus.shape, ts.shape, c.shape[:-1])
    n_bar, dn, ts = (np.broadcast_to(v, shape).ravel() for v in (n_bar, dn, ts))
    c = np.broadcast_to(c, shape + (n,)).reshape(-1, n)
    out = np.empty(n_bar.size)
    step = max(1, _CHUNK_ENTRIES // (n * n))
    for lo in range(0, out.size, step):
        part = slice(lo, lo + step)
        blocks = meter_blocks(n_bar[part], dn[part], gamma, meter, ts[part])
        out[part] = kernel(blocks, c[part, :, None] * c[part, None, :])
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


def effective_decay_rate(params, omega_drive):
    """Slow decoherence rate Gamma_N = N gamma (Omega^2 - N gamma^2)/(Omega^2 + gamma^2)."""
    n = bose_occupation(params)
    g = params.gamma
    return n * g * (omega_drive ** 2 - n * g * g) / (omega_drive ** 2 + g * g)


def qfi_longtime(params, omega_drive, t):
    """Long-time approximation of the two-level meter QFI.

    I ~ (dN/dtau)^2 gamma^2 t^2 e^{-2 Gamma_N t} / (Omega^2 + gamma^2)
        * (Omega^2 + 4 gamma^2 N^2 + (Omega^2 - 2 gamma^2 N)^2
           / ((Omega^2 + gamma^2)(e^{2 Gamma_N t} - 1)))

    Valid for gamma t >> 1; returns the formula value without validity checks
    beyond t > 0.
    """
    if not t > 0:
        raise ValueError("the long-time approximation needs t > 0")
    n = bose_occupation(params)
    dn = d_occupation_dT(params)
    g = params.gamma
    o2 = omega_drive ** 2
    gamma_n = effective_decay_rate(params, omega_drive)
    # np.exp saturates instead of raising; for gamma_n < 0 (outside the
    # approximation's validity) the formula value is returned as-is
    decay = float(np.exp(-2.0 * gamma_n * t))
    if decay == 0.0:
        return 0.0
    pref = dn * dn * g * g * t * t * decay / (o2 + g * g)
    tail = (o2 - 2.0 * g * g * n) ** 2 / ((o2 + g * g) * float(np.expm1(2.0 * gamma_n * t)))
    return float(_clipped(pref * (o2 + 4.0 * g * g * n * n + tail)))

