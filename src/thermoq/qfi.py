"""Quantum Fisher information for temperature estimation.

`meter_qfi_grid` and `joint_qfi_grid` evaluate whole (tau, t, Omega) grids in
one call, with the analytic temperature derivatives of `dynamics.sector_blocks`;
`joint_and_meter_qfi_grid` returns both from one evaluation of the blocks:

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
  and the support check taken over the whole joint state. Only a stack with
  a Jordan null space (some p_a + p_b below the cutoff) runs the support
  check, which sets the denominators off the support to inf; one division
  then serves every stack, and the null-space weights leave the sum as
  x / inf = +0.0. Real eigenvectors skip the conjugation, and real weights
  are e * e, which is |e|^2 bitwise.

The states are formed at the level of the n ladder gaps -Omega k (the
coherence C for the meter, the sectors x and y = C - x for the joint state),
and only then laid out as n x n matrices, the states and derivatives of a
stack in one layout call. One route decision per point picks the layout.
For palindromic coefficients (c = c[::-1], exactly) the state is
centrohermitian (J rho J = conj rho, J the exchange matrix), because the
ladder is symmetric about 0, so a fixed unitary maps it and its derivative
to real symmetric matrices (Lee, Linear Algebra Appl. 29, 205, 1980;
`dynamics.real_map`), and the eigensolve runs in real arithmetic. The QFI is
unitarily invariant, so both routes compute the same number; they differ by
roundoff. Every other point takes the complex Hermitian layout. Each entry
of either layout reads at most two gap values of its own point, so a point's
QFI does not depend on the other points of its call.

The coupling Omega is a grid coordinate like tau and t: it broadcasts with
them, and one call evaluates any mix of couplings. A meter is its array of
coefficients, and one call also evaluates several meters, a tuple of such
arrays of any lengths, one slab each of the grid's leading axis: the sector
blocks of a point are evaluated at the gaps of the largest meter, and an
n-level meter reads the first n of them, since the gaps -Omega k, k < n, of
an n-level ladder are the first n gaps of any larger ladder. Where the slabs
of several meters repeat points (a grid shared by every meter), a chunk of
the grid evaluates the blocks once per distinct (tau, t, Omega) point,
matched on exact bits, and copies them to each repeat, which is bitwise the
repeat's own evaluation. Each meter keeps its own eigensolve chunks.

One driver, `_on_grid`, runs every grid: it owns the chunking, the memory
bound and the overflow reports, and hands each chunk's blocks to a kernel.
The QFI grids are its kernels, and so is the meter-state optimizer's climb
(`optimize.optimize_initial_state`), which runs both its stages in the
driver's kernel chunks of _CHUNK_ENTRIES // n^2 points. The driver takes
checked meters: the grid functions check each distinct meter of psi0 once
(`_meters`), and `optimize.find_t_max` checks its meters once for all its
grid calls. A meter given as one coefficient vector, alone or in a tuple,
reaches the kernels as one (1, n) row that broadcasts against the chunk's
points, so a kernel call forms c c^T and picks its layout route once, not
per point; an array of one meter per point reaches them row by row.
"""

from __future__ import annotations

import math

import numpy as np

from .bath import (_check_time, bose_occupation, check_thermal, d_occupation_dT,
                   relaxation)
from .dynamics import SectorBlocks, gap_matrix, real_matrix, sector_blocks

__all__ = [
    "SupportError",
    "meter_qfi_grid",
    "joint_qfi_grid",
    "joint_and_meter_qfi_grid",
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
    if (value < -_NEGATIVE_TOL).any():
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

    One division each gives the QFI terms and w: a Jordan null space, once
    its weight is checked, divides by inf, and x / inf is +0.0.

    With sld=True, returns (QFIs, (u, l, w)), each (..., k, d, d): u holds
    the eigenvectors of rho, w = 1/(p_a + p_b) on the support and 0 off it,
    and l = 2 w o (u^dag drho u) is the symmetric logarithmic derivative in
    that eigenbasis. Any Jordan equation rho X + X rho = Y then solves on the
    support as X = u (w o u^dag Y u) u^dag; L = u l u^dag gives
    rho L + L rho = 2 drho and the QFI Tr[drho L]."""
    p, u = np.linalg.eigh(rho)
    e = (u.conj() if np.iscomplexobj(u) else u).swapaxes(-1, -2) @ drho @ u
    denom = p[..., :, None] + p[..., None, :]
    blocks = (-3, -2, -1)
    # the largest and the smallest p_a + p_b of a state are 2 max p and
    # 2 min p, bitwise (doubling is exact and rounding monotone)
    cutoff = _RANK_TOL * (2.0 * p.max(axis=(-2, -1)))
    # e * e is abs(e) ** 2 bitwise where e is real
    weights = e * e if np.isrealobj(e) else np.abs(e) ** 2
    if not (2.0 * p.min(axis=(-2, -1)) > cutoff).all():  # a Jordan null space
        support = denom > cutoff[..., None, None, None]
        _check_support(np.sqrt(np.sum(weights, axis=blocks, where=~support)),
                       np.sqrt(weights.sum(axis=blocks)), "Jordan operator")
        denom[~support] = np.inf
    qfi = _clipped(2.0 * (weights / denom).sum(axis=blocks))
    if not sld:
        return qfi
    w = 1.0 / denom
    return qfi, (u, 2.0 * w * e, w)


# entries evaluated together, which bounds the working memory at any grid
# size: the sector blocks run in chunks of _CHUNK_ENTRIES // n points (n gap
# values a point, n of the largest meter), and each meter's kernel calls
# (its n x n eigensolves) in chunks of _CHUNK_ENTRIES // n^2
_CHUNK_ENTRIES = 4096


def _distinct(*coords):
    """(rows, copies) of the points whose coordinates are the equal-length
    float arrays `coords`: `rows` indexes one point per distinct point, and
    point i is a copy of point rows[copies[i]]. Points match on the exact
    bits of every coordinate (so 0.0 and -0.0 stay apart), which makes a
    copy's blocks bitwise its own."""
    keys = np.stack(coords).view(np.int64)
    order = np.lexsort(keys)
    keys = keys[:, order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
    copies = np.empty_like(order)
    copies[order] = np.cumsum(first) - 1
    return order[first], copies


def _coefficients(psi0):
    """The checked coefficients c (..., n) of a meter sum_m c_m |m>, or of one
    meter per grid point: n >= 2, finite, nonnegative (relative phases do not
    change this model's QFI) and of unit norm to 1e-12."""
    c = np.asarray(psi0, dtype=float)
    if c.ndim == 0 or c.shape[-1] < 2:
        raise ValueError(f"psi0 needs at least two coefficients, got shape {c.shape}")
    # nan and inf fail the norm test too; array methods cost a third of np.all
    with np.errstate(over="ignore"):
        excess = (c * c).sum(axis=-1) - 1.0
    if not (abs(excess) <= 1e-12).all():
        raise ValueError("psi0 coefficients must be finite" if not np.isfinite(c).all()
                         else f"psi0 coefficients must have unit norm to 1e-12 (sum c^2 "
                              f"- 1 = {np.ravel(excess)[np.argmax(abs(excess))]:.3g})")
    if not (c >= 0).all():
        raise ValueError("psi0 coefficients must be nonnegative")
    return c


def _meters(psi0):
    """psi0 checked as `_on_grid` takes it: one meter's coefficients
    (..., n) from `_coefficients`, or a tuple of coefficient vectors, each
    distinct array checked once, so that an array the tuple repeats stays
    one object."""
    if not isinstance(psi0, tuple):
        return _coefficients(psi0)
    if not psi0:
        raise ValueError("psi0 holds no meter")
    checked = {}
    for c in psi0:
        if id(c) not in checked:
            checked[id(c)] = _coefficients(c)
    cs = tuple(checked[id(c)] for c in psi0)
    if any(c.ndim != 1 for c in cs):
        raise ValueError("a tuple psi0 holds one or more coefficient vectors")
    return cs


def _on_grid(kernel, taus, ts, omegas, psi0):
    """The outputs of kernel over the broadcast (tau, t, Omega) grid, from
    the one loop over grid chunks. kernel(gap-level SectorBlocks, c) returns
    a tuple of arrays with one leading entry per point of its chunk, of any
    trailing shape and dtype; each output comes back with the grid shape
    plus that trailing shape. psi0 is checked (see `_meters`): one meter's
    coefficients, which broadcast against the grid, or a tuple of S
    coefficient vectors, one slab each of the grid's leading axis, which a
    leading axis of 1 broadcasts to. A coefficient vector reaches the
    kernel as one (1, n) row, which broadcasts against the chunk's points;
    an array of one meter per point reaches it as the chunk's rows.

    The sector blocks are evaluated in chunks of _CHUNK_ENTRIES // n points,
    one sector_blocks call each, at the gaps -Omega k, k = 0..n-1, of the
    largest meter, and an n-level meter reads their first n columns. When
    the slabs hold more than one coefficient array, a chunk evaluates each
    of its distinct points once and copies the rows to every point that
    repeats it. The kernel runs in chunks of at most _CHUNK_ENTRIES // n^2
    points of one n-level meter; consecutive slabs of one coefficient array
    share its calls. A block overflow names the first point of its chunk;
    after the loop, the outputs are checked in order, and the first that is
    not finite everywhere names its first such point."""
    # levels: (coefficients of its points or one row, first point, end point)
    several = isinstance(psi0, tuple)
    if several:
        shape = np.broadcast_shapes(*(np.shape(v) for v in (taus, ts, omegas))) or (1,)
        if shape[0] not in (1, len(psi0)):
            raise ValueError(f"the grid's leading axis has {shape[0]} entries for "
                             f"{len(psi0)} meters")
        shape, slab = (len(psi0),) + shape[1:], math.prod(shape[1:])
        runs = []  # [first meter, end meter]: one coefficient array
        for s, c in enumerate(psi0):
            if s and c is psi0[s - 1]:
                runs[-1][1] += 1
            else:
                runs.append([s, s + 1])
        levels = [(psi0[a][None], a * slab, b * slab) for a, b in runs]
    else:
        shape = psi0.shape[:-1]
    taus, ts = check_thermal(taus), _check_time(ts)
    omegas = np.asarray(omegas, dtype=float)
    # N depends on tau alone: once per temperature, broadcast over t
    n_bar, dn = bose_occupation(taus), d_occupation_dT(taus)
    grid = np.broadcast_shapes(taus.shape, ts.shape, omegas.shape, shape)
    taus, n_bar, dn, ts, omegas = (np.broadcast_to(v, grid).ravel()
                                   for v in (taus, n_bar, dn, ts, omegas))
    size = n_bar.size
    if not several:
        c = psi0[None] if psi0.ndim == 1 else (
            np.broadcast_to(psi0, grid + psi0.shape[-1:]).reshape(-1, psi0.shape[-1]))
        levels = [(c, 0, size)]
    n = max(c.shape[1] for c, _, _ in levels)
    k, span = np.arange(1, n), max(1, _CHUNK_ENTRIES // n)
    outs = None  # allocated from the first kernel result
    # an overflow in the blocks (huge N, Omega or t) or in a kernel comes
    # back as inf or nan, which raises below; in the blocks it would be a
    # silent 0 from the eigensolve
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, size, span):
            hi = min(lo + span, size)
            rows, copies = slice(lo, hi), None
            if len(levels) > 1:
                rows, copies = _distinct(taus[lo:hi], ts[lo:hi], omegas[lo:hi])
                rows += lo
            nb, d, t = n_bar[rows, None], dn[rows, None], ts[rows, None]
            # the zero gap k = 0 is the diagonal: the bare relaxation, as
            # sector_blocks has it
            p, dp = relaxation(nb, t)
            zero = np.zeros_like(p)
            blocks = SectorBlocks(*(
                np.concatenate([v, w], axis=1) for v, w in zip(
                    (p, np.ones_like(p), dp * d, zero, zero),
                    sector_blocks(nb, d, -omegas[rows, None] * k, t))))
            finite = [np.isfinite(v) for v in blocks]
            if not all(f.all() for f in finite):
                bad = ~np.all(finite, axis=(0, 2))
                # the first point of the chunk, in grid order
                i = lo + np.argmax(bad if copies is None else bad[copies])
                raise FloatingPointError(
                    f"sector blocks overflow double precision at "
                    f"tau={taus[i]:g}, t={ts[i]:g}, Omega={omegas[i]:g}")
            if copies is not None:
                blocks = SectorBlocks(*(v[copies] for v in blocks))
            for c, start, end in levels:
                m = c.shape[1]
                step = max(1, _CHUNK_ENTRIES // (m * m))
                for a in range(max(lo, start), min(hi, end), step):
                    b = min(a + step, hi, end)
                    result = kernel(SectorBlocks(*(v[a - lo:b - lo, :m] for v in blocks)),
                                    c if len(c) == 1 else c[a - start:b - start])
                    if outs is None:
                        outs = [np.empty((size,) + r.shape[1:], r.dtype) for r in result]
                    for out, r in zip(outs, result):
                        out[a:b] = r
        if outs is None:  # no grid point: the outputs of an empty chunk
            c = levels[0][0]
            outs = kernel(SectorBlocks(*np.empty((5, 0, c.shape[1]), complex)), c)
    for out in outs:
        bad = ~np.isfinite(out)
        if bad.any():  # the first point, whatever the chunk size
            i = np.unravel_index(np.argmax(bad), bad.shape)[0]
            raise FloatingPointError(f"QFI overflows double precision at "
                                     f"tau={taus[i]:g}, t={ts[i]:g}, Omega={omegas[i]:g}")
    return tuple(out.reshape(grid + out.shape[1:]) for out in outs)


def _sectors_qfi(f, df, c):
    """QFIs of the direct sums of the sectors F_j o c c^T, f and df (points,
    sectors, g) gap values of the states and their derivatives, and c the
    coefficients (points, n), or one row (1, n) for every point. F_j is laid
    out per point: real_matrix where c is palindromic, which makes the state
    centrohermitian, and gap_matrix elsewhere. The states and derivatives are
    laid out in one call, side by side on the sector axis, which leaves each
    row's matrices as from a call of its own (see the module docstring)."""
    cc = (c[:, :, None] * c[:, None, :])[:, None]
    real = (c == c[:, ::-1]).all(axis=1)
    k = f.shape[1]
    both = np.concatenate([f, df], axis=1)
    if real.all() or not real.any():  # one route for the whole stack
        mats = (real_matrix if real.all() else gap_matrix)(both) * cc
        return _jordan_qfi(mats[:, :k], mats[:, k:])
    out = np.empty(len(c))
    for embed, rows in ((real_matrix, real), (gap_matrix, ~real)):
        mats = embed(both[rows]) * cc[rows]
        out[rows] = _jordan_qfi(mats[:, :k], mats[:, k:])
    return out


def _meter_kernel(blocks, c):
    if c.shape[-1] > 2:
        return _sectors_qfi(blocks.coh[:, None], blocks.dcoh[:, None], c)
    # the one coherence, at the gap -Omega (k = 1)
    w = c[:, 0] * c[:, 1]
    coh, dcoh, delta = blocks.coh[:, 1], blocks.dcoh[:, 1], blocks.delta[:, 1]
    mixed = -2.0 * delta.real - np.abs(delta) ** 2  # 1 - |C|^2
    along = (coh.conj() * dcoh).real
    pure = mixed <= 0.0
    # a pure state moves out of its support by -(r.dr)/2 = -2 w^2 Re conj(C) C'
    _check_support(np.where(pure, 2.0 * w * w * np.abs(along), 0.0),
                   math.sqrt(2.0) * w * np.abs(dcoh), "pure two-level meter")
    # along (along / mixed): along^2 underflows at low tau
    radial = along * np.divide(along, mixed, out=np.zeros_like(along), where=~pure)
    return _clipped(4.0 * w * w * (np.abs(dcoh) ** 2 + radial))


def _meter_qfis(blocks, c):
    """The `_on_grid` kernel of meter_qfi_grid, and of optimize.find_t_max."""
    return (_meter_kernel(blocks, c),)


def _joint_kernel(blocks, c):
    # the ground sector y = C - x
    return _sectors_qfi(np.stack([blocks.x, blocks.coh - blocks.x], axis=1),
                        np.stack([blocks.dx, blocks.dcoh - blocks.dx], axis=1), c)


def meter_qfi_grid(taus, ts, omega, psi0):
    """Temperature QFI of the reduced meter state over broadcast (tau, t,
    Omega) arrays, for the spin ladder M = Omega S_x with n = len(c) levels
    (the QFI depends on |Omega| only).

    psi0 is the meter's initial state sum_m c_m |m>: an array-like (..., n) of
    nonnegative real coefficients of unit norm (see `_coefficients`), which
    broadcasts against the grid (one preparation per point). Returns an array
    of the broadcast shape: the qubit closed form for n = 2, the stacked
    general formula otherwise.

    Several meters are a tuple of S coefficient vectors of any lengths, one
    slab of points each on the grid's leading axis, which is then S long or
    1 (every meter at every point); the sector blocks are evaluated in one
    sector_blocks call per chunk of the S slabs, once per distinct point of
    the chunk when the slabs hold more than one coefficient array, and the
    result has shape (S,) + the other grid axes. Any other psi0, a list
    included, is one meter.
    """
    return _on_grid(_meter_qfis, taus, ts, omega, _meters(psi0))[0]


def joint_qfi_grid(taus, ts, omega, psi0):
    """Temperature QFI of the joint sensor-meter state over broadcast (tau, t,
    Omega) arrays: the sum of the excited- and ground-sector QFIs. psi0 as in
    meter_qfi_grid."""
    return _on_grid(lambda blocks, c: (_joint_kernel(blocks, c),), taus, ts, omega,
                    _meters(psi0))[0]


def joint_and_meter_qfi_grid(taus, ts, omega, psi0):
    """(joint_qfi_grid, meter_qfi_grid) of the same arguments, each bitwise
    as from its own call, from one evaluation of the sector blocks."""
    return _on_grid(lambda blocks, c: (_joint_kernel(blocks, c), _meter_kernel(blocks, c)),
                    taus, ts, omega, _meters(psi0))
