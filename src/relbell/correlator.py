"""Spin correlation of a singlet pair of massive spin-1/2 particles.

For measurement axes ``a`` (particle 1) and ``b`` (particle 2) the
expectation of the product of the two +-1 observables is

    K(a, b; p1, p2) = - v1(a) . v2(b) / (|v1(a)| |v2(b)|)

with the effective axes ``v_i`` of :func:`relbell.kinematics.boosted_spin_axis`
built from each particle's own velocity.  At zero momentum this is the
textbook ``-a.b``; for equal momenta along ``n`` with speed ``beta`` it
reduces to

    -(a.b - beta^2 a_perp.b_perp)
      / sqrt((1 + beta^2 ((n.a)^2 - 1)) (1 + beta^2 ((n.b)^2 - 1)))

Setting ``b = a`` gives exactly -1 for any momentum: the pair stays
perfectly anti-correlated along a shared axis.

There is one kernel per kind of input.  Velocities (the scans,
:func:`kernel_from_beta`, and the fixed momentum of a :class:`Sharp`
profile, which is turned into its velocity first) go through
:func:`_pair_kernels`, on axes boosted by :func:`_boosted`
with the component core of :mod:`relbell.kinematics`: a side's axes are
stacked into one array and boosted in one broadcast pass per frame, and
all (Alice, Bob) kernels come from one product, three adds, one square
root and one division; every operation is elementwise and in the order of
the ``np.sum`` form, so the bytes match it.  :func:`_kernel_matrix` boosts
Alice's side in one frame and Bob's in another.  Velocity callers that
work on whole arrays (:func:`_kernel_rows`) go through the shared block
loop in blocks of ``_ARRAY_BLOCK_ROWS`` rows, so no temporary of the
kernel work covers a whole array.  A side of :func:`_kernel_rows` is fixed
(one set of axes for every row) or indexed (a pool of axes and one pool
index per row); an indexed side is gathered block by block, so per-row
axes never fill a whole-array copy either.

Every sampled or recorded momentum takes the projection form instead, with
no velocity and no boosted axes: the Monte Carlo (:func:`_leaf_kernels`)
and the protocol run's outcome kernels, resend overlaps and empirical
threshold (:func:`_momentum_rows`).  With ``x = p/m``,
``gamma^2 = 1 + |x|^2`` and ``s_a = a.x``, the Pauli-Lubanski identity
gives ``E v(a)/m = a + s_a x / (gamma + 1)`` and
``|E v(a)/m|^2 = a.a + s_a^2``, so one projection ``a.x`` per axis and
draw (:func:`_project`, on fixed or per-row axes) carries everything:

    shared momentum:  K = -(a.b + s_a s_b) / sqrt((a.a + s_a^2)(b.b + s_b^2))

and two momenta take the product of the two ``E v/m``,
``K12 = K(a, b; p1, p2)`` (:func:`_k12_kernels`).  The protocol takes
``K12`` as it is, Alice's axis on particle 1 and Bob's on particle 2; the
Monte Carlo symmetrizes it over the particle swap
(:func:`_crossed_kernels`).  Momentum arrays that are one array (as a
correlated beam draws them) or equal bit for bit are projected once and
take the shared form.  Nothing rounds through ``beta``, so the kernels
keep full precision at any ``gamma``, and a transverse axis is degenerate
only where ``m/E`` falls below ``DEGENERACY_TOL``.

Averages over momentum profiles are estimated by Monte Carlo with a
splittable, counter-based generator (Philox keyed through ``SeedSequence``
spawning, one child per fixed-size chunk), so results are bitwise
reproducible for a given ``(seed, samples, chunk_size)`` regardless of how
many worker threads evaluate the chunks.  :func:`_estimate` is the one
estimator: it checks the inputs, answers a sharp profile exactly, runs
every chunk on the worker pool, merges the chunks in order and returns the
:class:`CorrelatorEstimate`; :func:`correlator_mc` and
:func:`relbell.bell.bell_average_mc` differ only in how they combine the
per-pair means and errors.  A chunk is streamed (:func:`_evaluate_chunk`):
it is cut into the leaves of numpy's pairwise-summation tree, of at most
``_BLOCK_ROWS`` draws, and each leaf is drawn through the profile's
``sample_blocks``, its kernels formed and the leaf reduced on the spot.
The leaf sums are added up the same tree, so the chunk's sums have the
bytes of ``np.sum`` over a chunk-wide kernel array that is never formed.
"""

from __future__ import annotations

import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import MomentumDistribution, Sharp
from .errors import DegenerateObservableError
from .kinematics import (
    DEGENERACY_TOL,
    ParticleKinematics,
    _boost,
    _broadcast_rows,
    _check_velocity,
    _frame_blocks,
    _frame_of,
    _norm_sq,
    _same_bits,
)

#: Default number of momentum samples evaluated per RNG chunk.
DEFAULT_CHUNK_SIZE = 65536

#: Most draws per leaf of a Monte Carlo chunk (see :func:`_leaf_sizes`).  It
#: must be at least 128, numpy's own pairwise-summation block, for a leaf's
#: ``np.sum`` to be a subtree of the chunk's.  A component row of a leaf is
#: 64 KiB, and its largest temporaries, the (A, rows) projections and the
#: (2, 2, rows) CHSH kernels, 256 KiB each.  Measured when the kernels
#: still came from boosted velocity axes, in three rotations of 20 s
#: mc_threshold runs on a 2-vCPU host shared with other tenants: leaves of
#: 8192 draws gave op_p50_s 0.11-0.17 s at a peak RSS of 56.8-57.0 MB,
#: leaves of 4096 draws 0.14-0.18 s at 51.0-51.2 MB, and the earlier path
#: (a chunk's momenta and kernels drawn and stored at once, formed in
#: blocks of 4096) 0.16-0.25 s at 57.1 MB.  The protocol's momentum rows
#: (:func:`_momentum_rows`) go in blocks of the same size: twelve rotations
#: of one protocol_run op on a 2-vCPU host gave medians of 0.094, 0.085,
#: 0.089 and 0.101 s in blocks of 4096, 8192, 16384 and 32768 rows.
_BLOCK_ROWS = 8192

#: Rows per block for the velocity callers that work on whole arrays (the
#: scans, :func:`kernel_from_beta`).  On a 2-vCPU host a 2^17-pair protocol
#: run, when it still went through the velocity kernel, took 10-20% longer
#: in blocks of 4096 rows than of 16384, and in one whole-array block its
#: tracemalloc peak quadrupled (65-70 MiB against 15-16).
_ARRAY_BLOCK_ROWS = 16384

#: Cap on resampling sweeps for degenerate draws within one chunk.
_MAX_RESAMPLE_SWEEPS = 100


_DEGENERACY_TOL_SQ = DEGENERACY_TOL * DEGENERACY_TOL


def _boosted(axes, frame):
    """Stacked axes boosted into ``frame`` (see :func:`_boost`): the
    effective axes, (A, 3, rows), and their squared lengths, (A, rows)."""
    v = _boost(axes, frame)
    return v, _norm_sq(v.swapaxes(0, 1))


def _short(sq) -> np.ndarray:
    """The rows where any effective axis is shorter than ``DEGENERACY_TOL``,
    from squared lengths of shape (A, rows)."""
    return np.any(sq < _DEGENERACY_TOL_SQ, axis=0)


def _pair_kernels(v1, sq1, v2, sq2) -> np.ndarray:
    """-v1.v2 / (|v1| |v2|) for every pair of two boosted sides, (A, B, rows).

    One product, three adds, one square root and one division, each
    elementwise and in the order of the ``np.sum`` form, so the bytes match
    it.  Normalizing by one square root of the product of squared lengths
    makes the shared-axis case land on -1 exactly.
    """
    prod = v1[:, None] * v2[None]
    kernels = 0.0 + prod[:, :, 0]
    kernels += prod[:, :, 1]
    kernels += prod[:, :, 2]
    np.negative(kernels, out=kernels)
    norms = sq1[:, None] * sq2[None]
    np.sqrt(norms, out=norms)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(kernels, norms, out=kernels)
    return kernels


def _kernel_matrix(alice, bob, frame1, frame2):
    """Singlet kernel for every (Alice, Bob) axis pair, with a degeneracy mask.

    ``alice`` and ``bob`` are each side's axes stacked: (A, 3) for fixed
    axes or (A, 3, rows) for per-row axes.  Alice's side is boosted in
    ``frame1``, Bob's in ``frame2``, each in one broadcast pass.  Returns
    ``(kernels, degenerate)``: ``kernels`` has shape (A, B, rows), and
    ``degenerate`` marks the rows where any effective axis is shorter than
    ``DEGENERACY_TOL``.  The kernels of those rows are meaningless; raising
    on them or resampling them is the caller's policy.
    """
    (v1, sq1), (v2, sq2) = _boosted(alice, frame1), _boosted(bob, frame2)
    return _pair_kernels(v1, sq1, v2, sq2), _short(sq1) | _short(sq2)


def _nondegenerate(kernels: np.ndarray, degenerate: np.ndarray) -> np.ndarray:
    """Raise on any degenerate row, else return the kernels.

    Adding zero folds the -0.0 of orthogonal axes at rest into 0.0.
    """
    if np.any(degenerate):
        raise DegenerateObservableError(
            "an effective measurement axis vanished; the axis is transverse "
            "to an ultra relativistic momentum"
        )
    return kernels + 0.0


def _block_side(side, rows: slice) -> np.ndarray:
    """A side's axes for one block: a fixed (A, 3) side as it is, an
    indexed ``(pool, index)`` side gathered as one (1, 3, rows) array."""
    if isinstance(side, tuple):
        pool, index = side
        return pool.T.take(index[rows], axis=1)[None]
    return side


def _kernel_rows(alice, bob, x1, x2, combine=lambda k: k[0, 0]) -> np.ndarray:
    """``combine(kernels)`` for every row of two velocity arrays of shape
    (n, 3); degenerate rows raise.

    Each side is fixed, an (A, 3) array of axes stacked as for
    :func:`_kernel_matrix`, or indexed, a ``(pool, index)`` pair that gives
    row ``i`` the axis ``pool[index[i]]``.  The rows go through the shared
    block loop in blocks of ``_ARRAY_BLOCK_ROWS``, and an indexed side's
    axes are gathered per block as one (1, 3, rows) array, so no per-row
    axis array covers all rows.  Each kernel is a per-row value, so the
    blocks give the bytes of one whole-array pass.
    """
    out = np.empty(len(x1))
    for rows, frame1, frame2 in _frame_blocks(x1, x2, _ARRAY_BLOCK_ROWS):
        sides = (_block_side(side, rows) for side in (alice, bob))
        out[rows] = combine(_nondegenerate(*_kernel_matrix(*sides, frame1, frame2)))
    return out


def kernel_from_beta(a_dir, b_dir, beta1, beta2) -> np.ndarray:
    """Vectorized singlet correlation from velocity vectors.

    Accepts arrays of shape (..., 3); degenerate rows raise.  Velocities
    with |beta| = 1 are allowed as a limit provided the axis keeps a
    longitudinal component.
    """
    shape, (a, b, x1, x2) = _broadcast_rows(a_dir, b_dir, beta1, beta2)
    # a single axis is a fixed side; broadcast per-row axes index themselves
    sides = (rows[:1] if np.ndim(axis) == 1 else (rows, np.arange(len(rows)))
             for axis, rows in ((a_dir, a), (b_dir, b)))
    return _kernel_rows(*sides, x1, x2).reshape(shape)[()]


def correlator_integrand(
    a_dir, b_dir, kin1: ParticleKinematics, kin2: ParticleKinematics
) -> float:
    """Correlation K(a, b; p1, p2) at two fixed single-particle momenta."""
    return float(kernel_from_beta(a_dir, b_dir, kin1.beta_vec, kin2.beta_vec))


def correlator_sharp(a_dir, b_dir, beta_vec) -> float:
    """Correlation when both particles share one velocity ``beta_vec``;
    requires |beta| < 1."""
    b = _check_velocity(beta_vec)
    return float(kernel_from_beta(a_dir, b_dir, b, b))


@dataclass(frozen=True)
class CorrelatorEstimate:
    """Monte Carlo estimate with its one-sigma standard error."""

    value: float
    standard_error: float
    samples: int
    rejected: int = 0
    warning: str | None = None


def _integer(value, name: str) -> int:
    """``value`` as an int; a bool or a value that is not an integer raises
    a ``ValueError`` that names ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_seed(seed) -> int:
    """A seed as an int: a nonnegative integer, as ``SeedSequence`` takes."""
    seed = _integer(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def _check_sampling(samples: int, workers: int = 1, name: str = "samples") -> None:
    """Type and range checks on the Monte Carlo inputs, shared by
    :func:`_estimate`, the protocol's configured threshold and the command
    line."""
    if _integer(samples, name) < 100:
        raise ValueError(f"samples must be >= 100, got {name} = {samples}")
    if _integer(workers, "workers") < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def _chunk_sizes(samples: int, chunk_size: int) -> list[int]:
    full, rest = divmod(samples, chunk_size)
    return [chunk_size] * full + ([rest] if rest else [])


def _halves(n: int) -> tuple[int, int]:
    """How ``np.sum`` splits a contiguous run of ``n > 128`` values: it adds
    the pairwise sums of the first ``half`` values and of the rest, with
    ``half`` the multiple of 8 at or below ``n // 2``."""
    half = n // 2
    half -= half % 8
    return half, n - half


def _leaf_sizes(n: int) -> list[int]:
    """The leaves, left to right, of numpy's pairwise-summation tree over
    ``n`` values (:func:`_halves`), split until each has at most
    ``_BLOCK_ROWS`` values.  A leaf of at most ``_BLOCK_ROWS >= 128``
    values is one subtree, so its ``np.sum`` is that subtree's sum."""
    if n <= _BLOCK_ROWS:
        return [n]
    return [size for half in _halves(n) for size in _leaf_sizes(half)]


def _tree_sum(n: int, leaves):
    """The leaf sums from the iterator ``leaves`` added up the tree of
    :func:`_leaf_sizes`, so the total has the bytes of ``np.sum`` over all
    ``n`` values."""
    if n <= _BLOCK_ROWS:
        return next(leaves)
    left, right = _halves(n)
    total = _tree_sum(left, leaves)
    return total + _tree_sum(right, leaves)


def _leaf_stats(kernels: np.ndarray) -> np.ndarray:
    """Per-pair (sum, sum of squares) of one leaf's kernel rows, as one
    (2, pairs) array; the kernels are squared in place."""
    stats = np.empty((2, len(kernels)))
    kernels.sum(axis=1, out=stats[0])
    kernels *= kernels
    kernels.sum(axis=1, out=stats[1])
    return stats


class _Axes(NamedTuple):
    """Both sides' axes, as the momentum kernels use them: ``stacked``
    holds Alice's ``count`` axes and then Bob's, (A, 3, 1) for fixed axes
    or (A, 3, rows) for per-row ones; ``aa`` is each axis's ``a.a``,
    (A, 1) or (A, rows), and ``nab`` is ``-(a.b)`` for every (Alice, Bob)
    pair, (count, B, 1) or (count, B, rows)."""

    stacked: np.ndarray
    count: int
    aa: np.ndarray
    nab: np.ndarray


def _mc_axes(alice: np.ndarray, bob: np.ndarray) -> _Axes:
    """The :class:`_Axes` of two fixed sides, (A, 3) and (B, 3)."""
    stacked = np.concatenate((alice, bob))
    prod = alice[:, None] * bob[None]
    nab = -((prod[..., 0] + prod[..., 1]) + prod[..., 2])
    return _Axes(stacked[:, :, None], len(alice), _norm_sq(stacked.T)[:, None], nab[:, :, None])


def _block_axes(alice, bob):
    """A function of a block's ``rows`` that gives the block's
    :class:`_Axes`.  Two fixed sides, (A, 3) arrays, give the same axes to
    every block.  Two indexed sides, ``(pool, index)`` pairs, give one axis
    per side and row; each pool axis's ``a.a`` and each pool pair's
    ``-(a.b)`` are formed once, on the pools, and gathered per row."""
    if not isinstance(alice, tuple):
        fixed = _mc_axes(alice, bob)
        return lambda rows: fixed
    (pool1, index1), (pool2, index2) = alice, bob
    table = _mc_axes(pool1, pool2)
    xyz = table.stacked[:, :, 0].T.copy()
    aa = table.aa[:, 0]
    nab = table.nab.reshape(-1)
    # one index per side into the stacked pools, and one per row into the
    # flattened pair table, made once in numpy's own index type
    index = np.stack((index1, index2), dtype=np.intp)
    pair = index[0] * len(pool2) + index[1]
    index[1] += len(pool1)

    def gathered(rows: slice) -> _Axes:
        block = index[:, rows]
        return _Axes(xyz.take(block, axis=1).transpose(1, 0, 2), 1, aa.take(block),
                     nab.take(pair[rows])[None, None])

    return gathered


#: Rows whose ``|p/m|^2`` reaches this are projected in units of their
#: largest momentum component instead of the mass (see :func:`_project`).
#: Below it no product of the kernels overflows for axes of length up to
#: ~1e15: the largest is a product of norms, at most
#: ``|a|^2 |b|^2 gamma1^2 gamma2^2``.
_SCALED_ABOVE = 1e120


class _Projections(NamedTuple):
    """One particle's per-draw terms (:func:`_project`), in units of a scale
    ``M`` that is the mass ``m`` unless the row overflows: ``y = p/M``
    (3, rows), ``c = m/M`` (1.0, or one per row), the projections
    ``t = a.y`` (A, rows), ``sq = c^2 a.a + t^2`` (A, rows), which is
    ``c^2 |E v(a)/m|^2``, and ``gsq = c^2 + |y|^2`` (rows,), which is
    ``c^2 gamma^2``."""

    y: np.ndarray
    c: float | np.ndarray
    t: np.ndarray
    sq: np.ndarray
    gsq: np.ndarray


def _project(axes: _Axes, p: np.ndarray, mass: float) -> _Projections:
    """The :class:`_Projections` of momenta ``p``, (rows, 3).

    With ``M = m`` (so ``c = 1``) this is ``s = a.p/m`` and
    ``gamma^2 = 1 + |p/m|^2``.  Where ``|p/m|^2`` reaches
    ``_SCALED_ABOVE`` (or overflows) the leaf takes a per-row ``M``: the
    mass on the other rows, whose bytes do not change, and the larger of
    the mass and the largest ``|p_k|`` on those, so no term overflows.
    """
    y = np.empty((3, len(p)))
    with np.errstate(over="ignore"):
        np.divide(p.T, mass, out=y)
        gsq = _norm_sq(y)
    c = 1.0
    if not gsq.max() < _SCALED_ABOVE:  # NaN too
        big = np.abs(p).max(axis=1)
        scale = np.where(gsq < _SCALED_ABOVE, mass, np.maximum(big, mass))
        np.divide(p.T, scale, out=y)
        c = mass / scale
        gsq = _norm_sq(y)
    gsq += c * c
    a = axes.stacked
    t = a[:, 0] * y[0]
    sq = np.multiply(a[:, 1], y[1])
    t += sq
    t += np.multiply(a[:, 2], y[2], out=sq)
    np.multiply(t, t, out=sq)
    sq += axes.aa * (c * c)
    return _Projections(y, c, t, sq, gsq)


def _degenerate(one: _Projections, side: slice = slice(None)) -> np.ndarray:
    """The draws where some effective axis of ``side`` (every stacked axis
    by default) is shorter than ``DEGENERACY_TOL``: ``|v(a)|^2 = sq / gsq``,
    and dividing every axis by the same ``gsq`` keeps the smallest one
    smallest."""
    shortest = one.sq[side].min(axis=0)
    shortest /= one.gsq
    return shortest < _DEGENERACY_TOL_SQ


def _outer(u, v, out=None) -> np.ndarray:
    """``u_i v_j`` for every pair of rows of u (I, rows) and v (J, rows)."""
    return np.multiply(u[:, None], v[None], out=out)


def _shared_kernels(axes: _Axes, one: _Projections) -> np.ndarray:
    """Kernels of draws where both particles have one momentum:
    ``-(a.b + s_a s_b) / sqrt((a.a + s_a^2)(b.b + s_b^2))``, (A, B, rows).
    One square root of the product of norms makes ``b = a`` land on -1
    exactly."""
    k = axes.count
    kernels = _outer(one.t[:k], one.t[k:])
    np.subtract(axes.nab * (one.c * one.c), kernels, out=kernels)
    norms = _outer(one.sq[:k], one.sq[k:])
    np.sqrt(norms, out=norms)
    with np.errstate(divide="ignore", invalid="ignore"):
        kernels /= norms
    return kernels


def _crossed_terms(axes: _Axes, one: _Projections, two: _Projections):
    """What the numerators of :func:`_k12_kernels` and
    :func:`_crossed_kernels` share: ``-(a.b + g1 s1a s1b + g2 s2a s2b)``,
    (A, B, rows), and ``e = g1 g2 d``, (rows,), in units of each
    particle's ``M`` (:class:`_Projections`), which scales every numerator
    and its norm alike; also two spare buffers, (A, rows) and
    (A, B, rows)."""
    k = axes.count
    a1, b1, a2, b2 = one.t[:k], one.t[k:], two.t[:k], two.t[k:]
    g1, g2 = (np.sqrt(side.gsq) + side.c for side in (one, two))
    np.reciprocal(g1, out=g1)
    np.reciprocal(g2, out=g2)
    prod = one.y * two.y
    e = g1 * g2
    e *= (prod[0] + prod[1]) + prod[2]
    g1 *= two.c
    g2 *= one.c
    scaled = g1 * a1
    common = _outer(scaled, b1)
    np.subtract(axes.nab * (one.c * two.c), common, out=common)
    tmp = _outer(np.multiply(g2, a2, out=scaled), b2)
    common -= tmp
    return common, e, scaled, tmp


def _normalized(n, sq1, sq2, k: int, tmp) -> np.ndarray:
    """``n / sqrt(sq1_a sq2_b)`` in place, over Alice's ``sq1[:k]`` and
    Bob's ``sq2[k:]``, with ``tmp`` as the buffer of the norms."""
    norms = _outer(sq1[:k], sq2[k:], out=tmp)
    np.sqrt(norms, out=norms)
    with np.errstate(divide="ignore", invalid="ignore"):
        n /= norms
    return n


def _k12_kernels(axes: _Axes, one: _Projections, two: _Projections) -> np.ndarray:
    """``K12 = K(a, b; p1, p2)`` of draws with two momenta, Alice's axis
    on particle 1 and Bob's on particle 2, (A, B, rows).

    With ``g_i = 1/(gamma_i + 1)`` and ``d = x1.x2``, ``K12`` is
    ``-N12 / sqrt((a.a + s1a^2)(b.b + s2b^2))`` with
    ``N12 = a.b + g1 s1a s1b + g2 s2a s2b + g1 g2 d s1a s2b``, the product
    ``(a + g1 s1a x1).(b + g2 s2b x2)`` of the two ``E v/m``.
    """
    k = axes.count
    n12, e, scaled, tmp = _crossed_terms(axes, one, two)
    n12 -= _outer(np.multiply(e, one.t[:k], out=scaled), two.t[k:], out=tmp)
    return _normalized(n12, one.sq, two.sq, k, tmp)


def _crossed_kernels(axes: _Axes, one: _Projections, two: _Projections) -> np.ndarray:
    """Kernels of draws with two momenta, symmetrized over the particle
    swap: ``(K12 + K21) / 2``, (A, B, rows), with ``K12`` as in
    :func:`_k12_kernels`; ``K21`` takes ``s2a s1b`` in the last term of
    ``N12`` and swaps the norms."""
    k = axes.count
    n21, e, scaled, tmp = _crossed_terms(axes, one, two)
    n12 = n21 - _outer(np.multiply(e, one.t[:k], out=scaled), two.t[k:], out=tmp)
    n21 -= _outer(np.multiply(e, two.t[:k], out=scaled), one.t[k:], out=tmp)
    _normalized(n12, one.sq, two.sq, k, tmp)
    _normalized(n21, two.sq, one.sq, k, tmp)
    n21 += n12
    n21 *= 0.5
    return n21


def _leaf_kernels(axes: _Axes, p1: np.ndarray, p2: np.ndarray, mass: float):
    """Per-pair kernel rows of one block of draws, (pairs, rows) in the
    row-major pair order of :func:`_kernel_matrix`, and its degeneracy
    mask.  Momenta that are one array or equal bit for bit are projected
    once and take :func:`_shared_kernels`; two momenta are projected
    apiece and take :func:`_crossed_kernels`."""
    one = _project(axes, p1, mass)
    degenerate = _degenerate(one)
    if p2 is p1 or _same_bits(p1, p2):
        kernels = _shared_kernels(axes, one)
    else:
        two = _project(axes, p2, mass)
        degenerate |= _degenerate(two)
        kernels = _crossed_kernels(axes, one, two)
    return kernels.reshape(-1, kernels.shape[-1]), degenerate


def _momentum_rows(alice, bob, p1, p2, mass: float, combine=lambda k: k[0, 0]) -> np.ndarray:
    """``combine(kernels)`` for every row of two momentum arrays of shape
    (n, 3), in the projection form; degenerate rows raise.

    Both sides are fixed, (A, 3) arrays of stacked axes, or both indexed,
    ``(pool, index)`` pairs that give row ``i`` the axis
    ``pool[index[i]]`` (:func:`_block_axes`).  Momenta that are one
    array or equal bit for bit take :func:`_shared_kernels`; two momenta
    take the unsymmetrized :func:`_k12_kernels`, Alice's axis on particle 1
    and Bob's on particle 2.  A row is degenerate where one of Alice's
    axes is shorter than ``DEGENERACY_TOL`` at ``p1`` or one of Bob's at
    ``p2``.  The rows go in blocks of ``_BLOCK_ROWS``, so no temporary
    covers all rows; each kernel is a per-row value, so the blocks give
    the bytes of one whole-array pass.
    """
    shared = p2 is p1 or _same_bits(p1, p2)
    axes_of = _block_axes(alice, bob)
    out = np.empty(len(p1))
    for start in range(0, len(p1), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        axes = axes_of(rows)
        one = _project(axes, p1[rows], mass)
        if shared:
            kernels, degenerate = _shared_kernels(axes, one), _degenerate(one)
        else:
            two = _project(axes, p2[rows], mass)
            k = axes.count
            kernels = _k12_kernels(axes, one, two)
            degenerate = _degenerate(one, slice(k)) | _degenerate(two, slice(k, None))
        out[rows] = combine(_nondegenerate(kernels, degenerate))
    return out


def _sample_kernels(axes: _Axes, dist, rng: np.random.Generator, n: int) -> np.ndarray:
    """Kernel rows, one per axis pair, over ``n`` fresh momentum draws made
    at once; the columns of degenerate draws are NaN.  This is the redraw
    of :func:`_evaluate_chunk`, formed on blocks of ``_BLOCK_ROWS`` draws."""
    p1, p2 = dist.sample(rng, n)
    kernels = np.empty((axes.count * (len(axes.stacked) - axes.count), n))
    for start in range(0, n, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        q1 = p1[rows]
        block, degenerate = _leaf_kernels(axes, q1, q1 if p2 is p1 else p2[rows], dist.mass)
        block[:, degenerate] = np.nan
        kernels[:, rows] = block
    return kernels


def _redraw(axes: _Axes, dist, rng: np.random.Generator, held: list) -> int:
    """Redraw the NaN columns of the held kernel rows from the chunk stream
    until none is left; returns how many draws were redrawn.

    Each sweep draws as many momenta as there are NaN columns, in chunk
    order across the held leaves, as one block.
    """
    rejected = 0
    for _ in range(_MAX_RESAMPLE_SWEEPS):
        bad = [np.isnan(kernels[0]) for kernels in held]
        counts = [int(np.count_nonzero(mask)) for mask in bad]
        total = sum(counts)
        if total == 0:
            return rejected
        rejected += total
        fresh = _sample_kernels(axes, dist, rng, total)
        start = 0
        for kernels, mask, k in zip(held, bad, counts):
            kernels[:, mask] = fresh[:, start:start + k]
            start += k
    raise DegenerateObservableError(
        "could not draw nondegenerate momenta after "
        f"{_MAX_RESAMPLE_SWEEPS} resampling sweeps"
    )


def _evaluate_chunk(axes: _Axes, dist, seed_seq, n: int):
    """Per-pair (sum, sum of squares) over one chunk, with resampling.

    ``axes`` holds both sides' fixed axes (:class:`_Axes`).  The chunk is
    cut into the leaves of numpy's pairwise-summation tree
    (:func:`_leaf_sizes`); each leaf is drawn, its kernels formed and the
    leaf reduced on the spot, and the leaf sums are added up the same tree,
    so the sums have the bytes of ``np.sum`` over the chunk's kernel rows
    while no array of the kernel work covers the chunk.  A leaf with
    degenerate draws is held; after every first-pass draw, those draws are
    redrawn from the same chunk stream until clean (:func:`_redraw`), and
    the held leaves are reduced then.  The redraw count is reported so
    callers can surface a warning.
    """
    rng = np.random.Generator(np.random.Philox(seed_seq))
    sizes = _leaf_sizes(n)
    leaves, held = [], []
    for p1, p2 in dist.sample_blocks(rng, sizes):
        kernels, degenerate = _leaf_kernels(axes, p1, p2, dist.mass)
        if degenerate.any():
            kernels[:, degenerate] = np.nan
            held.append(len(leaves))
            leaves.append(kernels)
        else:
            leaves.append(_leaf_stats(kernels))
    rejected = _redraw(axes, dist, rng, [leaves[i] for i in held])
    for i in held:
        leaves[i] = _leaf_stats(leaves[i])
    sums, squares = _tree_sum(n, iter(leaves))
    return sums, squares, rejected


#: Worker pools by (process id, worker count), kept from call to call.
_POOLS: dict[tuple[int, int], ThreadPoolExecutor] = {}


def _pool(workers: int) -> ThreadPoolExecutor:
    """The pool of ``workers`` threads of this process, made on first use.

    Every call with the same worker count reuses the same threads, so the
    allocator keeps one arena per thread.  Threads started afresh for each
    call can start before the last call's threads have handed their arenas
    back; each such overlap adds an arena holding a chunk's memory, so the
    resident size of a run varied by ~7 MB with the timing.  The process id
    in the key gives a forked child pools of its own.  Besides the Monte
    Carlo chunks, :func:`relbell.ekert.run_protocol` draws its role streams
    and then forms its empirical threshold on the one-thread pool; no job
    on a pool may wait on a job of that same pool, since with one thread it
    would wait on itself.
    """
    key = (os.getpid(), workers)
    pool = _POOLS.get(key)
    if pool is None:
        pool = _POOLS.setdefault(key, ThreadPoolExecutor(max_workers=workers))
    return pool


def _estimate(axes, dist, samples: int, seed: int, chunk_size: int, workers: int, combine):
    """The one Monte Carlo estimator: ``combine(means, errors)`` of the
    per-pair kernel means over a momentum profile.

    ``axes`` is the (Alice, Bob) pair of axis sequences; each side is
    stacked once here into an (A, 3) array, and ``means`` and ``errors``
    follow the row-major pair order of :func:`_kernel_matrix`.  ``combine``
    maps them to the estimate's value and standard error.  The inputs are
    checked here, and this is the one place that knows each profile's
    policy: a :class:`Sharp` profile is exact (its kernels at the fixed
    momentum are the means, with zero errors), and the rest are sampled,
    with every pair on the same momentum draws and the kernel symmetrized
    over the particle swap, which changes nothing where both particles
    share one momentum.  ``samples``, ``chunk_size`` and ``workers`` must
    be integers and ``seed`` a nonnegative one.  Every chunk runs on the
    pool of ``workers`` threads; chunk streams are spawned up front and
    partial sums are merged in chunk order, so the result does not depend
    on ``workers``.  More than 1% of draws resampled adds a warning.
    """
    _check_sampling(samples, workers)
    seed = _check_seed(seed)
    if _integer(chunk_size, "chunk_size") < 1:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    axes = tuple(np.reshape(np.asarray(side, dtype=float), (len(side), 3)) for side in axes)
    rejected = 0
    if isinstance(dist, Sharp):
        frame = _frame_of(np.array([dist.momentum]), dist.mass)
        means = _nondegenerate(*_kernel_matrix(*axes, frame, frame)).reshape(-1)
        errors = np.zeros_like(means)
    else:
        sizes = _chunk_sizes(samples, chunk_size)
        jobs = zip(np.random.SeedSequence(seed).spawn(len(sizes)), sizes)
        mc_axes = _mc_axes(*axes)
        sums = np.zeros(len(axes[0]) * len(axes[1]))
        squares = np.zeros_like(sums)
        for chunk_sum, chunk_sq, chunk_rej in _pool(workers).map(
            lambda job: _evaluate_chunk(mc_axes, dist, *job), jobs
        ):
            sums += chunk_sum
            squares += chunk_sq
            rejected += chunk_rej
        means = sums / samples
        variances = np.maximum(squares - samples * means * means, 0.0) / (samples - 1)
        errors = np.sqrt(variances / samples)
    value, error = combine(means, errors)
    warning = None
    if rejected > 0.01 * samples:
        warning = (
            f"{rejected} degenerate momentum draws were resampled "
            f"({rejected / samples:.1%} of {samples} samples)"
        )
    return CorrelatorEstimate(float(value), float(error), samples, rejected, warning)


def correlator_mc(
    a_dir,
    b_dir,
    dist: MomentumDistribution,
    samples: int,
    seed: int,
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    workers: int = 1,
) -> CorrelatorEstimate:
    """Monte Carlo average of the correlation over a momentum profile.

    A :class:`~relbell.distributions.Sharp` profile has no randomness, so
    the estimate equals the fixed-momentum value with zero error.  For a
    :class:`~relbell.distributions.JointGaussian` profile the kernel is
    symmetrized over the particle swap before averaging.
    """
    return _estimate(
        ((a_dir,), (b_dir,)), dist, samples, seed, chunk_size, workers,
        lambda means, errors: (means[0], errors[0]),
    )
