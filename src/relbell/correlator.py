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

Setting ``b = a`` gives exactly -1 for any shared momentum: the pair stays
perfectly anti-correlated along a shared axis.  For two different
momenta ``K(a, a; p1, p2)`` is above -1, since the two effective axes of
``a`` point in different directions.

Every kernel is formed in one projection form, with no velocity direction
and no boosted axes.  With ``x = p/m``, ``gamma^2 = 1 + |x|^2`` and
``s_a = a.x``, the Pauli-Lubanski identity gives
``E v(a)/m = a + s_a x / (gamma + 1)`` and
``|E v(a)/m|^2 = a.a + s_a^2``, so one projection ``a.x`` per axis and
draw (:func:`_project`) carries everything:

    shared momentum:  K = -(a.b + s_a s_b) / sqrt((a.a + s_a^2)(b.b + s_b^2))

and two momenta take the product of the two ``E v/m``,
``K12 = K(a, b; p1, p2)`` (:func:`_k12_kernels`).  The projection works in
units of a scale ``M`` per row, ``y = p/M`` and ``c = m/M``, which scales
every numerator and its norm alike.  A momentum takes ``M = m`` (or its
largest component where ``|p/m|`` is huge), and a velocity is a momentum in
units of ``M = E``: ``y = beta`` and ``c = m/E = sqrt(1 - beta^2)``
(:func:`_project_velocity`).  So sampled and recorded momenta, the fixed
momentum of a :class:`Sharp` profile, and velocities (the scans,
:func:`kernel_from_beta`) share one kernel code, one degeneracy rule
(:func:`_nondegenerate`) and one block function, :func:`_leaf_kernels`.
A block whose two arrays are one array (as a correlated beam draws them)
or equal bit for bit is projected once and takes the shared form; two
arrays take ``K12`` as it is, Alice's axis on particle 1 and Bob's on
particle 2, except in the Monte Carlo, which symmetrizes it over the
particle swap (:func:`_crossed_kernels`).  Every whole-array pass is cut
into the leaves of numpy's pairwise-summation tree (:func:`_leaf_slices`),
so no temporary of the kernel work covers a whole array;
:func:`_row_kernels` is the loop over them, its axes fixed, drawn per row
from a pool, or given per row, and taken leaf by leaf.
:func:`_momentum_rows` gathers its leaves into one array; the protocol
consumes each leaf as it comes.  Momenta never round through ``beta``, so
their kernels keep full precision at any ``gamma``.  Since
``|E v(a)/m|^2 = a.a + s_a^2 >= a.a``, every finite momentum has a
defined kernel; a kernel is not finite only where the product of two
norms ``sq`` underflows, as for a transverse axis at ``|beta| = 1`` or at
a scaled row of a huge ``|p|/m``, and there every caller raises.

Averages over momentum profiles are estimated by Monte Carlo with a
splittable, counter-based generator (Philox keyed through ``SeedSequence``
spawning, one child per chunk of ``DEFAULT_CHUNK_SIZE`` draws), so results
are bitwise reproducible for a given ``(seed, samples)`` regardless of how
many worker threads evaluate the chunks.  :func:`_estimate` is the one
estimator: it checks the inputs, answers a sharp profile exactly, runs
every chunk on its caller (one worker) or the pool, merges the chunks in
order and returns the :class:`CorrelatorEstimate`; :func:`correlator_mc` and
:func:`relbell.bell.bell_average_mc` differ only in how they combine the
per-pair means and errors.  A chunk is streamed (:func:`_evaluate_chunk`):
it is cut into the leaves of numpy's pairwise-summation tree, of at most
``_BLOCK_ROWS`` draws, and each leaf is drawn through the profile's
``sample_blocks``, its kernels formed and the leaf reduced on the spot.
The leaf sums are added up the same tree, so the chunk's sums have the
bytes of ``np.sum`` over a chunk-wide kernel array that is never formed;
the protocol's empirical threshold takes its mean over the recorded
momenta the same way.
"""

from __future__ import annotations

import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .distributions import MomentumDistribution, Sharp
from .errors import DegenerateObservableError
from .kinematics import (
    _SCALED_ABOVE,
    ParticleKinematics,
    _broadcast_rows,
    _check_velocity,
    _norm_sq,
    _rest_factor,
    _same_bits,
)

#: The fixed number of draws per Monte Carlo chunk, each chunk drawn from
#: its own spawned stream (the last chunk takes the rest); a part of every
#: sampled estimate's bytes.
DEFAULT_CHUNK_SIZE = 65536

#: Most rows per leaf of numpy's pairwise-summation tree (:func:`_leaf_sizes`),
#: the one block size of the kernel work: each Monte Carlo chunk's draws and
#: every whole-array pass (:func:`_leaf_slices`), which the protocol's
#: outcome and resend passes, its empirical threshold and the velocity
#: arrays of the scans (:func:`kernel_from_beta`) go through.  A component
#: row of a leaf is 64 KiB, and its largest temporaries, the (A, rows)
#: projections and the (4, rows) CHSH kernels, 256 KiB each.  Measured on a
#: 2-vCPU Xeon host with 2 MiB of L2 per core, as the median mc_threshold op
#: over four rotations of the leaf size in one process, against leaves of
#: 8192 draws: leaves of 4096 draws took +31% at workers=2 but -1% to -2% at
#: workers=1, since twice the calls into numpy each hand the GIL between
#: the two threads; leaves of 16384 draws took +30% at workers=1 and
#: +13% to +21% at workers=2, and of 32768 +44% and +38% to +42%, since a
#: leaf's ten or so kernel temporaries then outgrow the 2 MiB L2.  It must be
#: at least numpy's own pairwise-summation block of 128 values, which
#: ``np.sum`` adds in one pass, so that each leaf is one subtree.
_BLOCK_ROWS = 8192

#: The smallest normal float (:func:`_root`).
_TINY = np.finfo(float).tiny


def _nondegenerate(kernels: np.ndarray) -> np.ndarray:
    """Raise where a kernel is not finite, else return the kernels.

    The one degeneracy rule of every kernel path: a kernel is not finite
    only where the product of its norms underflows (:func:`_root`), as at
    a transverse axis at ``|beta| = 1`` or at exactly transverse axes past
    ``|p|/m ~ 1e216`` (~1.3e131 if both are).  Adding zero in place folds
    the -0.0 of orthogonal axes at rest into 0.0.
    """
    if not np.isfinite(kernels).all():
        raise DegenerateObservableError(
            "an effective measurement axis vanished; the axis is transverse "
            "to an ultra relativistic momentum"
        )
    kernels += 0.0
    return kernels


def kernel_from_beta(a_dir, b_dir, beta1, beta2) -> np.ndarray:
    """Vectorized singlet correlation from velocity vectors.

    Accepts arrays of shape (..., 3); degenerate rows raise.  Velocities
    with |beta| = 1 are allowed as a limit provided the axis keeps a
    longitudinal component.
    """
    shape, (a, b, x1, x2) = _broadcast_rows(a_dir, b_dir, beta1, beta2)
    # two single axes are fixed sides; otherwise both sides are per row,
    # component-major (1, 3, rows)
    fixed = np.ndim(a_dir) == np.ndim(b_dir) == 1
    sides = (a[:1], b[:1]) if fixed else (a.T[None], b.T[None])
    return _momentum_rows(*sides, x1, x2, None).reshape(shape)[()]


def correlator_integrand(
    a_dir, b_dir, kin1: ParticleKinematics, kin2: ParticleKinematics
) -> float:
    """Correlation K(a, b; p1, p2) at two fixed single-particle momenta.

    Swapping the particles, ``(b, a, kin2, kin1)``, gives the same bytes:
    ``K12`` adds its terms in particle order, so the particle whose
    (velocity, axis) comes first in lexicographic order goes first.
    """
    one = (*kin1.beta_vec.tolist(), *np.ravel(np.asarray(a_dir, dtype=float)).tolist())
    two = (*kin2.beta_vec.tolist(), *np.ravel(np.asarray(b_dir, dtype=float)).tolist())
    if two < one:
        (a_dir, kin1), (b_dir, kin2) = (b_dir, kin2), (a_dir, kin1)
    return float(kernel_from_beta(a_dir, b_dir, kin1.beta_vec, kin2.beta_vec))


def correlator_sharp(a_dir, b_dir, beta_vec) -> float:
    """Correlation when both particles share one velocity ``beta_vec``;
    requires |beta| < 1."""
    b = _check_velocity(beta_vec)
    return float(kernel_from_beta(a_dir, b_dir, b, b))


@dataclass(frozen=True)
class CorrelatorEstimate:
    """Monte Carlo estimate with its one-sigma standard error over
    ``samples`` draws, none for an exact :class:`Sharp` value.  No draw is
    redrawn, so ``rejected`` is always 0; it stays because every Monte
    Carlo record of the command line carries it and its readers take it."""

    value: float
    standard_error: float
    samples: int
    rejected: int = 0


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
    ``_BLOCK_ROWS`` values.  A leaf of at most that many values is one
    subtree, so its ``np.sum`` is that subtree's sum."""
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
    """Both sides' axes, as the kernels use them: ``stacked`` holds
    Alice's ``count`` axes and then Bob's, (A, 3, 1) for fixed axes or
    (A, 3, rows) for per-row ones; ``aa`` is each axis's ``a.a``, (A, 1)
    or (A, rows), and ``nab`` is ``-(a.b)`` for every (Alice, Bob) pair,
    (count, B, 1) or (count, B, rows)."""

    stacked: np.ndarray
    count: int
    aa: np.ndarray
    nab: np.ndarray


def _mc_axes(alice: np.ndarray, bob: np.ndarray) -> _Axes:
    """The :class:`_Axes` of two sides: fixed, (A, 3) and (B, 3), or per
    row, (A, 3, rows) and (B, 3, rows)."""
    if alice.ndim == 2:
        alice, bob = alice[:, :, None], bob[:, :, None]
    stacked = np.concatenate((alice, bob))
    prod = alice[:, None] * bob[None]
    nab = -((prod[:, :, 0] + prod[:, :, 1]) + prod[:, :, 2])
    return _Axes(stacked, len(alice), _norm_sq(stacked.swapaxes(0, 1)), nab)


def _block_axes(alice, bob):
    """A function of a block's ``rows`` that gives the block's
    :class:`_Axes`: a leaf's slice, or the index array of the rows that
    :func:`_row_kernels`' ``where`` mask selects in the leaf.  Two fixed
    sides, (A, 3) arrays, give the same axes to every block.  Two per-row
    sides, component-major (A, 3, n) arrays, give each block its own rows,
    with ``a.a`` and ``-(a.b)`` formed on them.
    Two indexed sides, ``(pool, index)`` pairs, give one axis per side and
    row; each pool axis's ``a.a`` and each pool pair's ``-(a.b)`` are formed
    once, on the pools, and gathered per row.  The indices are taken one
    block at a time, in numpy's own index type: the block's index into the
    stacked pools per side and into the flattened pair table per row are
    formed on the block, so no index array covers the whole run."""
    if not isinstance(alice, tuple):
        if alice.ndim == 3:
            return lambda rows: _mc_axes(alice[..., rows], bob[..., rows])
        fixed = _mc_axes(alice, bob)
        return lambda rows: fixed
    (pool1, index1), (pool2, index2) = alice, bob
    table = _mc_axes(pool1, pool2)
    xyz = table.stacked[:, :, 0].T.copy()
    aa = table.aa[:, 0]
    nab = table.nab.reshape(-1)

    def gathered(rows) -> _Axes:
        block = np.stack((index1[rows], index2[rows]), dtype=np.intp)
        pair = block[0] * len(pool2)
        pair += block[1]
        block[1] += len(pool1)
        return _Axes(xyz.take(block, axis=1).transpose(1, 0, 2), 1, aa.take(block),
                     nab.take(pair)[None, None])

    return gathered


class _Projections(NamedTuple):
    """One particle's per-draw terms (:func:`_project`), in units of a scale
    ``M`` that is the mass ``m`` unless the row overflows, or the energy
    ``E`` for a velocity: ``y = p/M`` (3, rows), ``c = m/M`` (1.0, or one
    per row), the projections
    ``t = a.y`` (A, rows), ``sq = c^2 a.a + t^2`` (A, rows), which is
    ``c^2 |E v(a)/m|^2``, and ``gsq = c^2 + |y|^2`` (rows,), which is
    ``c^2 gamma^2``."""

    y: np.ndarray
    c: float | np.ndarray
    t: np.ndarray
    sq: np.ndarray
    gsq: np.ndarray


def _project(axes: _Axes, p: np.ndarray, mass: float | None) -> _Projections:
    """The :class:`_Projections` of momenta ``p``, (rows, 3), or of
    velocities when ``mass`` is None (:func:`_project_velocity`).

    With ``M = m`` (so ``c = 1``) this is ``s = a.p/m`` and
    ``gamma^2 = 1 + |p/m|^2``.  Where ``|p/m|^2`` reaches
    ``_SCALED_ABOVE`` (or overflows) the leaf takes a per-row ``M``: the
    mass on the other rows, whose bytes do not change, and ``2^-180`` times
    the larger of the mass and the largest ``|p_k|`` on those, so no term
    overflows and ``c^2``, a transverse axis's norm, underflows late.
    """
    if mass is None:
        return _project_velocity(axes, p)
    y = np.empty((3, len(p)))
    with np.errstate(over="ignore"):
        np.divide(p.T, mass, out=y)
        gsq = _norm_sq(y)
    c = 1.0
    if not gsq.max() < _SCALED_ABOVE:  # NaN too
        big = np.abs(p).max(axis=1)
        scale = np.where(gsq < _SCALED_ABOVE, mass, np.maximum(big, mass) * 2.0**-180)
        np.divide(p.T, scale, out=y)
        c = mass / scale
        gsq = _norm_sq(y)
    return _projections(axes, y, c, gsq)


def _project_velocity(axes: _Axes, beta: np.ndarray) -> _Projections:
    """The :class:`_Projections` of velocities ``beta``, (rows, 3): momenta
    in units of ``M = E``, so ``y = beta`` and ``c = m/E``, one per row,
    from :func:`relbell.kinematics._rest_factor`."""
    y = beta.T.copy()
    return _projections(axes, y, _rest_factor(y), _norm_sq(y))


def _projections(axes: _Axes, y: np.ndarray, c, gsq: np.ndarray) -> _Projections:
    """The :class:`_Projections` of ``y`` and ``c`` in any units ``M``:
    ``t = a.y``, ``sq = c^2 a.a + t^2``, and ``gsq``, given as ``|y|^2``,
    with ``c^2`` added in place."""
    gsq += c * c
    a = axes.stacked
    t = a[:, 0] * y[0]
    sq = np.multiply(a[:, 1], y[1])
    t += sq
    t += np.multiply(a[:, 2], y[2], out=sq)
    np.multiply(t, t, out=sq)
    sq += axes.aa * (c * c)
    return _Projections(y, c, t, sq, gsq)


def _root(norms: np.ndarray) -> np.ndarray:
    """The square roots of products of two norms, in place.  A product
    below the smallest normal float has lost digits to underflow, so it is
    taken as 0 and its kernel is not finite (:func:`_nondegenerate`); the
    mask is formed only for a block where some product is that small."""
    if norms.min() < _TINY:
        norms[norms < _TINY] = 0.0
    return np.sqrt(norms, out=norms)


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
    return _normalized(kernels, one.sq, one.sq, k, None)


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
    Bob's ``sq2[k:]``, with ``tmp`` as the buffer of the norms (a new
    array when it is None)."""
    norms = _root(_outer(sq1[:k], sq2[k:], out=tmp))
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


def _leaf_kernels(axes: _Axes, p1: np.ndarray, p2: np.ndarray, mass: float | None,
                  pair=_crossed_kernels) -> np.ndarray:
    """The kernels of one block of rows, (pairs, rows) in row-major (Alice,
    Bob) pair order, for every caller.  Momenta, or velocities when ``mass``
    is None, that are one array or equal bit for bit are projected once and
    take :func:`_shared_kernels`; two arrays are projected apiece and take
    ``pair``, :func:`_k12_kernels` everywhere but in the Monte Carlo.  A
    kernel that is not finite raises (:func:`_nondegenerate`)."""
    one = _project(axes, p1, mass)
    if p2 is p1 or _same_bits(p1, p2):
        kernels = _shared_kernels(axes, one)
    else:
        kernels = pair(axes, one, _project(axes, p2, mass))
    return _nondegenerate(kernels.reshape(-1, kernels.shape[-1]))


def _leaf_slices(n: int) -> list[slice]:
    """The leaves of :func:`_leaf_sizes` as consecutive slices of ``n``
    rows, the one blocking rule of every whole-array pass.  An empty array
    has no leaf, so it forms no block."""
    sizes = _leaf_sizes(n) if n else []
    return [slice(end - size, end) for size, end in zip(sizes, accumulate(sizes))]


def _row_kernels(alice, bob, p1, p2, mass: float | None, combine=lambda k: k[0], where=None):
    """``(rows, combine(kernels))`` for each leaf (:func:`_leaf_slices`) of
    two momentum arrays of shape (n, 3), or of two velocity arrays when
    ``mass`` is None, with the (pairs, rows) kernels of :func:`_leaf_kernels`
    on :func:`_k12_kernels`.  The default ``combine`` gives the first
    pair's kernels, a 1-D view the caller may write to.

    Both sides are fixed, (A, 3) arrays of stacked axes, both per row,
    component-major (A, 3, n) arrays, or both indexed, ``(pool, index)``
    pairs that give row ``i`` the axis ``pool[index[i]]``
    (:func:`_block_axes`).  ``where``, a boolean mask of the n rows,
    selects rows: each leaf then gives only its selected rows, in order, as
    an index array, and a leaf with none gives nothing.  The momenta of
    those rows are gathered with ``take``, which copies whole rows of an
    (n, 3) array at several times the speed of fancy indexing.  Each kernel
    is a per-row value, so the leaves give the bytes of one whole-array
    pass over the selected rows, and no temporary covers more rows than a
    leaf.
    """
    axes_of = _block_axes(alice, bob)

    def rows_of(p, rows):
        return p[rows] if where is None else p.take(rows, axis=0)

    for rows in _leaf_slices(len(p1)):
        if where is not None:
            rows = rows.start + np.flatnonzero(where[rows])
            if not rows.size:
                continue
        one = rows_of(p1, rows)
        two = one if p2 is p1 else rows_of(p2, rows)
        yield rows, combine(_leaf_kernels(axes_of(rows), one, two, mass, _k12_kernels))


def _momentum_rows(alice, bob, p1, p2, mass: float | None, combine=lambda k: k[0]) -> np.ndarray:
    """``combine(kernels)`` for every row, one array of the leaves of
    :func:`_row_kernels`."""
    out = np.empty(len(p1))
    for rows, values in _row_kernels(alice, bob, p1, p2, mass, combine):
        out[rows] = values
    return out


def _evaluate_chunk(axes: _Axes, dist, seed_seq, n: int):
    """Per-pair (sums, sums of squares) over one chunk, a (2, pairs) array.

    ``axes`` holds both sides' fixed axes (:class:`_Axes`).  The chunk is
    cut into the leaves of numpy's pairwise-summation tree
    (:func:`_leaf_sizes`); each leaf is drawn, its kernels formed and the
    leaf reduced on the spot, and the leaf sums are added up the same tree,
    so the sums have the bytes of ``np.sum`` over the chunk's kernel rows
    while no array of the kernel work covers the chunk.
    """
    rng = np.random.Generator(np.random.Philox(seed_seq))
    leaves = (_leaf_stats(_leaf_kernels(axes, p1, p2, dist.mass))
              for p1, p2 in dist.sample_blocks(rng, _leaf_sizes(n)))
    return _tree_sum(n, leaves)


#: Worker pools by (process id, worker count), kept from call to call.
_POOLS: dict[tuple[int, int], ThreadPoolExecutor] = {}


def _pool(workers: int) -> ThreadPoolExecutor:
    """The pool of ``workers`` threads of this process, made on first use.

    Every call with the same worker count reuses the same threads, so the
    allocator keeps one arena per thread.  Threads started afresh for each
    call can start before the last call's threads have handed their arenas
    back; each such overlap adds an arena holding a chunk's memory, so the
    resident size of a run varied by ~7 MB with the timing.  The process id
    in the key gives a forked child pools of its own.  A one-worker Monte
    Carlo runs on its caller (:func:`_estimate`), so the one-thread pool
    serves :func:`relbell.ekert.run_protocol`'s role draws and corrected
    threshold alone, and no job on it waits on another: the threshold job
    reads the bases job's result, which the one thread finished first.
    """
    key = (os.getpid(), workers)
    pool = _POOLS.get(key)
    if pool is None:
        pool = _POOLS.setdefault(key, ThreadPoolExecutor(max_workers=workers))
    return pool


def _estimate(axes, dist, samples: int, seed: int, workers: int, combine):
    """The one Monte Carlo estimator: ``combine(means, errors)`` of the
    per-pair kernel means over a momentum profile.

    ``axes`` is the (Alice, Bob) pair of axis sequences; each side is
    stacked once here into an (A, 3) array, and ``means`` and ``errors``
    follow the row-major (Alice, Bob) pair order.  ``combine`` maps them to
    the estimate's value and standard error.  The inputs are checked here,
    and this is the one place that knows each profile's policy: a
    :class:`Sharp` profile is exact (its kernels at the fixed momentum,
    projected with its mass, are the means, with zero errors and no
    samples), and the rest are sampled, with every pair on the same
    momentum draws and the kernel symmetrized over the particle swap,
    which changes nothing where both particles share one momentum.  No
    draw is redrawn: a kernel that is not finite raises
    (:func:`_nondegenerate`), so ``rejected`` is 0.  ``samples`` and
    ``workers`` must be integers and ``seed`` a nonnegative one.  The draws
    are cut into chunks of ``DEFAULT_CHUNK_SIZE``, run on the caller for one
    worker and else on the pool of ``workers`` threads; chunk streams are
    spawned up front and partial sums are merged in chunk order, so the
    result depends on ``(seed, samples)`` alone and not on ``workers``.
    """
    _check_sampling(samples, workers)
    seed = _check_seed(seed)
    axes = tuple(np.reshape(np.asarray(side, dtype=float), (len(side), 3)) for side in axes)
    mc_axes = _mc_axes(*axes)
    if isinstance(dist, Sharp):
        p = np.array([dist.momentum])
        means = _leaf_kernels(mc_axes, p, p, dist.mass)[:, 0]
        errors = np.zeros_like(means)
        samples = 0
    else:
        full, rest = divmod(samples, DEFAULT_CHUNK_SIZE)
        sizes = [DEFAULT_CHUNK_SIZE] * full + ([rest] if rest else [])
        jobs = zip(np.random.SeedSequence(seed).spawn(len(sizes)), sizes)
        sums = np.zeros(len(axes[0]) * len(axes[1]))
        squares = np.zeros_like(sums)
        for chunk_sum, chunk_sq in (map if workers == 1 else _pool(workers).map)(
            lambda job: _evaluate_chunk(mc_axes, dist, *job), jobs
        ):
            sums += chunk_sum
            squares += chunk_sq
        means = sums / samples
        variances = np.maximum(squares - samples * means * means, 0.0) / (samples - 1)
        errors = np.sqrt(variances / samples)
    value, error = combine(means, errors)
    return CorrelatorEstimate(float(value), float(error), samples)


def correlator_mc(
    a_dir,
    b_dir,
    dist: MomentumDistribution,
    samples: int,
    seed: int,
    *,
    workers: int = 1,
) -> CorrelatorEstimate:
    """Monte Carlo average of the correlation over a momentum profile.

    A :class:`~relbell.distributions.Sharp` profile has no randomness, so
    the estimate equals the fixed-momentum value with zero error and no
    samples.  For a :class:`~relbell.distributions.JointGaussian` profile
    the kernel is symmetrized over the particle swap before averaging.  A
    draw whose kernel is not finite raises :class:`DegenerateObservableError`.
    The estimate is bitwise reproducible for a given ``(seed, samples)``,
    whatever ``workers``.
    """
    return _estimate(
        ((a_dir,), (b_dir,)), dist, samples, seed, workers,
        lambda means, errors: (means[0], errors[0]),
    )
