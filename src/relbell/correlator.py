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

Every kernel in the package comes from :func:`_pair_kernels`, on axes
boosted by :func:`_boosted` with the component core of
:mod:`relbell.kinematics`: a side's axes are stacked into one array and
boosted in one broadcast pass per frame, and all (Alice, Bob) kernels come
from one product, three adds, one square root and one division; every
operation is elementwise and in the order of the ``np.sum`` form, so the
bytes match it.  :func:`_kernel_matrix` boosts Alice's side in one frame
and Bob's in another; the Monte Carlo (:func:`_swap_kernels`) stacks both
sides' axes and boosts them once per frame.  Momentum arrays that are one
array (as a correlated beam draws them) or equal bit for bit get one
frame, used for both particles.  Callers that work on whole arrays
(:func:`_kernel_rows`: the protocol run and the velocity scans) go
through the shared block loop in blocks of ``_ARRAY_BLOCK_ROWS`` rows, so
no temporary of the kernel work covers a whole array.  A side of
:func:`_kernel_rows` is fixed (one set of axes for every row) or indexed
(a pool of axes and one pool index per row); an indexed side is gathered
block by block, so per-row axes never fill a whole-array copy either.

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
)

#: Default number of momentum samples evaluated per RNG chunk.
DEFAULT_CHUNK_SIZE = 65536

#: Most draws per leaf of a Monte Carlo chunk (see :func:`_leaf_sizes`).  It
#: must be at least 128, numpy's own pairwise-summation block, for a leaf's
#: ``np.sum`` to be a subtree of the chunk's.  A component row of a leaf is
#: 64 KiB, and its largest temporaries, a side's boosted axes and the
#: (2, 2, 3, rows) product of the CHSH kernels, 768 KiB each.  In three
#: rotations of 20 s mc_threshold runs on a 2-vCPU host shared with other
#: tenants, leaves of 8192 draws gave op_p50_s 0.11-0.17 s at a peak RSS of
#: 56.8-57.0 MB, leaves of 4096 draws 0.14-0.18 s at 51.0-51.2 MB, and the
#: earlier path (a chunk's momenta and kernels drawn and stored at once,
#: formed in blocks of 4096) 0.16-0.25 s at 57.1 MB.
_BLOCK_ROWS = 8192

#: Rows per block for callers that work on whole arrays (the protocol's
#: outcome kernels and threshold, the scans).  On a 2-vCPU host a 2^17-pair
#: protocol run took 10-20% longer in blocks of 4096 rows than of 16384,
#: and in one whole-array block its tracemalloc peak quadrupled (65-70 MiB
#: against 15-16, honest or half attacked, with the threshold formed on the
#: pool thread beside the outcome kernels).
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


def _swap_kernels(axes, count: int, frame1, frame2):
    """Per-pair kernel rows of one block of draws, symmetrized over the
    particle swap, and the block's degeneracy mask.

    ``axes`` is both sides' fixed axes stacked, Alice's ``count`` first,
    so each frame boosts them in one pass: one pass when the two particles
    share a frame, two otherwise.  Where the frames differ the kernel is
    the mean of Alice in ``frame1`` against Bob in ``frame2`` and of the
    swap; with one frame the swap changes nothing, and one product serves.
    Returns (pairs, rows) kernels in the row-major pair order of
    :func:`_kernel_matrix`.
    """
    v1, sq1 = _boosted(axes, frame1)
    degenerate = _short(sq1)
    if frame2 is frame1:
        kernels = _pair_kernels(v1[:count], sq1[:count], v1[count:], sq1[count:])
    else:
        v2, sq2 = _boosted(axes, frame2)
        degenerate |= _short(sq2)
        kernels = _pair_kernels(v1[:count], sq1[:count], v2[count:], sq2[count:])
        kernels += _pair_kernels(v2[:count], sq2[:count], v1[count:], sq1[count:])
        kernels *= 0.5
    return kernels.reshape(-1, kernels.shape[-1]), degenerate


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


def _kernel_rows(alice, bob, x1, x2, mass=None, combine=lambda k: k[0, 0]) -> np.ndarray:
    """``combine(kernels)`` for every row of two arrays of shape (n, 3),
    velocities or, when ``mass`` is given, momenta; degenerate rows raise.

    Each side is fixed, an (A, 3) array of axes stacked as for
    :func:`_kernel_matrix`, or indexed, a ``(pool, index)`` pair that gives
    row ``i`` the axis ``pool[index[i]]``.  The rows go through the shared
    block loop in blocks of ``_ARRAY_BLOCK_ROWS``, and an indexed side's
    axes are gathered per block as one (1, 3, rows) array, so no per-row
    axis array covers all rows.  Each kernel is a per-row value, so the
    blocks give the bytes of one whole-array pass.
    """
    out = np.empty(len(x1))
    for rows, frame1, frame2 in _frame_blocks(x1, x2, mass, _ARRAY_BLOCK_ROWS):
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


def _sample_kernels(axes, count: int, dist, rng: np.random.Generator, n: int) -> np.ndarray:
    """Kernel rows, one per axis pair, over ``n`` fresh momentum draws made
    at once; the columns of degenerate draws are NaN.  This is the redraw
    of :func:`_evaluate_chunk`, formed on blocks of ``_BLOCK_ROWS`` draws."""
    p1, p2 = dist.sample(rng, n)
    kernels = np.empty((count * (len(axes) - count), n))
    for rows, frame1, frame2 in _frame_blocks(p1, p2, dist.mass, _BLOCK_ROWS):
        block, degenerate = _swap_kernels(axes, count, frame1, frame2)
        block[:, degenerate] = np.nan
        kernels[:, rows] = block
    return kernels


def _redraw(axes, count: int, dist, rng: np.random.Generator, held: list) -> int:
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
        fresh = _sample_kernels(axes, count, dist, rng, total)
        start = 0
        for kernels, mask, k in zip(held, bad, counts):
            kernels[:, mask] = fresh[:, start:start + k]
            start += k
    raise DegenerateObservableError(
        "could not draw nondegenerate momenta after "
        f"{_MAX_RESAMPLE_SWEEPS} resampling sweeps"
    )


def _evaluate_chunk(axes, count: int, dist, seed_seq, n: int):
    """Per-pair (sum, sum of squares) over one chunk, with resampling.

    ``axes`` is both sides' fixed axes stacked, Alice's ``count`` first.
    The chunk is cut into the leaves of numpy's pairwise-summation tree
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
        (_, frame1, frame2), = _frame_blocks(p1, p2, dist.mass, len(p1))
        kernels, degenerate = _swap_kernels(axes, count, frame1, frame2)
        if degenerate.any():
            kernels[:, degenerate] = np.nan
            held.append(len(leaves))
            leaves.append(kernels)
        else:
            leaves.append(_leaf_stats(kernels))
    rejected = _redraw(axes, count, dist, rng, [leaves[i] for i in held])
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
    Carlo chunks, :func:`relbell.ekert.run_protocol` forms its empirical
    threshold on the one-thread pool; no job on a pool may wait on a job of
    that same pool, since with one thread it would wait on itself.
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
        stacked = np.concatenate(axes)
        sums = np.zeros(len(axes[0]) * len(axes[1]))
        squares = np.zeros_like(sums)
        for chunk_sum, chunk_sq, chunk_rej in _pool(workers).map(
            lambda job: _evaluate_chunk(stacked, len(axes[0]), dist, *job), jobs
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
