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

Every kernel in the package comes from :func:`_kernel_matrix`, which works
on the component core of :mod:`relbell.kinematics`: it takes one frame per
particle, boosts each axis once as three contiguous x/y/z arrays, and adds
the dot products and squared norms component by component, left to right.
Momentum arrays that are equal bit for bit (as for a correlated beam) get
one frame, built once and used for both particles.  The Monte Carlo draws
the momenta of a chunk at once and forms their frames and kernels on
blocks of ``_BLOCK_ROWS`` draws, which keeps the temporaries in cache.

Averages over momentum profiles are estimated by Monte Carlo with a
splittable, counter-based generator (Philox keyed through ``SeedSequence``
spawning, one child per fixed-size chunk), so results are bitwise
reproducible for a given ``(seed, samples, chunk_size)`` regardless of how
many worker threads evaluate the chunks.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distributions import JointGaussian, MomentumDistribution, Sharp
from .errors import DegenerateObservableError
from .kinematics import (
    DEGENERACY_TOL,
    ParticleKinematics,
    _boost,
    _check_velocity,
    _components,
    _dot,
    _frame,
    _frame_pair,
    _norm_sq,
    _velocity,
)

#: Default number of momentum samples evaluated per RNG chunk.
DEFAULT_CHUNK_SIZE = 65536

#: Momentum draws per block of kernel work within a chunk.  A component
#: array of a block is 32 KiB, so a block's temporaries stay in the per-core
#: cache and the allocator reuses them from block to block.  Blocks of 16384
#: draws or whole chunks ran faster on an idle 2-vCPU host, but under load
#: from other tenants their Monte Carlo op times varied three times as much
#: from run to run, and their peak memory varied by ~10 MB.
_BLOCK_ROWS = 4096

#: Cap on resampling sweeps for degenerate draws within one chunk.
_MAX_RESAMPLE_SWEEPS = 100


_DEGENERACY_TOL_SQ = DEGENERACY_TOL * DEGENERACY_TOL


def _kernel_matrix(alice_axes, bob_axes, frame1, frame2):
    """Singlet kernel for every (Alice, Bob) axis pair, with a degeneracy mask.

    ``alice_axes`` and ``bob_axes`` are sequences of axes, each a component
    triple: three scalars for a fixed axis or three arrays for per-row axes.
    Alice's axes are boosted once in ``frame1``, Bob's in ``frame2``.
    Returns ``(kernels, degenerate)``: ``kernels`` has shape
    ``(len(alice_axes), len(bob_axes)) + rows``, with ``rows`` the broadcast
    shape of the axes and frames, and ``degenerate`` marks the rows where
    any effective axis is shorter than ``DEGENERACY_TOL``.  The kernels of
    those rows are meaningless; raising on them or resampling them is the
    caller's policy.  Normalizing by one square root of the product of
    squared norms makes the shared-axis case land on -1 exactly.
    """
    v1 = [_boost(axis, frame1) for axis in alice_axes]
    v2 = [_boost(axis, frame2) for axis in bob_axes]
    sq1 = [_norm_sq(v) for v in v1]
    sq2 = [_norm_sq(v) for v in v2]
    rows = np.broadcast_shapes(*(np.shape(sq) for sq in sq1 + sq2))
    degenerate = np.zeros(rows, dtype=bool)
    for sq in sq1 + sq2:
        degenerate |= sq < _DEGENERACY_TOL_SQ
    kernels = np.empty((len(v1), len(v2)) + rows)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i, (va, sa) in enumerate(zip(v1, sq1)):
            for j, (vb, sb) in enumerate(zip(v2, sq2)):
                # the Ellipsis keeps a 0-d row a writable view
                out = kernels[i, j, ...]
                np.divide(-_dot(va, vb), np.sqrt(sa * sb), out=out)
    return kernels, degenerate


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


def kernel_from_beta(a_dir, b_dir, beta1, beta2) -> np.ndarray:
    """Vectorized singlet correlation from velocity vectors.

    Accepts arrays of shape (..., 3); degenerate rows raise.  Velocities
    with |beta| = 1 are allowed as a limit provided the axis keeps a
    longitudinal component.
    """
    axes = (_components(a_dir),), (_components(b_dir),)
    return _nondegenerate(*_kernel_matrix(*axes, *_frame_pair(beta1, beta2)))[0, 0]


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


def _check_sampling(samples: int, workers: int = 1, name: str = "samples") -> None:
    """Range checks on the Monte Carlo inputs, shared by every estimator,
    the protocol's configured threshold and the command line."""
    if samples < 100:
        raise ValueError(f"samples must be >= 100, got {name} = {samples}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def _chunk_sizes(samples: int, chunk_size: int) -> list[int]:
    full, rest = divmod(samples, chunk_size)
    return [chunk_size] * full + ([rest] if rest else [])


def _sample_kernels(axes, dist, rng: np.random.Generator, n: int) -> np.ndarray:
    """Kernel rows, one per axis pair, over ``n`` fresh momentum draws.

    Columns of degenerate draws are NaN so the caller can resample them.
    The draws are made at once; the frames and kernels are formed on
    blocks of ``_BLOCK_ROWS`` draws, so the temporaries of a block stay in
    cache and are reused instead of mapping fresh pages for every chunk.
    Each kernel is a per-row value, so the blocks give the bytes of one
    whole-chunk pass.
    """
    p1, p2 = dist.sample(rng, n)
    kernels = np.empty((len(axes[0]) * len(axes[1]), n))
    for start in range(0, n, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        frame1, frame2 = _frame_pair(p1[rows], p2[rows], dist.mass)
        block, degenerate = _kernel_matrix(*axes, frame1, frame2)
        if isinstance(dist, JointGaussian):
            # symmetrize over the particle swap, in place
            swapped, degenerate_swapped = _kernel_matrix(*axes, frame2, frame1)
            block += swapped
            block *= 0.5
            degenerate |= degenerate_swapped
        block = block.reshape(len(kernels), -1)
        block[:, degenerate] = np.nan
        kernels[:, rows] = block
    return kernels


def _evaluate_chunk(axes, dist, seed_seq, n: int):
    """Per-pair (sum, sum of squares) over one chunk, with resampling.

    Degenerate momentum draws are redrawn from the same chunk stream until
    clean; the redraw count is reported so callers can surface a warning.
    """
    rng = np.random.Generator(np.random.Philox(seed_seq))
    kernels = _sample_kernels(axes, dist, rng, n)
    rejected = 0
    for _ in range(_MAX_RESAMPLE_SWEEPS):
        bad = np.isnan(kernels[0])
        count = int(np.count_nonzero(bad))
        if count == 0:
            break
        rejected += count
        kernels[:, bad] = _sample_kernels(axes, dist, rng, count)
    else:
        raise DegenerateObservableError(
            "could not draw nondegenerate momenta after "
            f"{_MAX_RESAMPLE_SWEEPS} resampling sweeps"
        )
    sums = kernels.sum(axis=1)
    kernels *= kernels
    return sums, kernels.sum(axis=1), rejected


#: Worker pools by (process id, worker count), kept from call to call.
_POOLS: dict[tuple[int, int], ThreadPoolExecutor] = {}


def _pool(workers: int) -> ThreadPoolExecutor:
    """The pool of ``workers`` threads of this process, made on first use.

    Every call with the same worker count reuses the same threads, so the
    allocator keeps one arena per thread.  Threads started afresh for each
    call can start before the last call's threads have handed their arenas
    back; each such overlap adds an arena holding a chunk's memory, so the
    resident size of a run varied by ~7 MB with the timing.  The process id
    in the key gives a forked child pools of its own.
    """
    key = (os.getpid(), workers)
    pool = _POOLS.get(key)
    if pool is None:
        pool = _POOLS.setdefault(key, ThreadPoolExecutor(max_workers=workers))
    return pool


def _mc_means(axes, dist, samples: int, seed: int, chunk_size: int, workers: int):
    """Chunked Monte Carlo means and standard errors for several axis pairs.

    ``axes`` is the (Alice, Bob) pair of axis lists of :func:`_kernel_matrix`;
    results follow its row-major pair order.  This is the one place that
    knows each profile's policy: a :class:`Sharp` profile is exact (its
    kernels at the fixed momentum are the means, with zero errors), and
    the rest are sampled, with every pair on the same momentum draws and a
    :class:`JointGaussian` kernel symmetrized over the particle swap.
    Chunk streams are spawned up front and partial sums are combined in
    chunk order, so the result does not depend on ``workers``.  Callers
    run :func:`_check_sampling` first.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    if isinstance(dist, Sharp):
        frame = _frame(_velocity(_components(dist.momentum), dist.mass))
        kernels = _nondegenerate(*_kernel_matrix(*axes, frame, frame)).reshape(-1)
        return kernels, np.zeros_like(kernels), 0
    sizes = _chunk_sizes(samples, chunk_size)
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    jobs = list(zip(children, sizes))
    if workers > 1:
        results = list(
            _pool(workers).map(lambda job: _evaluate_chunk(axes, dist, job[0], job[1]), jobs)
        )
    else:
        results = [_evaluate_chunk(axes, dist, ss, n) for ss, n in jobs]

    pair_count = len(axes[0]) * len(axes[1])
    sums = np.zeros(pair_count)
    squares = np.zeros(pair_count)
    rejected = 0
    for chunk_sum, chunk_sq, chunk_rej in results:
        sums += chunk_sum
        squares += chunk_sq
        rejected += chunk_rej
    means = sums / samples
    variances = np.maximum(squares - samples * means * means, 0.0) / (samples - 1)
    errors = np.sqrt(variances / samples)
    return means, errors, rejected


def _rejection_warning(rejected: int, samples: int) -> str | None:
    if rejected > 0.01 * samples:
        return (
            f"{rejected} degenerate momentum draws were resampled "
            f"({rejected / samples:.1%} of {samples} samples)"
        )
    return None


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
    _check_sampling(samples, workers)
    means, errors, rejected = _mc_means(
        ((_components(a_dir),), (_components(b_dir),)), dist, samples, seed, chunk_size, workers
    )
    return CorrelatorEstimate(
        value=float(means[0]),
        standard_error=float(errors[0]),
        samples=samples,
        rejected=rejected,
        warning=_rejection_warning(rejected, samples),
    )
