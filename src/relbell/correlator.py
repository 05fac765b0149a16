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

Averages over momentum profiles are estimated by Monte Carlo with a
splittable, counter-based generator (Philox keyed through ``SeedSequence``
spawning, one child per fixed-size chunk), so results are bitwise
reproducible for a given ``(seed, samples, chunk_size)`` regardless of how
many worker threads evaluate the chunks.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distributions import JointGaussian, MomentumDistribution, Sharp
from .errors import DegenerateObservableError, DomainError
from .kinematics import (
    DEGENERACY_TOL,
    ParticleKinematics,
    beta_from_momentum,
    boosted_spin_axis,
)

#: Default number of momentum samples evaluated per RNG chunk.
DEFAULT_CHUNK_SIZE = 65536

#: Cap on resampling sweeps for degenerate draws within one chunk.
_MAX_RESAMPLE_SWEEPS = 100


_DEGENERACY_TOL_SQ = DEGENERACY_TOL * DEGENERACY_TOL


def _kernel_matrix(alice_dirs, bob_dirs, beta1, beta2):
    """Singlet kernel for every (Alice, Bob) axis pair, with a degeneracy mask.

    ``alice_dirs`` and ``bob_dirs`` are sequences of lab axes, each of shape
    (3,) or (..., 3) for per-row axes; every axis is boosted once with its
    side's velocity array.  Returns ``(kernels, degenerate)``: ``kernels``
    has shape ``(len(alice_dirs), len(bob_dirs)) + rows``, with ``rows`` the
    broadcast shape of the axes and velocities, and ``degenerate`` marks the
    rows where any effective axis is shorter than ``DEGENERACY_TOL``.  The
    kernels of those rows are meaningless; raising on them or resampling
    them is the caller's policy.  Normalizing by one square root of the
    product of squared norms makes the shared-axis case land on -1 exactly.
    """
    v1 = [boosted_spin_axis(a_dir, beta1) for a_dir in alice_dirs]
    v2 = [boosted_spin_axis(b_dir, beta2) for b_dir in bob_dirs]
    sq1 = [np.sum(v * v, axis=-1) for v in v1]
    sq2 = [np.sum(v * v, axis=-1) for v in v2]
    rows = np.broadcast_shapes(*(sq.shape for sq in sq1 + sq2))
    degenerate = np.zeros(rows, dtype=bool)
    for sq in sq1 + sq2:
        degenerate |= sq < _DEGENERACY_TOL_SQ
    kernels = np.empty((len(v1), len(v2)) + rows)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i, (va, sa) in enumerate(zip(v1, sq1)):
            for j, (vb, sb) in enumerate(zip(v2, sq2)):
                # the Ellipsis keeps a 0-d row a writable view
                out = kernels[i, j, ...]
                np.divide(-np.sum(va * vb, axis=-1), np.sqrt(sa * sb), out=out)
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
    return _nondegenerate(*_kernel_matrix((a_dir,), (b_dir,), beta1, beta2))[0, 0]


def correlator_integrand(
    a_dir, b_dir, kin1: ParticleKinematics, kin2: ParticleKinematics
) -> float:
    """Correlation K(a, b; p1, p2) at two fixed single-particle momenta."""
    return float(kernel_from_beta(a_dir, b_dir, kin1.beta_vec, kin2.beta_vec))


def _shared_velocity(beta_vec) -> np.ndarray:
    """A velocity both particles share, checked for shape (3,) and |beta| < 1."""
    b = np.asarray(beta_vec, dtype=float)
    if b.shape != (3,):
        raise ValueError(f"beta_vec must have shape (3,), got {b.shape}")
    speed = float(np.linalg.norm(b))
    if speed >= 1.0:
        raise DomainError(f"|beta| must be < 1, got {speed}")
    return b


def correlator_sharp(a_dir, b_dir, beta_vec, mass: float = 1.0) -> float:
    """Correlation when both particles share one velocity ``beta_vec``.

    ``mass`` does not enter the value (the velocity fixes it) and is
    accepted only for signature symmetry with the averaged estimators.
    Requires |beta| < 1.
    """
    b = _shared_velocity(beta_vec)
    return float(kernel_from_beta(a_dir, b_dir, b, b))


@dataclass(frozen=True)
class CorrelatorEstimate:
    """Monte Carlo estimate with its one-sigma standard error."""

    value: float
    standard_error: float
    samples: int
    rejected: int = 0
    warning: str | None = None


def _chunk_sizes(samples: int, chunk_size: int) -> list[int]:
    full, rest = divmod(samples, chunk_size)
    return [chunk_size] * full + ([rest] if rest else [])


def _sample_kernels(axes, dist, rng: np.random.Generator, n: int) -> np.ndarray:
    """Kernel rows, one per axis pair, over ``n`` fresh momentum draws.

    Columns of degenerate draws are NaN so the caller can resample them.
    """
    # the momenta are dropped once the velocities exist
    beta1, beta2 = (beta_from_momentum(p, dist.mass) for p in dist.sample(rng, n))
    kernels, degenerate = _kernel_matrix(*axes, beta1, beta2)
    if isinstance(dist, JointGaussian):
        # symmetrize over the particle swap, in place
        swapped, degenerate_swapped = _kernel_matrix(*axes, beta2, beta1)
        kernels += swapped
        kernels *= 0.5
        degenerate |= degenerate_swapped
    kernels = kernels.reshape(-1, n)
    kernels[:, degenerate] = np.nan
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
    return kernels.sum(axis=1), (kernels * kernels).sum(axis=1), rejected


def _mc_means(axes, dist, samples: int, seed: int, chunk_size: int, workers: int):
    """Chunked Monte Carlo means and standard errors for several axis pairs.

    ``axes`` is the (Alice, Bob) pair of axis lists of :func:`_kernel_matrix`;
    results follow its row-major pair order.  All pairs are evaluated on the
    same momentum draws (common random numbers).  Chunk streams are spawned
    up front and partial sums are combined in chunk order, so the result
    does not depend on ``workers``.
    """
    if samples < 100:
        raise ValueError(f"samples must be >= 100, got {samples}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    sizes = _chunk_sizes(samples, chunk_size)
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    jobs = list(zip(children, sizes))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(lambda job: _evaluate_chunk(axes, dist, job[0], job[1]), jobs)
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
    if samples < 100:
        raise ValueError(f"samples must be >= 100, got {samples}")
    if isinstance(dist, Sharp):
        kin = ParticleKinematics(dist.mass, dist.momentum)
        return CorrelatorEstimate(
            value=correlator_integrand(a_dir, b_dir, kin, kin),
            standard_error=0.0,
            samples=samples,
        )
    means, errors, rejected = _mc_means(
        ((a_dir,), (b_dir,)), dist, samples, seed, chunk_size, workers
    )
    return CorrelatorEstimate(
        value=float(means[0]),
        standard_error=float(errors[0]),
        samples=samples,
        rejected=rejected,
        warning=_rejection_warning(rejected, samples),
    )
