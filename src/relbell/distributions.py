"""Momentum profiles for two-particle ensembles.

Each profile knows how to draw per-pair momentum samples ``(p1, p2)`` as
arrays of shape (n, 3), and how to describe itself as a plain dict
(``to_dict``, the form transcripts record); a profile that gives both
particles one momentum returns one array twice, with no copy.  The mass
is carried along so velocities can be reconstructed; with a positive mass
every finite momentum has |beta| < 1.

A profile draws in blocks: ``sample_blocks(rng, sizes)`` yields the pairs
of consecutive blocks of draws, one block at a time, and the blocks hold
the bytes of one ``sample(rng, sum(sizes))`` draw, which is its one-block
case.  A correlated beam draws each block in turn (blocks of a standard
normal draw continue one stream); a joint beam draws ``p1`` for all blocks
first, as ``sample`` does, and then ``p2`` block by block.  The Monte
Carlo draws a chunk this way, so no momentum array of a correlated beam
covers the chunk.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import ClassVar, Union

import numpy as np

from .kinematics import _as_triple, _check_mass, momentum_for_beta


def _as_sigma(value, name: str) -> tuple[float, float, float]:
    if np.ndim(value) == 0:
        value = (value, value, value)
    triple = _as_triple(value, name)
    if any(c < 0.0 for c in triple):
        raise ValueError(f"{name} must be nonnegative, got {triple}")
    return triple


class _Profile:
    """The one ``to_dict`` (the profile's kind, then its fields in order,
    with triples as lists) and the one ``sample``."""

    kind: ClassVar[str]

    def sample(self, rng: np.random.Generator, n: int):
        """``(p1, p2)`` for ``n`` pairs: the one-block case of ``sample_blocks``."""
        return next(self.sample_blocks(rng, (n,)))

    def to_dict(self) -> dict:
        fields = {name: list(v) if isinstance(v, tuple) else v for name, v in asdict(self).items()}
        return {"kind": self.kind, **fields}


#: Rows of the ``sigma`` and ``mean`` patterns :func:`_gaussian` scales
#: against.  Each pattern stays under 1 KiB, a size numpy serves from its
#: cache of small blocks, so a call adds no allocation beside its draws:
#: 128-row patterns, 6 KiB in one block, raised the Monte Carlo's peak RSS
#: by ~0.5 MB for ~0.05 ms less per 2^17 rows.
_PATTERN_ROWS = 40


def _gaussian(rng: np.random.Generator, mean, sigma, n: int) -> np.ndarray:
    """``n`` draws of ``mean + sigma * z``, one per row.

    The draws are scaled and shifted in place over contiguous memory,
    against ``sigma`` and ``mean`` repeated over ``_PATTERN_ROWS`` rows:
    each whole run of that many rows as one row of a 2-D view, then the
    rows left over against the patterns' heads.  Each element still gets
    ``z * s`` and then ``+ m``, so the bytes are those of the broadcast
    form, at a fraction of its cost: broadcasting a (3,) array over (n, 3)
    runs numpy's inner loop over three elements at a time, and a pass per
    column strides over the whole array six times."""
    p = rng.standard_normal((n, 3))
    scale, shift = (np.full((_PATTERN_ROWS, 3), v, dtype=float).reshape(-1) for v in (sigma, mean))
    whole = n - n % _PATTERN_ROWS
    tiles = p[:whole].reshape(-1, scale.size)
    tiles *= scale
    tiles += shift
    tail = p[whole:].reshape(-1)
    tail *= scale[:tail.size]
    tail += shift[:tail.size]
    return p


@dataclass(frozen=True)
class Sharp(_Profile):
    """Both particles carry exactly the same fixed momentum."""

    kind: ClassVar[str] = "sharp"
    momentum: tuple[float, float, float]
    mass: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "momentum", _as_triple(self.momentum, "momentum"))
        object.__setattr__(self, "mass", _check_mass(self.mass))

    @classmethod
    def from_beta(cls, beta_vec, mass: float = 1.0) -> "Sharp":
        return cls(momentum_for_beta(beta_vec, mass), mass)

    def sample_blocks(self, rng: np.random.Generator, sizes):
        for n in sizes:
            p = np.tile(np.array(self.momentum), (n, 1))
            yield p, p


@dataclass(frozen=True)
class CorrelatedGaussian(_Profile):
    """Perfectly correlated pair momenta: one Gaussian draw shared by both.

    Models a wave packet in which the two momenta are locked together;
    ``sigma`` is the per-component standard deviation (a scalar applies to
    all three components).
    """

    kind: ClassVar[str] = "correlated_gaussian"
    mean: tuple[float, float, float]
    sigma: tuple[float, float, float]
    mass: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "mean", _as_triple(self.mean, "mean"))
        object.__setattr__(self, "sigma", _as_sigma(self.sigma, "sigma"))
        object.__setattr__(self, "mass", _check_mass(self.mass))

    @classmethod
    def from_beta(cls, beta_vec, sigma, mass: float = 1.0) -> "CorrelatedGaussian":
        return cls(momentum_for_beta(beta_vec, mass), sigma, mass)

    def sample_blocks(self, rng: np.random.Generator, sizes):
        for n in sizes:
            p = _gaussian(rng, self.mean, self.sigma, n)
            yield p, p


@dataclass(frozen=True)
class JointGaussian(_Profile):
    """Independent Gaussian momenta for the two particles.

    Only the Monte Carlo estimator (``correlator_mc``, ``bell_average_mc``,
    ``corrected_threshold``, a protocol's configured threshold) symmetrizes
    the kernel over the particle swap ``(p1, p2) -> (p2, p1)``; a protocol
    run's outcomes and empirical threshold average this profile's recorded
    draws with ``K(a, b; p1, p2)`` as it is (ROADMAP item 1).
    """

    kind: ClassVar[str] = "joint_gaussian"
    mean1: tuple[float, float, float]
    sigma1: tuple[float, float, float]
    mean2: tuple[float, float, float]
    sigma2: tuple[float, float, float]
    mass: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "mean1", _as_triple(self.mean1, "mean1"))
        object.__setattr__(self, "sigma1", _as_sigma(self.sigma1, "sigma1"))
        object.__setattr__(self, "mean2", _as_triple(self.mean2, "mean2"))
        object.__setattr__(self, "sigma2", _as_sigma(self.sigma2, "sigma2"))
        object.__setattr__(self, "mass", _check_mass(self.mass))

    def sample_blocks(self, rng: np.random.Generator, sizes):
        p1 = _gaussian(rng, self.mean1, self.sigma1, sum(sizes))
        start = 0
        for n in sizes:
            yield p1[start:start + n], _gaussian(rng, self.mean2, self.sigma2, n)
            start += n


MomentumDistribution = Union[Sharp, CorrelatedGaussian, JointGaussian]
