"""Momentum profiles for two-particle ensembles.

Each profile knows how to draw per-pair momentum samples ``(p1, p2)`` as
arrays of shape (n, 3), and how to describe itself as a plain dict
(``to_dict``, the form transcripts record).  The mass is carried along so velocities can be
reconstructed; with a positive mass every finite momentum has |beta| < 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .kinematics import _as_triple, _check_mass, momentum_for_beta


def _as_sigma(value, name: str) -> tuple[float, float, float]:
    if np.ndim(value) == 0:
        value = (value, value, value)
    triple = _as_triple(value, name)
    if any(c < 0.0 for c in triple):
        raise ValueError(f"{name} must be nonnegative, got {triple}")
    return triple


@dataclass(frozen=True)
class Sharp:
    """Both particles carry exactly the same fixed momentum."""

    momentum: tuple[float, float, float]
    mass: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "momentum", _as_triple(self.momentum, "momentum"))
        object.__setattr__(self, "mass", _check_mass(self.mass))

    @classmethod
    def from_beta(cls, beta_vec, mass: float = 1.0) -> "Sharp":
        return cls(momentum_for_beta(beta_vec, mass), mass)

    def sample(self, rng: np.random.Generator, n: int):
        p = np.tile(np.array(self.momentum), (n, 1))
        return p, p.copy()

    def to_dict(self) -> dict:
        return {"kind": "sharp", "momentum": list(self.momentum), "mass": self.mass}


@dataclass(frozen=True)
class CorrelatedGaussian:
    """Perfectly correlated pair momenta: one Gaussian draw shared by both.

    Models a wave packet in which the two momenta are locked together;
    ``sigma`` is the per-component standard deviation (a scalar applies to
    all three components).
    """

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

    def sample(self, rng: np.random.Generator, n: int):
        p = np.array(self.mean) + np.array(self.sigma) * rng.standard_normal((n, 3))
        return p, p.copy()

    def to_dict(self) -> dict:
        return {
            "kind": "correlated_gaussian",
            "mean": list(self.mean),
            "sigma": list(self.sigma),
            "mass": self.mass,
        }


@dataclass(frozen=True)
class JointGaussian:
    """Independent Gaussian momenta for the two particles.

    The correlation kernel is symmetrized over the particle swap
    ``(p1, p2) -> (p2, p1)`` when averaging over this profile.
    """

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

    def sample(self, rng: np.random.Generator, n: int):
        p1 = np.array(self.mean1) + np.array(self.sigma1) * rng.standard_normal((n, 3))
        p2 = np.array(self.mean2) + np.array(self.sigma2) * rng.standard_normal((n, 3))
        return p1, p2

    def to_dict(self) -> dict:
        return {
            "kind": "joint_gaussian",
            "mean1": list(self.mean1),
            "sigma1": list(self.sigma1),
            "mean2": list(self.mean2),
            "sigma2": list(self.sigma2),
            "mass": self.mass,
        }


MomentumDistribution = Union[Sharp, CorrelatedGaussian, JointGaussian]
