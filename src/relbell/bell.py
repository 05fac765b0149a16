"""CHSH averages for singlet pairs and parameter scans over kinematics.

The Bell average for axis pairs ``(a, a')`` and ``(b, b')`` is

    c = K(a, b) + K(a, b') + K(a', b) - K(a', b')

with the correlation kernel of :mod:`relbell.correlator`.  Because each
kernel value is a dot product of unit vectors, |c| <= 2*sqrt(2) holds for
every kinematic configuration; the nonrelativistic coplanar maximum
reaches the bound exactly, and motion degrades it toward the classical 2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .correlator import (
    DEFAULT_CHUNK_SIZE,
    CorrelatorEstimate,
    _check_sampling,
    _kernel_matrix,
    _mc_means,
    _nondegenerate,
    _rejection_warning,
    _shared_velocity,
    kernel_from_beta,
)
from .distributions import MomentumDistribution, Sharp
from .kinematics import ParticleKinematics, _as_triple, _check_mass, _frame_pair

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

_UNIT_TOL = 1e-12


def _as_unit_triple(values, name: str) -> tuple[float, float, float]:
    triple = _as_triple(values, name)
    norm = math.sqrt(sum(c * c for c in triple))
    if abs(norm - 1.0) > _UNIT_TOL:
        raise ValueError(f"{name} must be a unit vector, got |{name}| = {norm}")
    return triple


@dataclass(frozen=True)
class BellConfig:
    """Two measurement axes per side, all unit 3-vectors."""

    a: tuple[float, float, float]
    a_prime: tuple[float, float, float]
    b: tuple[float, float, float]
    b_prime: tuple[float, float, float]

    def __post_init__(self):
        for name in ("a", "a_prime", "b", "b_prime"):
            object.__setattr__(self, name, _as_unit_triple(getattr(self, name), name))

    @property
    def axis_pairs(self):
        """The four (alice, bob) combinations in CHSH order; the last enters
        the average with a minus sign."""
        a, ap, b, bp = (np.array(v) for v in (self.a, self.a_prime, self.b, self.b_prime))
        return [(a, b), (a, bp), (ap, b), (ap, bp)]

    def to_dict(self) -> dict:
        return {
            "a": list(self.a),
            "a_prime": list(self.a_prime),
            "b": list(self.b),
            "b_prime": list(self.b_prime),
        }


_S = math.sqrt(0.5)

#: Coplanar axes realizing the quantum maximum |c| = 2*sqrt(2) at rest.
DEFAULT_CONFIG = BellConfig(
    a=(_S, _S, 0.0),
    a_prime=(-_S, _S, 0.0),
    b=(0.0, 1.0, 0.0),
    b_prime=(1.0, 0.0, 0.0),
)

_CHSH_SIGNS = np.array([1.0, 1.0, 1.0, -1.0])


def _sides(config: BellConfig):
    """Alice's and Bob's axes as component triples; their row-major product
    is ``axis_pairs``."""
    return (config.a, config.a_prime), (config.b, config.b_prime)


def _chsh(config: BellConfig, frame1, frame2) -> np.ndarray:
    """Bell average per row of two particle frames; degenerate rows raise."""
    k = _nondegenerate(*_kernel_matrix(*_sides(config), frame1, frame2))
    return ((k[0, 0] + k[0, 1]) + k[1, 0]) - k[1, 1]


def chsh_from_beta(config: BellConfig, beta1, beta2) -> np.ndarray:
    """Vectorized Bell average from velocity arrays of shape (..., 3)."""
    return _chsh(config, *_frame_pair(beta1, beta2))


def bell_average_sharp(config: BellConfig, beta_vec, mass: float = 1.0) -> float:
    """Bell average when both particles share the velocity ``beta_vec``.

    ``mass`` does not enter the value; requires |beta| < 1.
    """
    beta = _shared_velocity(beta_vec)
    return float(chsh_from_beta(config, beta, beta))


def bell_average_mc(
    config: BellConfig,
    dist: MomentumDistribution,
    samples: int,
    seed: int,
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    workers: int = 1,
) -> CorrelatorEstimate:
    """Monte Carlo Bell average over a momentum profile.

    The four correlators are evaluated on the same momentum draws and the
    four standard errors are combined in quadrature.  A sharp profile
    short-circuits to the exact value with zero error.
    """
    _check_sampling(samples, workers)
    if isinstance(dist, Sharp):
        beta = ParticleKinematics(dist.mass, dist.momentum).beta_vec
        return CorrelatorEstimate(
            value=float(chsh_from_beta(config, beta, beta)),
            standard_error=0.0,
            samples=samples,
        )
    means, errors, rejected = _mc_means(
        _sides(config), dist, samples, seed, chunk_size, workers
    )
    return CorrelatorEstimate(
        value=float(np.dot(_CHSH_SIGNS, means)),
        standard_error=float(np.sqrt(np.sum(errors * errors))),
        samples=samples,
        rejected=rejected,
        warning=_rejection_warning(rejected, samples),
    )


def corrected_threshold(
    config: BellConfig,
    dist: MomentumDistribution,
    samples: int = 100_000,
    seed: int = 0,
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    workers: int = 1,
) -> float:
    """Motion-corrected Bell threshold: |c| attainable by an honest source.

    A detector that tests against the rest-frame bound 2*sqrt(2) will flag
    fast honest pairs as eavesdropping; the corrected threshold is the
    magnitude of the Bell average under the actual momentum profile.
    """
    estimate = bell_average_mc(
        config, dist, samples, seed, chunk_size=chunk_size, workers=workers
    )
    return abs(estimate.value)


@dataclass(frozen=True)
class ScanTable:
    """Rectangular scan result: named columns, row tuples, metadata."""

    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    metadata: dict = field(compare=False)

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row width {len(row)} does not match {len(self.columns)} columns"
                )

    def column(self, name: str) -> np.ndarray:
        idx = self.columns.index(name)
        return np.array([row[idx] for row in self.rows])

    def to_csv(self, stream) -> None:
        """Write LF-terminated CSV; floats use shortest round-trip repr."""
        stream.write(",".join(self.columns) + "\n")
        for row in self.rows:
            stream.write(",".join(repr(v) for v in row) + "\n")

    def to_json(self, stream) -> None:
        records = [dict(zip(self.columns, row)) for row in self.rows]
        json.dump(
            {"metadata": self.metadata, "columns": list(self.columns), "records": records},
            stream,
            sort_keys=True,
            separators=(",", ":"),
        )
        stream.write("\n")


#: Perpendicular equal-projection axes for the single-correlation scan
#: (figure 6): a.b = 0 and a.n = b.n = 2**-0.5 with motion along z.
_FIG6_A = np.array([0.5, 0.5, _S])
_FIG6_B = np.array([-0.5, -0.5, _S])

_FIG3_BETAS = (0.95, 0.99)


def _check_scan(figure: int, resolution: int, mass: float, beta_max: float) -> None:
    """Range checks on the :func:`scan_figure` inputs, before any grid work."""
    if figure not in (1, 2, 3, 4, 5, 6):
        raise ValueError(f"figure must be 1..6, got {figure}")
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    if not 0.0 < beta_max < 1.0:
        raise ValueError(f"beta_max must be in (0, 1), got {beta_max}")
    _check_mass(mass)


def scan_figure(
    figure: int,
    resolution: int,
    mass: float = 1.0,
    beta_max: float = 0.999,
    config: BellConfig = DEFAULT_CONFIG,
) -> ScanTable:
    """Tabulate a Bell-average (or correlation) surface over kinematics.

    Figures:

    1. ``c(beta, phi)`` for joint motion ``beta (cos phi, sin phi, 0)``.
    2. ``c(beta, theta)`` for joint motion ``beta (sin theta, 0, cos theta)``.
    3. ``c(phi, theta)`` on the full direction sphere at beta = 0.95, 0.99.
    4. ``c(beta, phi)`` with particle 1 at rest, particle 2 moving in-plane.
    5. ``c(beta)`` along the x axis (the slowest-recovery azimuth).
    6. single correlation for perpendicular axes with equal longitudinal
       projections, against the reference curve ``sqrt(1 - beta^2) - 1``;
       this scan alone includes the ``beta = 1`` endpoint.

    ``resolution`` is the number of points per scanned axis.
    """
    _check_scan(figure, resolution, mass, beta_max)
    meta = {
        "figure": figure,
        "resolution": resolution,
        "mass": mass,
        "config": config.to_dict(),
        "momentum": "sharp",
    }
    betas = np.linspace(0.0, beta_max, resolution)
    phis = np.linspace(0.0, 2.0 * math.pi, resolution)
    thetas = np.linspace(0.0, math.pi, resolution)

    if figure == 1:
        bb, pp = [g.ravel() for g in np.meshgrid(betas, phis, indexing="ij")]
        vecs = bb[:, None] * np.stack([np.cos(pp), np.sin(pp), np.zeros_like(pp)], axis=-1)
        c = chsh_from_beta(config, vecs, vecs)
        columns = ("beta", "phi", "c", "abs_c")
        rows = zip(bb, pp, c, np.abs(c))
        meta["beta_max"] = beta_max
    elif figure == 2:
        bb, tt = [g.ravel() for g in np.meshgrid(betas, thetas, indexing="ij")]
        vecs = bb[:, None] * np.stack([np.sin(tt), np.zeros_like(tt), np.cos(tt)], axis=-1)
        c = chsh_from_beta(config, vecs, vecs)
        columns = ("beta", "theta", "c", "abs_c")
        rows = zip(bb, tt, c, np.abs(c))
        meta["beta_max"] = beta_max
    elif figure == 3:
        bb, pp, tt = [
            g.ravel() for g in np.meshgrid(np.array(_FIG3_BETAS), phis, thetas, indexing="ij")
        ]
        vecs = bb[:, None] * np.stack(
            [np.cos(pp) * np.sin(tt), np.sin(pp) * np.sin(tt), np.cos(tt)], axis=-1
        )
        c = chsh_from_beta(config, vecs, vecs)
        columns = ("beta", "phi", "theta", "c", "abs_c")
        rows = zip(bb, pp, tt, c, np.abs(c))
        meta["betas"] = list(_FIG3_BETAS)
    elif figure == 4:
        bb, pp = [g.ravel() for g in np.meshgrid(betas, phis, indexing="ij")]
        vecs = bb[:, None] * np.stack([np.cos(pp), np.sin(pp), np.zeros_like(pp)], axis=-1)
        c = chsh_from_beta(config, np.zeros_like(vecs), vecs)
        columns = ("beta", "phi", "c", "abs_c")
        rows = zip(bb, pp, c, np.abs(c))
        meta["beta_max"] = beta_max
        meta["particle_1"] = "at rest"
    elif figure == 5:
        vecs = betas[:, None] * np.array([1.0, 0.0, 0.0])
        c = chsh_from_beta(config, vecs, vecs)
        columns = ("beta", "c", "abs_c")
        rows = zip(betas, c, np.abs(c))
        meta["beta_max"] = beta_max
    else:  # figure 6
        full = np.linspace(0.0, 1.0, resolution)
        vecs = full[:, None] * np.array([0.0, 0.0, 1.0])
        corr = kernel_from_beta(_FIG6_A, _FIG6_B, vecs, vecs)
        reference = np.sqrt(np.maximum(1.0 - full * full, 0.0)) - 1.0
        columns = ("beta", "correlation", "reference")
        rows = zip(full, corr, reference)
        meta["axes"] = {"a": _FIG6_A.tolist(), "b": _FIG6_B.tolist(), "n": [0.0, 0.0, 1.0]}

    table = ScanTable(
        columns=columns,
        rows=tuple(tuple(float(v) for v in row) for row in rows),
        metadata=meta,
    )
    if "c" in table.columns:
        worst = float(np.max(np.abs(table.column("c"))))
        if worst > TSIRELSON_BOUND + 1e-9:
            raise AssertionError(f"scan exceeded the quantum bound: |c| = {worst}")
    return table
