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
from dataclasses import asdict, dataclass

import numpy as np

from .correlator import (
    DEFAULT_CHUNK_SIZE,
    CorrelatorEstimate,
    _check_sampling,
    _kernel_rows,
    _mc_means,
    _rejection_warning,
    kernel_from_beta,
)
from .distributions import MomentumDistribution
from .kinematics import _as_triple, _broadcast_rows, _check_mass, _check_velocity

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

_UNIT_TOL = 1e-12


def _dump_json(obj, stream) -> None:
    """Stream ``obj`` as one line of canonical JSON: sorted keys, compact
    separators, LF-terminated."""
    json.dump(obj, stream, sort_keys=True, separators=(",", ":"))
    stream.write("\n")


def _write_csv(stream, names, columns) -> None:
    """Write LF-terminated CSV from equal-length 1-D columns; each cell is the
    ``repr`` of its ``tolist()`` value (shortest round-trip float, plain int)."""
    stream.write(",".join(names) + "\n")
    cells = [map(repr, column.tolist()) for column in columns]
    stream.writelines(",".join(row) + "\n" for row in zip(*cells))


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
        return {name: list(axis) for name, axis in asdict(self).items()}


_S = math.sqrt(0.5)

#: Coplanar axes realizing the quantum maximum |c| = 2*sqrt(2) at rest.
DEFAULT_CONFIG = BellConfig(
    a=(_S, _S, 0.0),
    a_prime=(-_S, _S, 0.0),
    b=(0.0, 1.0, 0.0),
    b_prime=(1.0, 0.0, 0.0),
)

def _sides(config: BellConfig):
    """Alice's and Bob's axes, each side stacked as a (2, 3) array; their
    row-major product is ``axis_pairs``."""
    return np.array((config.a, config.a_prime)), np.array((config.b, config.b_prime))


def _chsh_sum(k) -> np.ndarray:
    """``K(a, b) + K(a, b') + K(a', b) - K(a', b')`` over leading (2, 2) axes."""
    return ((k[0, 0] + k[0, 1]) + k[1, 0]) - k[1, 1]


def _chsh(config: BellConfig, x1, x2, mass: float | None = None) -> np.ndarray:
    """Bell average per row of two arrays of shape (n, 3), velocities or,
    when ``mass`` is given, momenta; degenerate rows raise."""
    return _kernel_rows(*_sides(config), x1, x2, mass, combine=_chsh_sum)


def chsh_from_beta(config: BellConfig, beta1, beta2) -> np.ndarray:
    """Vectorized Bell average from velocity arrays of shape (..., 3)."""
    shape, (x1, x2) = _broadcast_rows(beta1, beta2)
    return _chsh(config, x1, x2).reshape(shape)[()]


def bell_average_sharp(config: BellConfig, beta_vec) -> float:
    """Bell average when both particles share the velocity ``beta_vec``;
    requires |beta| < 1."""
    beta = _check_velocity(beta_vec)
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
    gives the exact value with zero error.
    """
    _check_sampling(samples, workers)
    means, errors, rejected = _mc_means(
        _sides(config), dist, samples, seed, chunk_size, workers
    )
    return CorrelatorEstimate(
        value=float(_chsh_sum(means.reshape(2, 2))),
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


@dataclass(frozen=True, eq=False)
class ScanTable:
    """Scan result: column names, one float array per name, metadata."""

    columns: tuple[str, ...]
    data: tuple[np.ndarray, ...]
    metadata: dict

    def __post_init__(self):
        data = tuple(np.asarray(column, dtype=np.float64) for column in self.data)
        if len(data) != len(self.columns):
            raise ValueError(f"{len(data)} data columns do not match {len(self.columns)} names")
        if any(column.ndim != 1 or column.shape != data[0].shape for column in data):
            raise ValueError("data columns must be 1-D arrays of equal length")
        object.__setattr__(self, "data", data)

    @property
    def rows(self) -> tuple[tuple[float, ...], ...]:
        return tuple(zip(*(column.tolist() for column in self.data)))

    def column(self, name: str) -> np.ndarray:
        return self.data[self.columns.index(name)].copy()

    def to_csv(self, stream) -> None:
        _write_csv(stream, self.columns, self.data)

    def to_json(self, stream) -> None:
        records = [dict(zip(self.columns, row)) for row in self.rows]
        _dump_json(
            {"metadata": self.metadata, "columns": list(self.columns), "records": records},
            stream,
        )


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
        data = (bb, pp, c, np.abs(c))
        meta["beta_max"] = beta_max
    elif figure == 2:
        bb, tt = [g.ravel() for g in np.meshgrid(betas, thetas, indexing="ij")]
        vecs = bb[:, None] * np.stack([np.sin(tt), np.zeros_like(tt), np.cos(tt)], axis=-1)
        c = chsh_from_beta(config, vecs, vecs)
        columns = ("beta", "theta", "c", "abs_c")
        data = (bb, tt, c, np.abs(c))
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
        data = (bb, pp, tt, c, np.abs(c))
        meta["betas"] = list(_FIG3_BETAS)
    elif figure == 4:
        bb, pp = [g.ravel() for g in np.meshgrid(betas, phis, indexing="ij")]
        vecs = bb[:, None] * np.stack([np.cos(pp), np.sin(pp), np.zeros_like(pp)], axis=-1)
        c = chsh_from_beta(config, np.zeros_like(vecs), vecs)
        columns = ("beta", "phi", "c", "abs_c")
        data = (bb, pp, c, np.abs(c))
        meta["beta_max"] = beta_max
        meta["particle_1"] = "at rest"
    elif figure == 5:
        vecs = betas[:, None] * np.array([1.0, 0.0, 0.0])
        c = chsh_from_beta(config, vecs, vecs)
        columns = ("beta", "c", "abs_c")
        data = (betas, c, np.abs(c))
        meta["beta_max"] = beta_max
    else:  # figure 6
        full = np.linspace(0.0, 1.0, resolution)
        vecs = full[:, None] * np.array([0.0, 0.0, 1.0])
        corr = kernel_from_beta(_FIG6_A, _FIG6_B, vecs, vecs)
        reference = np.sqrt(np.maximum(1.0 - full * full, 0.0)) - 1.0
        columns = ("beta", "correlation", "reference")
        data = (full, corr, reference)
        meta["axes"] = {"a": _FIG6_A.tolist(), "b": _FIG6_B.tolist(), "n": [0.0, 0.0, 1.0]}

    if "abs_c" in columns:
        worst = float(np.max(data[columns.index("abs_c")]))
        if worst > TSIRELSON_BOUND + 1e-9:
            raise AssertionError(f"scan exceeded the quantum bound: |c| = {worst}")
    return ScanTable(columns=columns, data=data, metadata=meta)
