"""Minkowski kinematics and covariant spin observables for spin-1/2 particles.

Conventions, fixed package-wide:

* metric signature ``(+, -, -, -)``, natural units ``c = 1``;
* spin-1/2 generators ``s_k = sigma_k / 2`` (eigenvalues +-1/2);
* direction observables returned by :func:`spin_observable` are
  renormalized so their eigenvalues are exactly +-1.

The central geometric object is the effective measurement axis.  For a
particle moving with velocity ``beta_vec`` (unit direction ``n``), a lab
axis ``a`` acts on the spin like the deformed vector

    v(a) = sqrt(1 - beta^2) * (a - (a.n) n) + (a.n) n

whose transverse part is contracted by the Lorentz factor while the
longitudinal part is untouched.  Its length is
``|v| = sqrt(1 + beta^2 ((a.n)^2 - 1))``, which shrinks to ``|a.n|`` as
``beta -> 1``: in that limit every axis collapses onto the momentum
direction and all spin observables commute.

Every velocity and effective axis in the package comes from one component
core, which is component-major: x, y and z run along the first axis of one
array, so a block of rows is one contiguous (3, rows) array.
:func:`_velocity` turns momenta into velocities, :func:`_frame` turns
velocities into their *frame* (the unit direction ``n`` and the factor
``sqrt(1 - beta^2)``), and :func:`_boost` forms ``v(a)`` for a whole side
of stacked axes in one broadcast pass.  Callers that work on whole arrays
go through one block loop, :func:`_frame_blocks`, which copies each block
of rows into that layout and builds its frames once; two arrays that are
equal bit for bit share one frame.  The core adds the three components of
a dot product left to right from ``+0.0``, which is how
``np.sum(..., axis=-1)`` adds a length-3 axis, so the public
:func:`beta_from_momentum` and :func:`boosted_spin_axis` return the same
bytes as that ``np.sum`` form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateObservableError, DomainError

#: Effective axes shorter than this are treated as degenerate.
DEGENERACY_TOL = 1e-14

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: Rotation generators for spin 1/2, eigenvalues +-1/2.
SPIN_GENERATORS = 0.5 * np.stack([PAULI_X, PAULI_Y, PAULI_Z])


def _as_triple(values, name: str) -> tuple[float, float, float]:
    x = np.asarray(values, dtype=float)
    if x.shape != (3,) or not np.isfinite(x).all():
        raise ValueError(f"{name} must be 3 finite components, got {x.tolist()}")
    return tuple(x.tolist())


def _check_mass(mass: float) -> float:
    """A positive mass whose square is finite; an infinite ``m^2`` would
    make every velocity ``p / sqrt(m^2 + |p|^2)`` zero."""
    mass = float(mass)
    if not (math.isfinite(mass * mass) and mass > 0.0):
        raise ValueError(f"mass must be positive with a finite square, got {mass}")
    return mass


@dataclass(frozen=True)
class FourVector:
    """A contravariant four-vector (t, x, y, z)."""

    t: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("t", "x", "y", "z"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @classmethod
    def from_spatial(cls, t: float, spatial) -> "FourVector":
        x, y, z = _as_triple(spatial, "spatial part")
        return cls(t, x, y, z)

    @property
    def spatial(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


def minkowski_dot(u: FourVector, v: FourVector) -> float:
    """Lorentz-invariant product u.v with signature (+, -, -, -)."""
    return u.t * v.t - u.x * v.x - u.y * v.y - u.z * v.z


@dataclass(frozen=True)
class ParticleKinematics:
    """On-shell state of a massive particle: rest mass and 3-momentum.

    The energy is always ``sqrt(m^2 + |p|^2)``, so ``|beta| < 1`` holds for
    every finite momentum.
    """

    mass: float
    momentum: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "mass", _check_mass(self.mass))
        object.__setattr__(self, "momentum", _as_triple(self.momentum, "momentum"))

    @classmethod
    def from_beta(cls, beta_vec, mass: float = 1.0) -> "ParticleKinematics":
        """Build from a velocity vector with |beta| < 1."""
        return cls(mass, momentum_for_beta(beta_vec, mass))

    @classmethod
    def at_rest(cls, mass: float = 1.0) -> "ParticleKinematics":
        return cls(mass, (0.0, 0.0, 0.0))

    @property
    def momentum_vec(self) -> np.ndarray:
        return np.array(self.momentum)

    @property
    def energy(self) -> float:
        return float(_energy(self.momentum_vec, self.mass))

    @property
    def beta_vec(self) -> np.ndarray:
        return self.momentum_vec / self.energy

    @property
    def beta(self) -> float:
        return float(np.linalg.norm(self.beta_vec))

    @property
    def direction(self) -> np.ndarray:
        """Unit momentum direction; undefined (raises) at rest."""
        norm = float(np.linalg.norm(self.momentum_vec))
        if norm == 0.0:
            raise ValueError("direction is undefined at zero momentum")
        return self.momentum_vec / norm

    @property
    def four_momentum(self) -> FourVector:
        return FourVector.from_spatial(self.energy, self.momentum)


def _check_velocity(beta_vec) -> tuple[float, float, float]:
    """A finite velocity triple with |beta| < 1."""
    beta = _as_triple(beta_vec, "beta_vec")
    beta_sq = float(_norm_sq(np.array(beta)))
    if beta_sq >= 1.0:
        raise DomainError(f"|beta| must be < 1, got |beta| = {math.sqrt(beta_sq)}")
    return beta


def momentum_for_beta(beta_vec, mass: float = 1.0) -> tuple[float, float, float]:
    """Momentum m*gamma*beta_vec realizing a given velocity; |beta| < 1."""
    beta = _check_velocity(beta_vec)
    gamma = 1.0 / math.sqrt(1.0 - _norm_sq(np.array(beta)))
    return tuple(mass * gamma * c for c in beta)


def beta_from_momentum(momentum: np.ndarray, mass: float) -> np.ndarray:
    """Vectorized velocity p / sqrt(m^2 + |p|^2) for arrays of shape (..., 3)."""
    return np.stack(_velocity(_components(momentum), mass), axis=-1)


# ---------------------------------------------------------------------------
# the component core: component-major arrays, x/y/z along the first axis


def _vectors(vectors) -> np.ndarray:
    """A float array of shape (..., 3)."""
    x = np.asarray(vectors, dtype=float)
    if x.ndim == 0 or x.shape[-1] != 3:
        raise ValueError(f"expected an array of shape (..., 3), got {x.shape}")
    return x


def _components(vectors) -> np.ndarray:
    """An array of shape (..., 3) as a component-major view of shape (3, ...)."""
    return np.moveaxis(_vectors(vectors), -1, 0)


def _broadcast_rows(*vectors):
    """Arrays of shape (..., 3) broadcast over their leading shapes: that
    shape, and each array as rows of shape (m, 3), m >= 1."""
    arrays = [_vectors(x) for x in vectors]
    shape = np.broadcast_shapes(*(x.shape[:-1] for x in arrays))
    return shape, [np.broadcast_to(x, shape + (3,)).reshape(-1, 3) for x in arrays]


def _side(axis, rows: np.ndarray) -> np.ndarray:
    """One axis as a stacked side: a single vector stays fixed, (1, 3);
    otherwise its broadcast ``rows`` (m, 3) become one contiguous
    (1, 3, m) array."""
    return rows[:1] if np.ndim(axis) == 1 else rows.T.copy()[None]


def _norm_sq(x):
    """|x|^2 over the first axis of a component-major array: one square,
    then the components added left to right.  Squares are never -0.0, so
    no +0.0 start is needed to match ``np.sum(x * x, axis=-1)``."""
    sq = x * x
    return (sq[0] + sq[1]) + sq[2]


def _energy(momentum, mass: float):
    """E = sqrt(m^2 + |p|^2) of component-major momenta."""
    return np.sqrt(mass * mass + _norm_sq(momentum))


def _velocity(momentum, mass: float):
    """Component-major velocities p / E."""
    return momentum / _energy(momentum, mass)


class _Frame(NamedTuple):
    """What boosting an axis needs from a velocity array: the unit direction
    ``n`` (zero at rest) as one contiguous (3, rows) array and
    ``root = sqrt(max(1 - beta^2, 0))`` of shape (rows,)."""

    n: np.ndarray
    root: np.ndarray


def _frame(beta) -> _Frame:
    """The frame of component-major velocities."""
    beta_sq = _norm_sq(beta)
    norm = np.sqrt(beta_sq)
    # rest branch: force n = 0 so v reduces to a with no 0/0
    scale = np.where(norm > 0.0, norm, 1.0)
    # clip guards |beta| = 1 against forming sqrt of a tiny negative
    root = np.sqrt(np.maximum(1.0 - beta_sq, 0.0))
    return _Frame(beta / scale, root)


def _frame_of(rows: np.ndarray, mass: float | None) -> _Frame:
    """The frame of rows of shape (m, 3): velocities, or momenta when
    ``mass`` is given.  The rows are copied to one contiguous (3, m) array
    first; a transposed view would hand its strided layout to every array
    computed from it."""
    c = rows.T.copy()
    return _frame(c if mass is None else _velocity(c, mass))


def _same_bits(x, y) -> bool:
    """Equal bit for bit: -0.0 and 0.0 differ, equal NaNs match."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


def _frame_blocks(x1, x2, mass: float | None, block_rows: int):
    """The shared block loop: ``(rows, frame1, frame2)`` for each block of
    ``block_rows`` rows of two arrays of shape (n, 3), velocities or, when
    ``mass`` is given, momenta.  Arrays equal bit for bit share one frame
    per block.  Every caller that works on whole arrays goes through here,
    so no temporary of the kernel work covers all rows at once."""
    shared = x2 is x1 or _same_bits(x1, x2)
    for start in range(0, len(x1), block_rows):
        rows = slice(start, start + block_rows)
        frame1 = _frame_of(x1[rows], mass)
        yield rows, frame1, frame1 if shared else _frame_of(x2[rows], mass)


def _frame_pair(x1, x2, mass: float | None = None):
    """Frames of two whole arrays of shape (n, 3), as one block."""
    (_, frame1, frame2), = _frame_blocks(x1, x2, mass, len(x1))
    return frame1, frame2


def _boost(axes, frame: _Frame) -> np.ndarray:
    """v(a) = root (a - (a.n) n) + (a.n) n for stacked axes: (A, 3) for
    fixed axes or (A, 3, rows) for per-row axes; returns (A, 3, rows).

    The whole side is boosted in one broadcast pass.  ``a.n`` adds its
    three products left to right from +0.0, as ``np.sum(..., axis=-1)``
    adds a length-3 axis, so three -0.0 products give +0.0."""
    if axes.ndim == 2:
        axes = axes[:, :, None]
    prod = axes * frame.n
    along = 0.0 + prod[:, 0]
    along += prod[:, 1]
    along += prod[:, 2]
    a_long = along[:, None] * frame.n
    v = axes - a_long
    v *= frame.root
    v += a_long
    return v


def pl_eigenvalue(a: FourVector, kin: ParticleKinematics, j3: float = 0.5) -> float:
    """Positive eigenvalue of the spin projection along a four-axis ``a``.

    For a spacelike axis and an on-shell momentum ``p`` the projection of
    the relativistic spin operator onto ``a`` has eigenvalues
    ``+- j3 * sqrt((a.p)^2 - a^2 p^2)``; this returns the positive one.
    ``j3`` must be a positive half-integer (0.5 for a single spin-1/2
    particle).
    """
    if j3 <= 0 or abs(2.0 * j3 - round(2.0 * j3)) > 1e-12:
        raise ValueError(f"j3 must be a positive half-integer, got {j3}")
    p = kin.four_momentum
    radicand = minkowski_dot(a, p) ** 2 - minkowski_dot(a, a) * minkowski_dot(p, p)
    if radicand < 0.0:
        raise DomainError(
            f"(a.p)^2 - a^2 p^2 = {radicand} < 0 for a = {a}, p = {p}; "
            "the axis must be spacelike relative to the momentum"
        )
    return j3 * math.sqrt(radicand)


def boosted_spin_axis(a_dir, beta_vec) -> np.ndarray:
    """Effective measurement axis v(a) for a particle with velocity beta_vec.

    Broadcasts over leading dimensions: ``a_dir`` and ``beta_vec`` may be
    single 3-vectors or arrays of shape (..., 3).  Rows with beta = 0 take
    the rest-frame branch v = a exactly (no momentum direction enters).
    """
    shape, (a, beta) = _broadcast_rows(a_dir, beta_vec)
    v = _boost(_side(a_dir, a), _frame_of(beta, None))[0]
    return v.T.copy().reshape(shape + (3,))


def spin_observable(a_dir, kin: ParticleKinematics) -> np.ndarray:
    """2x2 spin observable for axis ``a_dir``, eigenvalues exactly +-1.

    The matrix is ``vhat . sigma`` where ``vhat`` is the normalized
    effective axis; equivalently, the projection of the spin onto ``a_dir``
    divided by its positive eigenvalue.  The overall scale of ``a_dir``
    cancels.  Raises :class:`DegenerateObservableError` when the effective
    axis is shorter than :data:`DEGENERACY_TOL`.
    """
    v = boosted_spin_axis(a_dir, kin.beta_vec)
    norm = float(np.linalg.norm(v))
    if norm < DEGENERACY_TOL:
        raise DegenerateObservableError(
            f"effective axis vanished for a = {np.asarray(a_dir)}, "
            f"beta = {kin.beta_vec} (|v| = {norm})"
        )
    unit = v / norm
    return unit[0] * PAULI_X + unit[1] * PAULI_Y + unit[2] * PAULI_Z


def commutator_norm(a_dir, b_dir, kin: ParticleKinematics) -> float:
    """Frobenius norm of the commutator of two spin projections.

    Uses the unnormalized projections ``v(a) . s`` and ``v(b) . s`` with
    generators ``s = sigma / 2``.  At rest and for orthogonal axes the value
    is ``sqrt(2)/2``; it collapses to zero as ``beta -> 1`` because both
    effective axes align with the momentum.
    """
    va = boosted_spin_axis(a_dir, kin.beta_vec)
    vb = boosted_spin_axis(b_dir, kin.beta_vec)
    sa = np.tensordot(va, SPIN_GENERATORS, axes=(0, 0))
    sb = np.tensordot(vb, SPIN_GENERATORS, axes=(0, 0))
    return float(np.linalg.norm(sa @ sb - sb @ sa))
