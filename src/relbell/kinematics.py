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

For a velocity with ``c = sqrt(1 - beta^2) = m/E`` the same axis is
``v(a) = c a + (a.beta) beta / (1 + c)``, which is what
:func:`boosted_spin_axis` forms; the kernels of :mod:`relbell.correlator`
use it in the projection form, with no velocity direction.  ``c`` comes
from :func:`_rest_factor`, which forms ``1 - beta^2`` to a few units in its
last place, so ``c`` keeps full relative precision as ``beta -> 1``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateObservableError, DomainError

#: :func:`spin_observable` treats an effective axis shorter than this as
#: degenerate; the kernels raise only where a kernel is not finite.
DEGENERACY_TOL = 1e-14

#: Rows whose ``|p/m|^2`` reaches this are taken in units of their largest
#: momentum component (times ``2^-180`` in :func:`relbell.correlator._project`,
#: where then ``gamma^2 < 2^362``).  So no product of the kernels overflows
#: for axes of length up to ~1e15: the largest is a product of norms, at
#: most ``|a|^2 |b|^2 gamma1^2 gamma2^2``.
_SCALED_ABOVE = 1e120

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
    """A positive mass whose square is a finite normal float, so about
    1.49e-154 to 1.34e154.  An infinite ``m^2`` would make every velocity
    ``p / sqrt(m^2 + |p|^2)`` zero; a subnormal one lets ``m^2`` and
    ``|p|^2`` both underflow, so that ``E = 0``."""
    mass = float(mass)
    if not (sys.float_info.min <= mass * mass < math.inf and mass > 0.0):
        raise ValueError(f"mass must be positive with a finite square above 2.2e-308, got {mass}")
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
    every momentum; a state whose energy overflows is refused.
    """

    mass: float
    momentum: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "mass", _check_mass(self.mass))
        object.__setattr__(self, "momentum", _as_triple(self.momentum, "momentum"))
        with np.errstate(over="ignore"):
            if self.energy == math.inf:
                raise ValueError(f"m^2 + |p|^2 overflows at momentum {self.momentum}")

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
        return math.sqrt(self.mass * self.mass + _norm_sq(self.momentum_vec))

    @property
    def beta_vec(self) -> np.ndarray:
        return beta_from_momentum(self.momentum_vec, self.mass)

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
    """Momentum m*gamma*beta_vec realizing a given velocity; |beta| < 1.
    ``gamma = 1/c`` with ``c`` from :func:`_rest_factor`."""
    beta = _check_velocity(beta_vec)
    gamma = 1.0 / float(_rest_factor(np.array(beta)[:, None])[0])
    return tuple(mass * gamma * c for c in beta)


def beta_from_momentum(momentum: np.ndarray, mass: float) -> np.ndarray:
    """Vectorized velocity p / sqrt(m^2 + |p|^2) for arrays of shape (..., 3).

    Rows whose ``|p/m|^2`` reaches ``_SCALED_ABOVE`` (or whose ``|p|^2``
    overflows) are divided through by the larger of the mass and their
    largest ``|p_k|`` first, so no term overflows; the other rows keep the
    bytes of the formula above.
    """
    p = _components(momentum)
    with np.errstate(over="ignore"):
        e_sq = mass * mass + _norm_sq(p)
        scaled = ~(e_sq < _SCALED_ABOVE * (mass * mass))  # NaN too
    beta = p / np.sqrt(e_sq)
    if scaled.any():
        q = p[:, scaled]
        scale = np.maximum(np.abs(q).max(axis=0), mass)
        q = q / scale
        c = mass / scale
        beta[:, scaled] = q / np.sqrt(c * c + _norm_sq(q))
    return np.stack(beta, axis=-1)


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


def _dot(u, v):
    """``u.v`` over the first axis of component-major arrays, which may
    broadcast: one product, then the components added left to right."""
    p = u * v
    return (p[0] + p[1]) + p[2]


def _norm_sq(x):
    """|x|^2, :func:`_dot` of ``x`` with itself.  Squares are never -0.0, so
    no +0.0 start is needed to match ``np.sum(x * x, axis=-1)``."""
    return _dot(x, x)


def _same_bits(x, y) -> bool:
    """Equal bit for bit: -0.0 and 0.0 differ, equal NaNs match."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


def _rest_factor(beta) -> np.ndarray:
    """``c = sqrt(max(1 - beta^2, 0)) = m/E`` of component-major velocities.

    Taking the rounded ``beta^2`` from 1 would leave ``c^2`` an absolute
    error of ~1e-16, which is a relative one of ~5e-8 at
    ``|beta| = 1 - 1e-9``.  So each square is split into its rounded value
    and its exact rounding error (Dekker's product), the rounded values are
    taken from 1 with the error of each subtraction carried (Knuth's
    two-sum), and the carried errors are added last, which leaves
    ``1 - beta^2`` a few units in its last place.
    """
    # a unit velocity rounded to floats has |beta|^2 up to 1 + 3 eps
    with np.errstate(over="ignore"):
        if not (_norm_sq(beta) <= 1.0 + 8.0 * np.finfo(float).eps).all():  # NaN too
            raise DomainError("a velocity is not finite or has |beta| > 1")
    total = np.ones(beta.shape[1:])
    carry = np.zeros_like(total)
    for b in beta:
        sq = b * b
        # 2^27 + 1 splits b into two halves of 26 bits, whose products are exact
        high = b * 134217729.0
        high -= high - b
        low = b - high
        carry -= ((high * high - sq) + 2.0 * high * low) + low * low
        diff = total - sq
        back = diff - total
        carry += (total - (diff - back)) - (sq + back)
        total = diff
    total += carry
    return np.sqrt(np.maximum(total, 0.0, out=total), out=total)


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
    ap, aa, m = minkowski_dot(a, p), minkowski_dot(a, a), kin.mass
    # on shell p.p = m^2; forming E^2 - |p|^2 instead cancels at large |p|/m.
    # Both terms are taken in units of 4^e, with 2^e the binade of the larger
    # of |a.p| and sqrt(|a.a|) m, so no square overflows; a power of two
    # scales exactly, and ap * ap is correctly rounded, as ap ** 2 (libm's
    # pow) need not be
    e = math.frexp(max(abs(ap), math.sqrt(abs(aa)) * m))[1]
    ap = math.ldexp(ap, -e)
    radicand = ap * ap - math.ldexp(aa, -e) * math.ldexp(m * m, -e)
    if radicand < 0.0:
        raise DomainError(
            f"(a.p)^2 < a^2 p^2 for a = {a}, p = {p}; "
            "the axis must be spacelike relative to the momentum"
        )
    return math.ldexp(j3 * math.sqrt(radicand), e)


def boosted_spin_axis(a_dir, beta_vec) -> np.ndarray:
    """Effective measurement axis v(a) for a particle with velocity beta_vec.

    Forms ``v(a) = c a + (a.beta) beta / (1 + c)`` with
    ``c = sqrt(1 - beta^2)`` (:func:`_rest_factor`), the axis the kernels
    of :mod:`relbell.correlator` use.  Broadcasts over leading dimensions:
    ``a_dir`` and ``beta_vec`` may be single 3-vectors or arrays of shape
    (..., 3).  At rest ``c = 1`` and ``v = a``.
    """
    shape, (a, beta) = _broadcast_rows(a_dir, beta_vec)
    c = _rest_factor(beta.T)
    along = _dot(a.T, beta.T) / (1.0 + c)
    v = a * c[:, None]
    v += along[:, None] * beta
    return v.reshape(shape + (3,))


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
