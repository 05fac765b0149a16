import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from relbell import (
    DegenerateObservableError,
    DomainError,
    FourVector,
    ParticleKinematics,
    beta_from_momentum,
    boosted_spin_axis,
    commutator_norm,
    correlator_integrand,
    kernel_from_beta,
    minkowski_dot,
    momentum_for_beta,
    pl_eigenvalue,
    spin_observable,
)
from relbell import correlator
from relbell.kinematics import PAULI_X, PAULI_Y, PAULI_Z
from relbell.kinematics import _same_bits as same_bits

PAULI = np.stack([PAULI_X, PAULI_Y, PAULI_Z])

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


def random_unit(rng, n=None):
    shape = (3,) if n is None else (n, 3)
    v = rng.standard_normal(shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def random_kinematics(rng, beta_max=0.999):
    direction = random_unit(rng)
    speed = rng.uniform(0.0, beta_max)
    return ParticleKinematics.from_beta(speed * direction, mass=rng.uniform(0.1, 10.0))


def rotation_matrix(axis, angle):
    k = np.asarray(axis, dtype=float)
    k = k / np.linalg.norm(k)
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + math.sin(angle) * kx + (1 - math.cos(angle)) * (kx @ kx)


def spin_half_unitary(axis, angle):
    k = np.asarray(axis, dtype=float)
    k = k / np.linalg.norm(k)
    return math.cos(angle / 2) * np.eye(2) - 1j * math.sin(angle / 2) * np.tensordot(
        k, PAULI, axes=(0, 0)
    )


class TestMinkowskiDot:
    def test_signature(self):
        t = FourVector(1, 0, 0, 0)
        x = FourVector(0, 1, 0, 0)
        y = FourVector(0, 0, 1, 0)
        z = FourVector(0, 0, 0, 1)
        assert minkowski_dot(t, t) == 1.0
        assert minkowski_dot(x, x) == -1.0
        assert minkowski_dot(y, y) == -1.0
        assert minkowski_dot(z, z) == -1.0
        assert minkowski_dot(t, x) == 0.0

    @given(st.tuples(finite, finite, finite, finite),
           st.tuples(finite, finite, finite, finite))
    def test_symmetry(self, u, v):
        fu, fv = FourVector(*u), FourVector(*v)
        assert minkowski_dot(fu, fv) == minkowski_dot(fv, fu)

    @settings(max_examples=200)
    @given(st.tuples(finite, finite, finite, finite),
           st.tuples(finite, finite, finite, finite),
           st.tuples(finite, finite, finite, finite),
           st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_bilinearity(self, u, v, w, alpha):
        fu, fv, fw = FourVector(*u), FourVector(*v), FourVector(*w)
        combined = FourVector(*(alpha * a + b for a, b in zip(v, w)))
        lhs = minkowski_dot(fu, combined)
        rhs = alpha * minkowski_dot(fu, fv) + minkowski_dot(fu, fw)
        # the terms may cancel, so the bound is on their magnitudes: each side
        # rounds about six times per term.  A subnormal result is off by up
        # to half the smallest subnormal, which a later product scales by
        # |u_i| or |alpha|
        scale = sum(abs(a) * (abs(alpha * b) + abs(c)) for a, b, c in zip(u, v, w))
        underflow = math.ulp(0.0) * (8 + sum(map(abs, u)) + abs(alpha))
        assert abs(lhs - rhs) <= 8 * np.finfo(float).eps * scale + 4 * underflow


class TestParticleKinematics:
    def test_on_shell(self):
        kin = ParticleKinematics(2.0, (3.0, 0.0, 4.0))
        assert kin.energy == pytest.approx(math.sqrt(4 + 25), rel=1e-15)
        p = kin.four_momentum
        assert minkowski_dot(p, p) == pytest.approx(kin.mass**2, rel=1e-12)

    def test_energy_squares_the_mass_as_the_core_does(self):
        # 2.759 ** 2 and 2.759 * 2.759 round to different doubles
        kin = ParticleKinematics(2.759, (0.21, 0.0, 0.0))
        assert kin.energy == math.sqrt(2.759 * 2.759 + 0.21 * 0.21)

    def test_beta_roundtrip(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            beta_vec = rng.uniform(-0.57, 0.57, 3)
            kin = ParticleKinematics.from_beta(beta_vec, mass=rng.uniform(0.1, 5.0))
            assert_allclose(kin.beta_vec, beta_vec, rtol=0, atol=1e-14)
            assert kin.beta < 1.0

    @pytest.mark.parametrize("direction", [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0),
                                           tuple(np.full(3, 3**-0.5))])
    def test_momentum_for_beta_matches_mpmath(self, direction):
        # gamma from the rounded beta^2 was 6e-6 off at 1 - 1e-12
        mp = pytest.importorskip("mpmath")
        for speed in (0.3, 0.9, 0.999, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12):
            for mass in (1.0, 2.759):
                beta = speed * np.array(direction)
                got = momentum_for_beta(beta, mass)
                with mp.workdps(50):
                    b = [mp.mpf(float(x)) for x in beta]
                    gamma = 1 / mp.sqrt(1 - sum(x * x for x in b))
                    want = [mp.mpf(mass) * gamma * x for x in b]
                    err = max(abs(g - w) for g, w in zip(got, want))
                    assert err <= 4e-16 * mp.sqrt(sum(w * w for w in want)), (speed, mass)

    def test_spatial_part_and_direction(self):
        assert FourVector(1.0, 2.0, 3.0, 4.0).spatial.tolist() == [2.0, 3.0, 4.0]
        assert ParticleKinematics(1.0, (3.0, 0.0, 4.0)).direction.tolist() == [0.6, 0.0, 0.8]

    def test_direction_at_rest_undefined(self):
        with pytest.raises(ValueError, match="undefined"):
            ParticleKinematics.at_rest().direction

    def test_validation(self):
        with pytest.raises(ValueError):
            ParticleKinematics(0.0, (1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            ParticleKinematics(-1.0, (0.0, 0.0, 0.0))
        # m^2 overflows: the energy would be inf and the velocity 0
        with pytest.raises(ValueError, match="finite square"):
            ParticleKinematics(1e200, (0.0, 0.0, 0.0))
        # m^2 and |p|^2 underflow: the energy would be 0
        with pytest.raises(ValueError, match="finite square"):
            ParticleKinematics(1e-170, (1e-170, 0.0, 0.0))
        with pytest.raises(ValueError):
            ParticleKinematics(1.0, (1.0, 0.0))
        with pytest.raises(DomainError):
            momentum_for_beta((1.0, 0.0, 0.0))

    def test_overflowing_energy_is_refused(self):
        # m^2 + |p|^2 overflows past |p| ~ 1.34e154 at m = 1: the energy was
        # inf, and pl_eigenvalue read nan where its limit is 0.5
        ParticleKinematics(1.0, (1e154, 0.0, 0.0))
        for momentum in ((1e155, 0.0, 0.0), (1e160, 0.0, 0.0), (0.0, -1e200, 1.0)):
            with pytest.raises(ValueError, match="overflows"):
                ParticleKinematics(1.0, momentum)
        # each square is finite, their sum is not
        with pytest.raises(ValueError, match="overflows"):
            ParticleKinematics(1e154, (1e154, 0.0, 0.0))

    def test_beta_vec_is_the_velocity_of_beta_from_momentum(self):
        # bit for bit on every state, and p/E itself below _SCALED_ABOVE
        rng = np.random.default_rng(8)
        states = [random_kinematics(rng) for _ in range(200)] + [
            ParticleKinematics(m, p) for m, p in (
                (1.0, (1e10, 0.0, 0.0)), (2.759, (-2.96, 0.37, 0.5)), (1e-100, (1e60, 0.0, 0.0)),
                (1e-150, (0.0, -1e150, 3e149)), (1.0, (-0.0, 0.0, -0.0)), (7.3, (1e153, 1e152, 0.0)),
            )
        ]
        for kin in states:
            p = kin.momentum_vec
            assert same_bits(kin.beta_vec, beta_from_momentum(p, kin.mass))
            if np.sum(p * p) < 1e120 * kin.mass**2:
                assert same_bits(kin.beta_vec, p / kin.energy)

    def test_huge_momentum_reads_the_limit_of_its_velocity(self):
        # |p|/m = 1e160 at m = 1 overflowed E, so p/E read beta = 0 and the
        # observables their rest values (that state is refused now); at a
        # small mass the same ratio agrees with |p|/m = 1e10, where beta
        # already rounds to 1 and pl_eigenvalue reads 0.5
        a, b = (0.0, 0.6, 0.8), (0.0, 0.8, -0.6)
        limit = ParticleKinematics(1.0, (1e10, 0.0, 0.0))
        for kin in (ParticleKinematics(1e-100, (1e60, 0.0, 0.0)),
                    ParticleKinematics(1e-150, (1e10, 0.0, 0.0))):
            assert same_bits(kin.beta_vec, limit.beta_vec)
            assert commutator_norm(a, b, kin) == commutator_norm(a, b, limit) == 0.0
            along = (0.6, 0.8, 0.0), (0.8, 0.0, 0.6)
            assert correlator_integrand(*along, kin, limit) == correlator_integrand(*along, limit, limit)
            with pytest.raises(DegenerateObservableError):
                correlator_integrand(a, b, kin, limit)
        assert pl_eigenvalue(FourVector(0.0, 0.0, 1.0, 0.0), limit) == 0.5


class TestPlEigenvalue:
    def test_spatial_axis_closed_form(self):
        # for a = (0, ahat) the contraction reduces to j3*sqrt((ahat.p)^2 + m^2)
        rng = np.random.default_rng(3)
        for _ in range(200):
            kin = random_kinematics(rng)
            ahat = random_unit(rng)
            w = pl_eigenvalue(FourVector.from_spatial(0.0, ahat), kin)
            expected = 0.5 * math.sqrt(float(ahat @ kin.momentum_vec) ** 2 + kin.mass**2)
            assert w == pytest.approx(expected, rel=1e-12)

    def test_nonnegative_for_any_axis(self):
        # on-shell massive momenta make the radicand nonnegative for every a
        rng = np.random.default_rng(4)
        for _ in range(500):
            kin = random_kinematics(rng)
            a = FourVector(*rng.uniform(-3, 3, 4))
            assert pl_eigenvalue(a, kin) >= 0.0

    def test_scales_with_j3(self):
        kin = ParticleKinematics.from_beta((0.5, 0.0, 0.0))
        a = FourVector(0.0, 0.0, 1.0, 0.0)
        assert pl_eigenvalue(a, kin, j3=1.5) == pytest.approx(
            3.0 * pl_eigenvalue(a, kin, j3=0.5), rel=1e-15
        )

    def test_transverse_axis_keeps_its_length_at_large_momentum(self):
        # p.p is m^2 on shell; formed as E^2 - |p|^2 it cancelled, and this
        # ratio read 0.0
        kin = ParticleKinematics(1.0, (1e8, 0.0, 0.0))
        ratio = pl_eigenvalue(FourVector(0.0, 0.0, 1.0, 0.0), kin) / (kin.energy / 2.0)
        assert abs(ratio - 1e-8) <= 1e-15 * 1e-8

    def test_overflowing_square_is_factored_out(self):
        # (a.p)^2 overflows here, on a state the package accepts, and raised
        # a bare OverflowError; the terms are taken in units of a power of two
        mp = pytest.importorskip("mpmath")
        kin = ParticleKinematics(1.0, (1.3e154, 0.0, 0.0))
        w = pl_eigenvalue(FourVector(0.0, 2.0, 0.0, 0.0), kin)
        with mp.workdps(50):
            expected = mp.sqrt((2 * mp.mpf(1.3e154)) ** 2 + 4) / 2
            assert math.isfinite(w)
            assert abs(w - expected) <= 1e-15 * expected

    def test_timelike_axis_along_the_momentum_raises(self):
        # a = p/m gives (a.p)^2 = a^2 p^2; here rounding leaves the radicand
        # below zero
        kin = ParticleKinematics(1.0, (1.3, 0.95, -0.7))
        with pytest.raises(DomainError, match="spacelike"):
            pl_eigenvalue(kin.four_momentum, kin)

    def test_j3_validation(self):
        kin = ParticleKinematics.at_rest()
        a = FourVector(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            pl_eigenvalue(a, kin, j3=0.3)
        with pytest.raises(ValueError):
            pl_eigenvalue(a, kin, j3=-0.5)


class TestBoostedSpinAxis:
    def test_rest_branch_is_exact(self):
        a = np.array([0.3, -0.4, 0.5])
        assert np.array_equal(boosted_spin_axis(a, np.zeros(3)), a)

    def test_norm_identity(self):
        # |v|^2 = 1 + beta^2 ((a.n)^2 - 1) for unit axes
        rng = np.random.default_rng(5)
        a = random_unit(rng, 2000)
        beta = rng.uniform(0, 0.9999, (2000, 1)) * random_unit(rng, 2000)
        v = boosted_spin_axis(a, beta)
        beta_sq = np.sum(beta * beta, axis=-1)
        an = np.sum(a * beta, axis=-1) / np.sqrt(beta_sq)
        expected = 1.0 + beta_sq * (an * an - 1.0)
        assert_allclose(np.sum(v * v, axis=-1), expected, rtol=0, atol=1e-12)

    def test_longitudinal_axis_unchanged(self):
        n = np.array([0.6, 0.0, 0.8])
        v = boosted_spin_axis(n, 0.99 * n)
        assert_allclose(v, n, rtol=0, atol=1e-15)

    def test_transverse_contraction(self):
        v = boosted_spin_axis(np.array([0.0, 1.0, 0.0]), np.array([0.8, 0.0, 0.0]))
        assert_allclose(v, [0.0, 0.6, 0.0], rtol=0, atol=1e-15)


class TestSpinObservable:
    def test_matrix_invariants(self):
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            kin = random_kinematics(rng)
            m = spin_observable(random_unit(rng), kin)
            assert np.max(np.abs(m - m.conj().T)) < 1e-12
            assert abs(np.trace(m)) < 1e-12
            assert np.linalg.det(m) == pytest.approx(-1.0, abs=1e-12)

    def test_eigenvalues_are_unit(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            m = spin_observable(random_unit(rng), random_kinematics(rng))
            assert_allclose(np.linalg.eigvalsh(m), [-1.0, 1.0], rtol=0, atol=1e-12)

    def test_rest_limit(self):
        a = np.array([0.0, 0.6, 0.8])
        m = spin_observable(a, ParticleKinematics.at_rest())
        assert_allclose(m, np.tensordot(a, PAULI, axes=(0, 0)), rtol=0, atol=1e-15)

    def test_scale_of_axis_cancels(self):
        kin = ParticleKinematics.from_beta((0.7, 0.2, 0.0))
        a = np.array([0.1, -0.5, 0.3])
        assert_allclose(
            spin_observable(a, kin), spin_observable(10.0 * a, kin), rtol=0, atol=1e-14
        )

    def test_rotation_covariance(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            kin = random_kinematics(rng)
            a = random_unit(rng)
            axis, angle = random_unit(rng), rng.uniform(0, 2 * math.pi)
            rot = rotation_matrix(axis, angle)
            u = spin_half_unitary(axis, angle)
            rotated = spin_observable(
                rot @ a, ParticleKinematics(kin.mass, rot @ kin.momentum_vec)
            )
            assert np.max(np.abs(rotated - u @ spin_observable(a, kin) @ u.conj().T)) < 1e-10

    def test_degenerate_axis_raises(self):
        # reachable only in the lightlike limit, which the kernel admits
        with pytest.raises(DegenerateObservableError):
            kernel_from_beta(
                np.array([0.0, 1.0, 0.0]),
                np.array([0.0, 1.0, 0.0]),
                np.array([1.0, 0.0, 0.0]),
                np.array([1.0, 0.0, 0.0]),
            )

    def test_transverse_axis_at_ultra_relativistic_momentum_raises(self):
        # at |p|/m = 1e15 the velocity rounds to 1, and the transverse axis
        # is contracted to nothing
        kin = ParticleKinematics(1.0, (1e15, 0.0, 0.0))
        with pytest.raises(DegenerateObservableError, match="effective axis vanished"):
            spin_observable((0.0, 0.0, 1.0), kin)
        assert np.array_equal(spin_observable((1.0, 0.0, 0.0), kin), PAULI_X)


class TestOperatorAnchors:
    """The operator layer as an independent check of the kernel core: the
    Hilbert-space route and the component route must agree."""

    SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)

    @staticmethod
    def draws(seed):
        """1000 draws of (kin1, kin2, a, b): one mass for the pair, and
        momenta with |p|/m from 1e-2 to 1e2."""
        rng = np.random.default_rng(seed)
        for _ in range(1000):
            mass = rng.uniform(0.1, 10.0)
            kin1, kin2 = (
                ParticleKinematics(mass, mass * 10.0 ** rng.uniform(-2, 2) * random_unit(rng))
                for _ in range(2)
            )
            yield kin1, kin2, random_unit(rng), random_unit(rng)

    def test_singlet_expectation_is_the_kernel(self):
        worst = 0.0
        for kin1, kin2, a, b in self.draws(21):
            ab = np.kron(spin_observable(a, kin1), spin_observable(b, kin2))
            expectation = (self.SINGLET @ ab @ self.SINGLET).real
            worst = max(worst, abs(expectation - correlator_integrand(a, b, kin1, kin2)))
        assert worst <= 1e-14

    def test_pl_eigenvalue_is_the_effective_axis_length(self):
        worst = 0.0
        for kin, _, a, _ in self.draws(22):
            ratio = pl_eigenvalue(FourVector(0.0, *a), kin) / (kin.energy / 2.0)
            length = float(np.linalg.norm(boosted_spin_axis(a, kin.beta_vec)))
            worst = max(worst, abs(ratio - length) / length)
        assert worst <= 1e-11


    def test_pl_eigenvalue_is_the_monte_carlo_axis_length(self):
        # the Monte Carlo's |v(a)|^2 = (a.a + s_a^2) / gamma^2, formed from
        # the momentum with no velocity, is the squared Pauli-Lubanski ratio
        worst = 0.0
        for kin, _, a, _ in self.draws(22):
            proj = correlator._project(correlator._mc_axes(a[None], a[None]),
                                       kin.momentum_vec[None], kin.mass)
            ratio = pl_eigenvalue(FourVector(0.0, *a), kin) / (kin.energy / 2.0)
            worst = max(worst, abs(proj.sq[0, 0] / proj.gsq[0] - ratio**2) / ratio**2)
        assert worst <= 1e-12


class TestCommutatorNorm:
    def test_rest_orthogonal_value(self):
        kin = ParticleKinematics.at_rest()
        assert commutator_norm((1, 0, 0), (0, 1, 0), kin) == pytest.approx(
            math.sqrt(2) / 2, rel=1e-12
        )

    def test_cross_product_oracle(self):
        # |[v_a.s, v_b.s]|_F = |v_a x v_b| / sqrt(2) with s = sigma/2
        rng = np.random.default_rng(17)
        for _ in range(300):
            kin = random_kinematics(rng)
            a, b = random_unit(rng), random_unit(rng)
            va = boosted_spin_axis(a, kin.beta_vec)
            vb = boosted_spin_axis(b, kin.beta_vec)
            expected = np.linalg.norm(np.cross(va, vb)) / math.sqrt(2)
            assert commutator_norm(a, b, kin) == pytest.approx(expected, rel=0, abs=1e-12)

    def test_collapse_with_speed(self):
        rest = ParticleKinematics.at_rest()
        fast = ParticleKinematics.from_beta((0.0, 0.0, 0.999))
        ratio = commutator_norm((1, 0, 0), (0, 1, 0), fast) / commutator_norm(
            (1, 0, 0), (0, 1, 0), rest
        )
        assert ratio < 0.05
        assert ratio == pytest.approx(1 - 0.999**2, rel=1e-9)

    def test_parallel_axes_commute(self):
        kin = ParticleKinematics.from_beta((0.3, 0.2, 0.1))
        assert commutator_norm((0, 0, 1), (0, 0, 1), kin) == pytest.approx(0.0, abs=1e-15)
