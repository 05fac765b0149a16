import math
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

from relbell import (
    CorrelatedGaussian,
    DegenerateObservableError,
    DomainError,
    JointGaussian,
    ParticleKinematics,
    Sharp,
    correlator_integrand,
    correlator_mc,
    correlator_sharp,
    kernel_from_beta,
)
from relbell import correlator
from relbell.kinematics import boosted_spin_axis


def random_unit(rng, n=None):
    shape = (3,) if n is None else (n, 3)
    v = rng.standard_normal(shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def quotient_formula(a, b, beta_vec):
    """Equal-momentum correlation written as the explicit quotient, kept
    independent of the package's effective-axis construction."""
    a, b, beta_vec = (np.asarray(x, dtype=float) for x in (a, b, beta_vec))
    beta_sq = float(beta_vec @ beta_vec)
    if beta_sq == 0.0:
        return -float(a @ b)
    n = beta_vec / math.sqrt(beta_sq)
    a_perp = a - (a @ n) * n
    b_perp = b - (b @ n) * n
    numerator = float(a @ b) - beta_sq * float(a_perp @ b_perp)
    denom = math.sqrt(
        (1.0 + beta_sq * ((n @ a) ** 2 - 1.0)) * (1.0 + beta_sq * ((n @ b) ** 2 - 1.0))
    )
    return -numerator / denom


class TestSharpKernel:
    def test_rest_is_minus_cosine(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = random_unit(rng), random_unit(rng)
            assert correlator_sharp(a, b, (0, 0, 0)) == pytest.approx(
                -float(a @ b), abs=1e-15
            )

    def test_matches_quotient_formula(self):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            a, b = random_unit(rng), random_unit(rng)
            beta_vec = rng.uniform(0, 0.9999) * random_unit(rng)
            assert correlator_sharp(a, b, beta_vec) == pytest.approx(
                quotient_formula(a, b, beta_vec), rel=0, abs=1e-12
            )

    def test_equals_integrand_at_equal_momenta(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a, b = random_unit(rng), random_unit(rng)
            beta_vec = rng.uniform(0, 0.999) * random_unit(rng)
            kin = ParticleKinematics.from_beta(beta_vec, mass=rng.uniform(0.5, 2.0))
            assert correlator_sharp(a, b, kin.beta_vec) == correlator_integrand(
                a, b, kin, kin
            )

    def test_same_axis_exactly_anti_correlated(self):
        rng = np.random.default_rng(3)
        for _ in range(10_000):
            a = random_unit(rng)
            kin = ParticleKinematics.from_beta(
                rng.uniform(0, 0.9999) * random_unit(rng), mass=rng.uniform(0.1, 10)
            )
            assert correlator_integrand(a, a, kin, kin) == -1.0

    def test_bounds(self):
        rng = np.random.default_rng(4)
        n = 100_000
        a, b = random_unit(rng, n), random_unit(rng, n)
        beta1 = rng.uniform(0, 0.9999, (n, 1)) * random_unit(rng, n)
        beta2 = rng.uniform(0, 0.9999, (n, 1)) * random_unit(rng, n)
        k = kernel_from_beta(a, b, beta1, beta2)
        assert np.all(np.abs(k) <= 1.0 + 1e-12)

    def test_swap_symmetry_is_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, b = random_unit(rng), random_unit(rng)
            kin1 = ParticleKinematics.from_beta(rng.uniform(0, 0.99) * random_unit(rng))
            kin2 = ParticleKinematics.from_beta(rng.uniform(0, 0.99) * random_unit(rng))
            assert correlator_integrand(a, b, kin1, kin2) == correlator_integrand(
                b, a, kin2, kin1
            )

    def test_rotation_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            a, b = random_unit(rng), random_unit(rng)
            beta1 = rng.uniform(0, 0.999) * random_unit(rng)
            beta2 = rng.uniform(0, 0.999) * random_unit(rng)
            axis, angle = random_unit(rng), rng.uniform(0, 2 * math.pi)
            kx = np.array(
                [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
            )
            rot = np.eye(3) + math.sin(angle) * kx + (1 - math.cos(angle)) * (kx @ kx)
            plain = kernel_from_beta(a, b, beta1, beta2)
            rotated = kernel_from_beta(rot @ a, rot @ b, rot @ beta1, rot @ beta2)
            assert rotated == pytest.approx(plain, rel=0, abs=1e-10)

    def test_perpendicular_motion_leaves_correlation(self):
        # axes in the plane orthogonal to the motion keep the rest value
        rng = np.random.default_rng(7)
        for beta in (0.0, 0.5, 0.9, 0.999):
            angles = rng.uniform(0, 2 * math.pi, 2)
            a = np.array([math.cos(angles[0]), math.sin(angles[0]), 0.0])
            b = np.array([math.cos(angles[1]), math.sin(angles[1]), 0.0])
            k = correlator_sharp(a, b, (0.0, 0.0, beta))
            assert k == pytest.approx(-float(a @ b), rel=0, abs=1e-12)

    def test_lightlike_limit_with_longitudinal_component(self):
        # as beta -> 1 every observable collapses onto the helicity, so the
        # correlation saturates; draws keep a.n, b.n >= 0.2 to stay clear of
        # the degenerate transverse set
        rng = np.random.default_rng(8)
        n_dir = np.array([0.0, 0.0, 1.0])
        for _ in range(200):
            a, b = random_unit(rng), random_unit(rng)
            a[2] = rng.uniform(0.2, 1.0)
            b[2] = rng.uniform(0.2, 1.0)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            k = correlator_sharp(a, b, 0.9999 * n_dir)
            assert k == pytest.approx(-1.0, abs=1e-2)

    def test_single_correlation_closed_form(self):
        # a perpendicular pair with equal longitudinal projections follows
        # -beta^2 / (2 - beta^2)
        a = np.array([0.5, 0.5, math.sqrt(0.5)])
        b = np.array([-0.5, -0.5, math.sqrt(0.5)])
        for beta in np.linspace(0.0, 0.99, 100):
            k = correlator_sharp(a, b, (0.0, 0.0, beta))
            assert k == pytest.approx(-beta**2 / (2 - beta**2), rel=0, abs=1e-12)

    def test_beta_validation(self):
        with pytest.raises(DomainError):
            correlator_sharp((1, 0, 0), (0, 1, 0), (1.0, 0.0, 0.0))
        with pytest.raises(DomainError):
            correlator_sharp((1, 0, 0), (0, 1, 0), (0.8, 0.8, 0.0))


class TestMixedKinematics:
    def test_slow_particle_keeps_its_axis(self):
        # with particle 1 at rest the kernel is -a . v2(b) / |v2(b)|
        rng = np.random.default_rng(9)
        rest = ParticleKinematics.at_rest()
        for _ in range(200):
            a, b = random_unit(rng), random_unit(rng)
            fast = ParticleKinematics.from_beta(rng.uniform(0, 0.999) * random_unit(rng))
            v2 = boosted_spin_axis(b, fast.beta_vec)
            expected = -float(a @ v2) / np.linalg.norm(v2)
            assert correlator_integrand(a, b, rest, fast) == pytest.approx(
                expected, rel=0, abs=1e-13
            )


class TestMonteCarlo:
    def test_sharp_is_exact_with_zero_error(self):
        dist = Sharp.from_beta((0.9, 0.0, 0.0))
        est = correlator_mc((0, 0, 1), (0, 1, 0), dist, 1000, seed=0)
        assert est.value == correlator_sharp((0, 0, 1), (0, 1, 0), (0.9, 0.0, 0.0))
        assert est.standard_error == 0.0
        assert est.samples == 1000

    def test_narrow_spread_brackets_sharp_value(self):
        # 100 seeded runs; the closed-form value must land inside 3 sigma in
        # at least 99 of them
        a, b = np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0])
        sharp = correlator_sharp(a, b, (0.6, 0.0, 0.3))
        dist = CorrelatedGaussian.from_beta((0.6, 0.0, 0.3), sigma=1e-3)
        hits = 0
        for seed in range(100):
            est = correlator_mc(a, b, dist, 2000, seed=seed)
            assert est.standard_error > 0.0
            if abs(est.value - sharp) <= 3.0 * est.standard_error:
                hits += 1
        assert hits >= 99

    def test_value_stays_in_physical_band(self):
        dist = CorrelatedGaussian.from_beta((0.5, 0.2, 0.0), sigma=0.1)
        est = correlator_mc((0, 0, 1), (0, 1, 0), dist, 5000, seed=3)
        assert abs(est.value) <= 1.0 + 5.0 * est.standard_error

    def test_bitwise_deterministic_and_worker_independent(self):
        dist = CorrelatedGaussian.from_beta((0.7, 0.0, 0.0), sigma=0.05)
        kwargs = dict(samples=30_000, seed=12, chunk_size=4096)
        first = correlator_mc((0, 0, 1), (0, 1, 0), dist, **kwargs, workers=1)
        again = correlator_mc((0, 0, 1), (0, 1, 0), dist, **kwargs, workers=1)
        threaded = correlator_mc((0, 0, 1), (0, 1, 0), dist, **kwargs, workers=4)
        assert first == again
        assert first == threaded

    def test_threaded_calls_share_one_set_of_workers(self, monkeypatch):
        names = set()
        evaluate = correlator._evaluate_chunk

        def recording(*args):
            names.add(threading.current_thread().name)
            return evaluate(*args)

        monkeypatch.setattr(correlator, "_evaluate_chunk", recording)
        dist = CorrelatedGaussian.from_beta((0.7, 0.0, 0.0), sigma=0.05)
        for seed in range(3):
            correlator_mc((0, 0, 1), (0, 1, 0), dist, 1000, seed, chunk_size=100, workers=2)
        assert 1 <= len(names) <= 2
        assert threading.current_thread().name not in names

    def test_joint_gaussian_symmetrizes_over_swap(self):
        # zero-width joint profile: the estimate is the symmetrized kernel
        p1 = (2.0, 0.0, 0.0)
        p2 = (0.0, 0.0, 5.0)
        dist = JointGaussian(p1, 0.0, p2, 0.0)
        kin1 = ParticleKinematics(1.0, p1)
        kin2 = ParticleKinematics(1.0, p2)
        a, b = (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)
        expected = 0.5 * (
            correlator_integrand(a, b, kin1, kin2) + correlator_integrand(a, b, kin2, kin1)
        )
        est = correlator_mc(a, b, dist, 500, seed=0)
        assert est.value == pytest.approx(expected, rel=0, abs=1e-15)
        assert est.standard_error == 0.0

    def test_degenerate_draws_are_resampled_with_warning(self):
        # beam with gamma straddling the degeneracy cutoff for a transverse
        # axis: a large fraction of draws must be redrawn and flagged
        dist = CorrelatedGaussian((9.5e7, 0.0, 0.0), (3e7, 0.0, 0.0))
        est = correlator_mc((0, 1, 0), (0, 1, 0), dist, 2000, seed=5)
        assert est.rejected > 20
        assert est.warning is not None
        assert est.value == -1.0

    def test_all_degenerate_raises(self):
        dist = CorrelatedGaussian((1e16, 0.0, 0.0), (1.0, 1.0, 1.0))
        with pytest.raises(DegenerateObservableError):
            correlator_mc((0, 1, 0), (0, 1, 0), dist, 200, seed=0)

    def test_sample_floor(self):
        dist = Sharp.from_beta((0.1, 0.0, 0.0))
        with pytest.raises(ValueError):
            correlator_mc((0, 0, 1), (0, 1, 0), dist, 99, seed=0)


class TestDistributions:
    def test_correlated_draws_are_shared(self):
        dist = CorrelatedGaussian.from_beta((0.3, 0.0, 0.0), sigma=0.1)
        p1, p2 = dist.sample(np.random.default_rng(0), 100)
        assert_allclose(p1, p2, rtol=0, atol=0)
        assert p1 is not p2

    def test_joint_draws_are_independent_arrays(self):
        dist = JointGaussian((1, 0, 0), 0.2, (0, 1, 0), 0.2)
        p1, p2 = dist.sample(np.random.default_rng(0), 4000)
        corr = np.corrcoef(p1[:, 0], p2[:, 0])[0, 1]
        assert abs(corr) < 0.1

    def test_scalar_sigma_broadcasts(self):
        dist = CorrelatedGaussian((0, 0, 0), 0.5)
        assert dist.sigma == (0.5, 0.5, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            CorrelatedGaussian((0, 0, 0), -0.1)
        with pytest.raises(ValueError):
            Sharp((0, 0, 0), mass=0.0)
        with pytest.raises(DomainError):
            Sharp.from_beta((1.0, 0.0, 0.0))
