import itertools
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from relbell import (
    DEFAULT_CONFIG,
    CorrelatedGaussian,
    DegenerateObservableError,
    DomainError,
    JointGaussian,
    ParticleKinematics,
    ProtocolConfig,
    Sharp,
    bell_average_mc,
    chsh_from_beta,
    correlator_integrand,
    correlator_mc,
    correlator_sharp,
    kernel_from_beta,
    run_protocol,
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
        for beta_vec in ((math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0), np.zeros((1, 3))):
            with pytest.raises(ValueError):
                correlator_sharp((1, 0, 0), (0, 1, 0), beta_vec)


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
        # the kernel at the profile's momentum, in the protocol's momentum form
        dist = Sharp.from_beta((0.9, 0.0, 0.0))
        est = correlator_mc((0, 0, 1), (0, 1, 0), dist, 1000, seed=0)
        p = np.array([dist.momentum])
        sides = np.array([[0.0, 0.0, 1.0]]), np.array([[0.0, 1.0, 0.0]])
        assert est.value == float(correlator._momentum_rows(*sides, p, p, dist.mass)[0])
        assert est.value == pytest.approx(
            correlator_sharp((0, 0, 1), (0, 1, 0), (0.9, 0.0, 0.0)), rel=0, abs=1e-15
        )
        assert est.standard_error == 0.0
        # a sharp profile draws nothing
        assert est.samples == 0

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

    def test_bitwise_deterministic_and_worker_independent(self, monkeypatch):
        monkeypatch.setattr(correlator, "DEFAULT_CHUNK_SIZE", 4096)
        dist = CorrelatedGaussian.from_beta((0.7, 0.0, 0.0), sigma=0.05)
        kwargs = dict(samples=30_000, seed=12)
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
        monkeypatch.setattr(correlator, "DEFAULT_CHUNK_SIZE", 100)
        dist = CorrelatedGaussian.from_beta((0.7, 0.0, 0.0), sigma=0.05)
        for seed in range(3):
            correlator_mc((0, 0, 1), (0, 1, 0), dist, 1000, seed, workers=2)
        assert 1 <= len(names) <= 2
        assert threading.current_thread().name not in names

    def test_one_worker_runs_every_chunk_on_its_caller(self, monkeypatch):
        names = []
        evaluate = correlator._evaluate_chunk

        def recording(*args):
            names.append(threading.current_thread().name)
            return evaluate(*args)

        monkeypatch.setattr(correlator, "_evaluate_chunk", recording)
        monkeypatch.setattr(correlator, "DEFAULT_CHUNK_SIZE", 300)
        dist = JointGaussian((0.5, 0.0, 0.0), 0.2, (0.0, 0.8, 0.0), 0.2)
        for estimate in (
            lambda workers: correlator_mc((0, 0, 1), (0, 1, 0), dist, 1000, 4, workers=workers),
            lambda workers: bell_average_mc(DEFAULT_CONFIG, dist, 1000, 4, workers=workers),
        ):
            names.clear()
            one = estimate(1)
            assert names == [threading.current_thread().name] * 4
            assert repr(one) == repr(estimate(2))

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

    def test_formerly_resampled_draws_are_kept(self):
        # gamma straddles 1e14, where the transverse axis has m/E < 1e-14:
        # the old tolerance rule redrew many of these draws, yet each has
        # a finite kernel, -1 for b = a at a shared momentum
        dist = CorrelatedGaussian((9.5e13, 0.0, 0.0), (3e13, 0.0, 0.0))
        est = correlator_mc((0, 1, 0), (0, 1, 0), dist, 2000, seed=5)
        assert (est.value, est.rejected) == (-1.0, 0)

    def test_all_degenerate_raises(self):
        # at |p|/m = 1e200 the transverse axis's norm (m/|p|)^2 underflows
        # to 0, so every kernel is 0/0
        dist = CorrelatedGaussian((1e200, 0.0, 0.0), 0.0)
        with pytest.raises(DegenerateObservableError):
            correlator_mc((0, 1, 0), (0, 1, 0), dist, 200, seed=0)

    def test_sample_floor(self):
        for dist in (Sharp.from_beta((0.1, 0.0, 0.0)),
                     CorrelatedGaussian.from_beta((0.1, 0.0, 0.0), sigma=0.02)):
            with pytest.raises(ValueError, match="samples must be >= 100"):
                correlator_mc((0, 0, 1), (0, 1, 0), dist, 99, seed=0)
            with pytest.raises(ValueError, match="samples must be >= 100"):
                bell_average_mc(DEFAULT_CONFIG, dist, 99, seed=0)

    @pytest.mark.parametrize("field, bad", [
        ("samples", 1000.5), ("samples", 1000.0), ("samples", "1000"), ("samples", True),
        ("workers", 2.0), ("workers", True),
        ("seed", -1), ("seed", 1.5), ("seed", "7"), ("seed", True),
    ])
    def test_inputs_are_checked_up_front(self, field, bad):
        # each raises a ValueError naming the field, sharp profiles included
        kwargs = dict(samples=1000, seed=0, workers=1) | {field: bad}
        samples, seed = kwargs.pop("samples"), kwargs.pop("seed")
        for dist in (Sharp.from_beta((0.1, 0.0, 0.0)),
                     CorrelatedGaussian.from_beta((0.1, 0.0, 0.0), sigma=0.02)):
            with pytest.raises(ValueError, match=field):
                bell_average_mc(DEFAULT_CONFIG, dist, samples, seed, **kwargs)
            with pytest.raises(ValueError, match=field):
                correlator_mc((0, 0, 1), (0, 1, 0), dist, samples, seed, **kwargs)

    def test_numpy_integers_are_integers(self, monkeypatch):
        monkeypatch.setattr(correlator, "DEFAULT_CHUNK_SIZE", 400)
        dist = CorrelatedGaussian.from_beta((0.1, 0.0, 0.0), sigma=0.02)
        est = bell_average_mc(DEFAULT_CONFIG, dist, np.int64(1000), np.uint32(3),
                              workers=np.int8(2))
        assert est == bell_average_mc(DEFAULT_CONFIG, dist, 1000, 3)

    def test_sharp_matches_momentum_path_bit_for_bit(self):
        # run_protocol's path: the recorded momenta projected with the mass
        p, mass = np.array([[-2.96, 0.37, 0.5]]), 2.759
        est = correlator_mc((1, 0, 0), (0, 1, 0), Sharp(p[0], mass), 100, seed=0)
        sides = np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 1.0, 0.0]])
        assert est.value == float(correlator._momentum_rows(*sides, p, p, mass)[0])
        assert est.standard_error == 0.0
        assert est.rejected == 0


def mp_chsh_along_x(ratio, config=DEFAULT_CONFIG):
    """CHSH of one momentum ``|p|/m = ratio`` along x shared by both
    particles, to 50 digits: each axis keeps its x component and has its
    transverse part divided by gamma."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        gamma = mp.sqrt(1 + mp.mpf(ratio) ** 2)

        def axis(a):
            return [mp.mpf(a[0]), mp.mpf(a[1]) / gamma, mp.mpf(a[2]) / gamma]

        def kernel(a, b):
            va, vb = axis(a), axis(b)
            dot = sum(x * y for x, y in zip(va, vb))
            return -dot / mp.sqrt(sum(x * x for x in va) * sum(y * y for y in vb))

        c = config
        return float(kernel(c.a, c.b) + kernel(c.a, c.b_prime)
                     + kernel(c.a_prime, c.b) - kernel(c.a_prime, c.b_prime))


def mp_kernel(a, b, p1, p2, mass, swap_average=True):
    """The swap-symmetrized kernel at two momenta to 50 digits, from the
    effective axes ``E v(a)/m = a + (a.x) x / (gamma + 1)``, ``x = p/m``;
    ``K12 = K(a, b; p1, p2)`` alone when ``swap_average`` is false."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        def axis(a, p):
            a = [mp.mpf(float(c)) for c in a]
            x = [mp.mpf(float(c)) / mp.mpf(mass) for c in p]
            gamma = mp.sqrt(1 + sum(c * c for c in x))
            s = sum(u * v for u, v in zip(a, x))
            return [u + s * v / (gamma + 1) for u, v in zip(a, x)]

        def kernel(a, b, p, q):
            va, vb = axis(a, p), axis(b, q)
            dot = sum(x * y for x, y in zip(va, vb))
            return -dot / mp.sqrt(sum(x * x for x in va) * sum(y * y for y in vb))

        if not swap_average:
            return float(kernel(a, b, p1, p2))
        return float((kernel(a, b, p1, p2) + kernel(a, b, p2, p1)) / 2)


class TestMomentumFrame:
    """The Monte Carlo kernels are formed from the momenta, so they keep
    full precision at any gamma that does not make an axis degenerate."""

    @pytest.mark.parametrize("ratio", [1e3, 1e5, 1e7, 1e8, 1e10])
    def test_zero_spread_beam_matches_mpmath(self, ratio):
        # at 1e8 the velocity rounds to 1, yet the transverse axis keeps a
        # length m/E = 1e-8, far above DEGENERACY_TOL
        est = bell_average_mc(DEFAULT_CONFIG, CorrelatedGaussian((ratio, 0.0, 0.0), 0.0), 1000, 0)
        assert est.rejected == 0
        assert abs(est.value - mp_chsh_along_x(ratio)) <= 1e-14

    def test_kernels_match_mpmath_up_to_overflowing_momenta(self):
        # |p|/m from 1e-2 to 1e300 and masses down to 1e-150: the rows past
        # _SCALED_ABOVE are projected in units of 2^-180 times their largest
        # component.  Along x the default axis b is exactly transverse,
        # along y b' is, so a kernel of that axis has one transverse axis of
        # norm c^2 = (2^180 m/|p|)^2: finite up to 1e214, while past
        # ~9.7e215 c^2 underflows to 0 and the kernels raise
        rng = np.random.default_rng(51)
        axes = correlator._mc_axes(
            np.array([DEFAULT_CONFIG.a, DEFAULT_CONFIG.a_prime]),
            np.array([DEFAULT_CONFIG.b, DEFAULT_CONFIG.b_prime]),
        )
        pairs = [(a, b) for a in (DEFAULT_CONFIG.a, DEFAULT_CONFIG.a_prime)
                 for b in (DEFAULT_CONFIG.b, DEFAULT_CONFIG.b_prime)]
        # 1e14 to 1e214, on both sides of _SCALED_ABOVE
        transverse = 10.0 ** np.arange(14, 215, 8)
        transverse = np.concatenate([np.outer(transverse, (1.0, 0.0, 0.0)),
                                     np.outer(transverse, (0.0, -1.0, 0.0))])
        for mass in (1.0, 1e-150, 7.3):
            ratios = 10.0 ** rng.uniform(-2, 300, (2, 40, 1))
            p1, p2 = np.minimum(random_unit(rng, 80).reshape(2, 40, 3) * ratios * mass, 1e300)
            assert (p1 / mass > 1e60).any() and (p1 / mass < 1e60).any()
            p = transverse.reshape(-1, 3) * mass
            with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
                warnings.simplefilter("error")
                for one, two in ((p1, p1), (p1, p2), (p, p), (p, 2.0 * p)):
                    kernels = correlator._leaf_kernels(axes, one, two, mass)
                    for row in range(len(one)):
                        for k, (a, b) in enumerate(pairs):
                            want = mp_kernel(a, b, one[row], two[row], mass)
                            assert abs(kernels[k, row] - want) <= 1e-14, (mass, row, k)
                for ratio in (1e216, 1e300):
                    for direction in ((ratio * mass, 0.0, 0.0), (0.0, -ratio * mass, 0.0)):
                        q = np.array([direction])
                        for two in (q, 2.0 * q):
                            with pytest.raises(DegenerateObservableError):
                                correlator._leaf_kernels(axes, q, two, mass)

    def test_axes_all_transverse_raise_where_their_norms_underflow(self):
        # along z every default axis is transverse: past _SCALED_ABOVE a
        # product of two norms is c^4 = (2^180 m/|p|)^4, which underflows
        # past |p|/m ~ 1.3e131
        c = DEFAULT_CONFIG
        axes = correlator._mc_axes(np.array([c.a, c.a_prime]), np.array([c.b, c.b_prime]))
        pairs = list(itertools.product((c.a, c.a_prime), (c.b, c.b_prime)))
        # axes transverse to a shared momentum keep the rest value -a.b
        want = -(axes.stacked[:2, :, 0] @ axes.stacked[2:, :, 0].T).ravel()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for ratio in (1e14, 1e61, 1e76, 1e80, 1e100, 1e130):
                for mass in (1.0, 7.3):
                    p = np.array([[0.0, 0.0, ratio * mass]])
                    kernels = correlator._leaf_kernels(axes, p, p, mass)
                    assert np.abs(kernels[:, 0] - want).max() <= 1e-15
                    # and two momenta along z hold the 50-digit anchors
                    kernels = correlator._leaf_kernels(axes, p, 2.0 * p, mass)
                    for k, (a, b) in enumerate(pairs):
                        anchor = mp_kernel(a, b, p[0], 2.0 * p[0], mass)
                        assert abs(kernels[k, 0] - anchor) <= 1e-14, (ratio, mass, k)
            for ratio in (1e132, 1e155, 1e200):
                p = np.array([[0.0, 0.0, ratio]])
                for two in (p, 2.0 * p):
                    with pytest.raises(DegenerateObservableError):
                        correlator._leaf_kernels(axes, p, two, 1.0)


def mp_boosted_axis(a, beta):
    """v(a) = sqrt(1 - beta^2) (a - (a.n) n) + (a.n) n to 50 digits, from
    the float components of ``a`` and ``beta``."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        a = [mp.mpf(float(c)) for c in a]
        beta = [mp.mpf(float(c)) for c in beta]
        beta_sq = sum(c * c for c in beta)
        if beta_sq == 0:
            return a
        n = [c / mp.sqrt(beta_sq) for c in beta]
        along = sum(u * v for u, v in zip(a, n))
        root = mp.sqrt(1 - beta_sq)
        return [root * (u - along * v) + along * v for u, v in zip(a, n)]


def mp_kernel_from_beta(a, b, beta1, beta2):
    """-v1(a).v2(b) / (|v1(a)| |v2(b)|) to 50 digits (:func:`mp_boosted_axis`)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        va, vb = mp_boosted_axis(a, beta1), mp_boosted_axis(b, beta2)
        dot = sum(x * y for x, y in zip(va, vb))
        return -dot / mp.sqrt(sum(x * x for x in va) * sum(y * y for y in vb))


#: Speeds from rest to 1 - 1e-9, where 1 - beta^2 keeps 7 of its digits
#: only if it is formed from the exact squares.
ANCHOR_SPEEDS = (0.0, 0.3, 0.9, 0.999, 1 - 1e-6, 1 - 1e-9)
ANCHOR_DIRECTIONS = ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), tuple(np.full(3, 3**-0.5)))


class TestVelocityAnchors:
    """The velocity paths hold 50-digit anchors from rest to 1 - 1e-9, the
    reference taken from the float velocity."""

    @pytest.mark.parametrize("direction", ANCHOR_DIRECTIONS)
    def test_boosted_spin_axis(self, direction):
        c = DEFAULT_CONFIG
        for speed in ANCHOR_SPEEDS:
            beta = speed * np.array(direction)
            for a in (c.a, c.a_prime, c.b, c.b_prime, direction):
                want = [float(x) for x in mp_boosted_axis(a, beta)]
                assert np.abs(boosted_spin_axis(a, beta) - want).max() <= 4e-15, (speed, a)

    @pytest.mark.parametrize("direction", ANCHOR_DIRECTIONS)
    def test_kernel_and_chsh_from_beta(self, direction):
        # one velocity shared, and two: the second of the same speed along
        # the next direction
        c = DEFAULT_CONFIG
        other = ANCHOR_DIRECTIONS[(ANCHOR_DIRECTIONS.index(direction) + 1) % 3]
        pairs = ((c.a, c.b), (c.a, c.b_prime), (c.a_prime, c.b), (c.a_prime, c.b_prime))
        for speed in ANCHOR_SPEEDS:
            beta1 = speed * np.array(direction)
            for beta2 in (beta1, speed * np.array(other)):
                want = [mp_kernel_from_beta(a, b, beta1, beta2) for a, b in pairs]
                for (a, b), k in zip(pairs, want):
                    assert abs(kernel_from_beta(a, b, beta1, beta2) - float(k)) <= 4e-15, (speed, a, b)
                chsh = float(want[0] + want[1] + want[2] - want[3])
                assert abs(chsh_from_beta(c, beta1, beta2) - chsh) <= 4e-15, speed

    def test_unit_speed_endpoint(self):
        # a longitudinal axis keeps its projection at |beta| = 1, and a
        # transverse one vanishes
        a, b = np.array([0.5, 0.5, 0.5**0.5]), np.array([-0.5, -0.5, 0.5**0.5])
        n = np.array([0.0, 0.0, 1.0])
        assert np.array_equal(boosted_spin_axis(a, n), [0.0, 0.0, 0.5**0.5])
        assert kernel_from_beta(a, b, n, n) == -1.0
        assert kernel_from_beta(a, n, n, 0.5 * n) == pytest.approx(
            float(mp_kernel_from_beta(a, n, n, 0.5 * n)), rel=0, abs=4e-15
        )
        with pytest.raises(DegenerateObservableError):
            kernel_from_beta((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), n, n)
        with pytest.raises(DegenerateObservableError):
            chsh_from_beta(DEFAULT_CONFIG, n, 0.5 * n)

    def test_per_row_axes_take_no_pair_table(self):
        # 2^17 per-row axes on both sides: formed per block, so the peak
        # stays far below the 128 GiB of an n x n table of axis pairs
        rng = np.random.default_rng(71)
        n = 2**17
        a, b = random_unit(rng, n), random_unit(rng, n)
        beta1 = rng.uniform(0.0, 0.99, (n, 1)) * random_unit(rng, n)
        beta2 = rng.uniform(0.0, 0.99, (n, 1)) * random_unit(rng, n)
        tracemalloc.start()
        try:
            kernels = kernel_from_beta(a, b, beta1, beta2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kernels.shape == (n,)
        assert peak < 64 * 2**20, peak


class TestProtocolKernels:
    """The protocol's kernels take the projection form too: the shared one
    for one momentum, ``K12`` for two, each axis drawn from a pool per row."""

    def test_kernels_match_mpmath(self):
        # the protocol's pools: Alice's key and test axes, and Bob's
        # followed by the default intercept-resend pool
        rng = np.random.default_rng(61)
        c = DEFAULT_CONFIG
        alice = np.array(((0.0, 0.0, 1.0), c.a, c.a_prime))
        partner = np.array(((0.0, 0.0, 1.0), c.b, c.b_prime, c.a, c.a_prime, c.b, c.b_prime))
        for mass in (1.0, 7.3):
            ratios = 10.0 ** rng.uniform(-2, 10, (2, 150, 1))
            p1, p2 = random_unit(rng, 300).reshape(2, 150, 3) * ratios * mass
            i = rng.integers(0, len(alice), 150)
            j = rng.integers(0, len(partner), 150)
            for q in (p1, p2):
                got = correlator._momentum_rows((alice, i), (partner, j), p1, q, mass)
                for row in range(150):
                    want = mp_kernel(alice[i[row]], partner[j[row]], p1[row], q[row], mass,
                                     swap_average=False)
                    assert abs(got[row] - want) <= 1e-15, (mass, row)

    @pytest.mark.parametrize("ratio", [1e-2, 1e3, 1e5, 1e7, 1e8, 1e10])
    def test_zero_spread_threshold_matches_mpmath(self, ratio):
        # the velocity form was 4.9e-14 off at 1e3 and 8.0e-11 at 1e7, and
        # raised on a degenerate axis at 1e8 and 1e10
        config = ProtocolConfig(2000, CorrelatedGaussian((ratio, 0.0, 0.0), 0.0), seed=0)
        threshold = run_protocol(config).bell_corrected.threshold
        assert abs(threshold + mp_chsh_along_x(ratio)) <= 1e-15


class TestDistributions:
    def test_correlated_draws_are_shared(self):
        dist = CorrelatedGaussian.from_beta((0.3, 0.0, 0.0), sigma=0.1)
        p1, p2 = dist.sample(np.random.default_rng(0), 100)
        # one array serves both particles
        assert p1 is p2

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
