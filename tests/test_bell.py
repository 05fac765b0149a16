import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from relbell import (
    DEFAULT_CONFIG,
    TSIRELSON_BOUND,
    BellConfig,
    CorrelatedGaussian,
    DegenerateObservableError,
    DomainError,
    ScanTable,
    Sharp,
    bell_average_mc,
    bell_average_sharp,
    beta_from_momentum,
    chsh_from_beta,
    corrected_threshold,
    correlator_mc,
    correlator_sharp,
    kernel_from_beta,
    scan_figure,
)
from relbell import correlator
from relbell.bell import _chsh_sum, _sides

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_RESOLUTIONS = {1: 41, 2: 41, 3: 21, 4: 41, 5: 201, 6: 201}


def gully(beta):
    """Closed form of the Bell average for joint motion along x with the
    default coplanar axes, re-derived term by term from the equal-momentum
    quotient:  c(beta) = -sqrt(2) (sqrt(1 - b^2) + 1) / sqrt(1 - b^2/2)."""
    eps = math.sqrt(1.0 - beta * beta)
    return -math.sqrt(2.0) * (eps + 1.0) / math.sqrt(1.0 - beta * beta / 2.0)


def quotient_formula(a, b, beta_vec):
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


def chsh_quotient(beta_vec, config=DEFAULT_CONFIG):
    return (
        quotient_formula(config.a, config.b, beta_vec)
        + quotient_formula(config.a, config.b_prime, beta_vec)
        + quotient_formula(config.a_prime, config.b, beta_vec)
        - quotient_formula(config.a_prime, config.b_prime, beta_vec)
    )


def random_unit(rng, n=None):
    shape = (3,) if n is None else (n, 3)
    v = rng.standard_normal(shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def fast_velocities(rng, n):
    """``n`` random velocities and their gamma: half at speeds uniform in
    [0, 1 - 1e-4), half between 1e-1 and 1e-4 below 1."""
    speeds = np.concatenate([
        rng.uniform(0.0, 1.0 - 1e-4, n // 2),
        1.0 - 10.0 ** rng.uniform(-4.0, -1.0, n - n // 2),
    ])
    return random_unit(rng, n) * speeds[:, None], 1.0 / np.sqrt((1.0 - speeds) * (1.0 + speeds))


#: The bound, in ulps of the largest value times gamma, on the distance of
#: the sharp velocity route (``beta`` as given) from the momentum route
#: (``Sharp.from_beta``, which builds ``m gamma beta``).  Both evaluate one
#: quotient, homogeneous in ``(c, y)``: at ``y = beta``, ``c = 1/gamma``
#: and at ``y = gamma beta``, ``c = 1``.  In velocity units each route
#: rounds each projection ``t = a.y`` to a few ulps of ``|beta| < 1``, the
#: momentum route rounding each component of ``m gamma beta`` besides; a
#: kernel's norms are at least ``c = 1/gamma``, so a kernel moves by at
#: most ``2 gamma`` per unit of ``t``.  The routes so differ by O(gamma)
#: ulps of 1 in a kernel and O(gamma) ulps of ``2 sqrt(2)`` in a CHSH sum,
#: an absolute bound whatever the value: where the four terms cancel, a
#: bound in ulps of the value fails.  Measured over 24,000 draws with
#: speeds up to ``1 - 1e-4`` (gamma up to 70.7), on random axes: a kernel
#: differed by at most 1.5 gamma ulps of 1 (4.9e-15), a CHSH sum by at
#: most 2.0 gamma ulps of ``2 sqrt(2)`` (9.7e-15, 43.5 ulps of 1 at gamma
#: ~ 70), both in the slowest rows, where the quotient's own roundings
#: outweigh the projection's.
ROUTE_ULPS = 4


class TestBellConfig:
    def test_axes_must_be_unit(self):
        with pytest.raises(ValueError, match="unit"):
            BellConfig((1, 1, 0), (0, 1, 0), (1, 0, 0), (0, 0, 1))

    def test_default_is_the_coplanar_maximizer(self):
        s = math.sqrt(0.5)
        assert DEFAULT_CONFIG.a == (s, s, 0.0)
        assert DEFAULT_CONFIG.b_prime == (1.0, 0.0, 0.0)


class TestBellAverageSharp:
    def test_rest_maximum(self):
        assert bell_average_sharp(DEFAULT_CONFIG, (0, 0, 0)) == pytest.approx(
            -TSIRELSON_BOUND, abs=1e-12
        )

    def test_beta_validation(self):
        for beta_vec in ((1.0, 0.0, 0.0), (0.8, 0.8, 0.0)):
            with pytest.raises(DomainError):
                bell_average_sharp(DEFAULT_CONFIG, beta_vec)
        for beta_vec in ((math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0), np.zeros((1, 3))):
            with pytest.raises(ValueError):
                bell_average_sharp(DEFAULT_CONFIG, beta_vec)

    def test_rest_reduces_to_classical_combination(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            axes = [tuple(random_unit(rng)) for _ in range(4)]
            config = BellConfig(*axes)
            a, ap, b, bp = (np.array(v) for v in axes)
            expected = -(a @ b + a @ bp + ap @ b - ap @ bp)
            assert bell_average_sharp(config, (0, 0, 0)) == pytest.approx(
                expected, rel=0, abs=1e-14
            )

    def test_gully_closed_form(self):
        for beta in np.arange(0.1, 1.0, 0.1):
            got = bell_average_sharp(DEFAULT_CONFIG, (beta, 0.0, 0.0))
            assert got == pytest.approx(gully(beta), rel=0, abs=1e-10)

    def test_gully_frozen_values(self):
        # high-precision anchors computed symbolically from the term-by-term
        # expansion of the quotient formula
        frozen = {
            0.1: -2.8284181967852649686,
            0.5: -2.8211652334528631965,
            0.9: -2.6325562161047412878,
            0.99: -2.2597608606534411891,
            0.999: -2.0873351057695595264,
            0.9999: -2.0280807763329883466,
        }
        for beta, value in frozen.items():
            got = bell_average_sharp(DEFAULT_CONFIG, (beta, 0.0, 0.0))
            assert got == pytest.approx(value, rel=0, abs=1e-12)

    def test_violation_decays_monotonically_along_gully(self):
        betas = np.linspace(0.0, 0.999, 100)
        values = np.abs(chsh_from_beta(DEFAULT_CONFIG, *(2 * [betas[:, None] * np.array([1.0, 0, 0])])))
        assert np.all(np.diff(values) < 0.0)
        assert values[0] == pytest.approx(TSIRELSON_BOUND, abs=1e-12)

    def test_violation_approaches_two_from_above(self):
        # the limit of the gully is the classical bound, reached from above
        for beta in (0.9, 0.999, 0.99999, 1.0 - 1e-12):
            value = abs(bell_average_sharp(DEFAULT_CONFIG, (beta, 0.0, 0.0)))
            assert value > 2.0
        assert abs(bell_average_sharp(DEFAULT_CONFIG, (1.0 - 1e-12, 0.0, 0.0))) < 2.0 + 1e-4

    def test_perpendicular_motion_keeps_maximum(self):
        for beta in (0.0, 0.5, 0.9, 0.999):
            value = bell_average_sharp(DEFAULT_CONFIG, (0.0, 0.0, beta))
            assert abs(value) == pytest.approx(TSIRELSON_BOUND, abs=1e-9)

    def test_matches_quotient_combination(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            beta_vec = rng.uniform(0, 0.999) * random_unit(rng)
            assert bell_average_sharp(DEFAULT_CONFIG, beta_vec) == pytest.approx(
                chsh_quotient(beta_vec), rel=0, abs=1e-12
            )

    def test_tsirelson_bound_over_random_scan(self):
        rng = np.random.default_rng(23)
        n = 10_000
        axes = [random_unit(rng, n) for _ in range(4)]
        beta1 = rng.uniform(0, 0.9999, (n, 1)) * random_unit(rng, n)
        beta2 = rng.uniform(0, 0.9999, (n, 1)) * random_unit(rng, n)
        c = (
            kernel_from_beta(axes[0], axes[2], beta1, beta2)
            + kernel_from_beta(axes[0], axes[3], beta1, beta2)
            + kernel_from_beta(axes[1], axes[2], beta1, beta2)
            - kernel_from_beta(axes[1], axes[3], beta1, beta2)
        )
        assert np.max(np.abs(c)) <= TSIRELSON_BOUND + 1e-9

    def test_offset_azimuth_row_near_classical_bound(self):
        # at beta = 0.999 the violation survives but is small once the
        # azimuth stays away from the 45-degree degeneracies
        phis = np.radians(22.5 + 45.0 * np.arange(8))
        vecs = 0.999 * np.stack([np.cos(phis), np.sin(phis), np.zeros_like(phis)], axis=-1)
        values = np.abs(chsh_from_beta(DEFAULT_CONFIG, vecs, vecs))
        assert np.all(values > 2.0)
        assert np.all(values < 2.05)


class TestChshFromBeta:
    def test_transverse_axis_at_ultra_relativistic_momentum_raises(self):
        # the default axis b is transverse to the motion and vanishes
        beta = beta_from_momentum(np.array([1e16, 0.0, 0.0]), 1.0)
        with pytest.raises(DegenerateObservableError, match="axis vanished"):
            chsh_from_beta(DEFAULT_CONFIG, beta, beta)


class TestSharpRoutes:
    """The velocity routes, which take ``beta`` as given, against the
    momentum routes through ``Sharp.from_beta``, on random axes at speeds
    up to ``1 - 1e-4``, within ROUTE_ULPS times gamma ulps of the largest
    value."""

    def test_bell_average(self):
        rng = np.random.default_rng(31)
        betas, gammas = fast_velocities(rng, 3000)
        bound = ROUTE_ULPS * np.spacing(TSIRELSON_BOUND) * gammas
        for beta, limit, axes in zip(betas, bound, random_unit(rng, 4 * 3000).reshape(-1, 4, 3)):
            config = BellConfig(*axes)
            want = bell_average_sharp(config, beta)
            got = bell_average_mc(config, Sharp.from_beta(beta), 100, seed=0).value
            assert abs(got - want) <= limit, (beta, axes)

    def test_correlator(self):
        rng = np.random.default_rng(37)
        betas, gammas = fast_velocities(rng, 3000)
        bound = ROUTE_ULPS * np.spacing(1.0) * gammas
        for beta, limit, a, b in zip(betas, bound, random_unit(rng, 3000), random_unit(rng, 3000)):
            want = correlator_sharp(a, b, beta)
            got = correlator_mc(a, b, Sharp.from_beta(beta), 100, seed=0).value
            assert abs(got - want) <= limit, (beta, a, b)


class TestBellAverageMC:
    def test_sharp_short_circuit(self):
        dist = Sharp.from_beta((0.9, 0.0, 0.0))
        est = bell_average_mc(DEFAULT_CONFIG, dist, 1000, seed=0)
        # beta -> momentum -> beta loses one ulp, so compare at that level
        assert est.value == pytest.approx(
            bell_average_sharp(DEFAULT_CONFIG, (0.9, 0.0, 0.0)), rel=0, abs=1e-14
        )
        assert est.standard_error == 0.0
        # nothing is drawn for a sharp profile
        assert est.samples == 0
        assert est == bell_average_mc(DEFAULT_CONFIG, dist, 1000, seed=99)

    def test_sharp_velocity_and_momentum_routes_agree_to_ulps(self):
        # bell_average_sharp takes beta as given, while Sharp.from_beta (and
        # the command line's --beta) first builds the momentum m gamma beta,
        # so the two round apart by a few ulps
        rng = np.random.default_rng(23)
        speeds = rng.uniform(0.0, 0.9999, 2000)
        for beta in random_unit(rng, 2000) * speeds[:, None]:
            want = bell_average_sharp(DEFAULT_CONFIG, beta)
            got = bell_average_mc(DEFAULT_CONFIG, Sharp.from_beta(beta), 100, seed=0).value
            assert abs(got - want) <= 4 * np.spacing(abs(want)), beta

    def test_sharp_matches_momentum_path_bit_for_bit(self):
        # run_protocol's path: the recorded momenta projected with the mass
        p, mass = np.array([[-2.96, 0.37, 0.5]]), 2.759
        est = bell_average_mc(DEFAULT_CONFIG, Sharp(p[0], mass), 100, seed=0)
        want = correlator._momentum_rows(*_sides(DEFAULT_CONFIG), p, p, mass, _chsh_sum)
        assert est.value == float(want[0])
        assert (est.standard_error, est.rejected) == (0.0, 0)

    def test_gaussian_brackets_sharp_value(self):
        dist = CorrelatedGaussian.from_beta((0.9, 0.0, 0.0), sigma=0.02)
        est = bell_average_mc(DEFAULT_CONFIG, dist, 20_000, seed=1)
        assert est.standard_error > 0.0
        assert abs(est.value - gully(0.9)) < 4.0 * est.standard_error

    def test_errors_combine_in_quadrature_over_shared_draws(self, monkeypatch):
        monkeypatch.setattr(correlator, "DEFAULT_CHUNK_SIZE", 1024)
        dist = CorrelatedGaussian.from_beta((0.8, 0.0, 0.0), sigma=0.05)
        kwargs = dict(samples=5000, seed=9)
        bell_est = bell_average_mc(DEFAULT_CONFIG, dist, **kwargs)
        parts = [
            correlator_mc(a_dir, b_dir, dist, **kwargs)
            for a_dir, b_dir in DEFAULT_CONFIG.axis_pairs
        ]
        signs = [1.0, 1.0, 1.0, -1.0]
        value = sum(s * p.value for s, p in zip(signs, parts))
        error = math.sqrt(sum(p.standard_error**2 for p in parts))
        assert bell_est.value == pytest.approx(value, rel=0, abs=1e-15)
        assert bell_est.standard_error == pytest.approx(error, rel=1e-12)

    def test_worker_independence(self, monkeypatch):
        monkeypatch.setattr(correlator, "DEFAULT_CHUNK_SIZE", 4096)
        dist = CorrelatedGaussian.from_beta((0.9, 0.0, 0.0), sigma=0.02)
        kwargs = dict(samples=30_000, seed=4)
        assert bell_average_mc(DEFAULT_CONFIG, dist, **kwargs, workers=1) == (
            bell_average_mc(DEFAULT_CONFIG, dist, **kwargs, workers=3)
        )

    def test_workers_must_be_positive(self):
        # checked ahead of the Sharp short-circuit, like the sample floor
        for dist in (Sharp.from_beta((0.9, 0.0, 0.0)),
                     CorrelatedGaussian.from_beta((0.9, 0.0, 0.0), sigma=0.02)):
            for workers in (0, -5):
                with pytest.raises(ValueError, match="workers must be >= 1"):
                    bell_average_mc(DEFAULT_CONFIG, dist, 1000, seed=0, workers=workers)
                with pytest.raises(ValueError, match="workers must be >= 1"):
                    correlator_mc((1, 0, 0), (0, 1, 0), dist, 1000, seed=0, workers=workers)


def hermite_chsh(dist, q):
    """The CHSH average over a correlated Gaussian beam by a tensor
    Gauss-Hermite rule of ``q`` nodes per momentum component, the kernels
    formed at the nodes as the protocol forms them."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(q)
    weights = weights / math.sqrt(2.0 * math.pi)
    grid = np.stack(np.meshgrid(nodes, nodes, nodes, indexing="ij"), axis=-1).reshape(-1, 3)
    w = np.einsum("i,j,k->ijk", weights, weights, weights).ravel()
    p = np.asarray(dist.mean) + np.asarray(dist.sigma) * grid
    values = correlator._momentum_rows(*_sides(DEFAULT_CONFIG), p, p, dist.mass, _chsh_sum)
    return float(w @ values)


#: Correlated beams whose kernels are smooth over the Gaussian's reach:
#: the mean speed with its spread, and the q = 48 reference.
HERMITE_BEAMS = [
    ((0.9, 0.0, 0.0), 0.5, -2.611572139675),
    ((0.99, 0.0, 0.0), 0.3, -2.250621466710),
    ((0.9, 0.0, 0.0), 0.04, -2.632321511429),
]


class TestHermiteReference:
    """A deterministic reference for correlated beams: a tensor
    Gauss-Hermite rule, converged where q and 2q nodes agree."""

    @pytest.mark.parametrize("beta, sigma, want", HERMITE_BEAMS)
    def test_rule_converges_and_the_monte_carlo_brackets_it(self, beta, sigma, want):
        dist = CorrelatedGaussian.from_beta(beta, sigma)
        q24, q48 = hermite_chsh(dist, 24), hermite_chsh(dist, 48)
        assert abs(q24 - q48) <= 1e-8
        assert abs(q48 - want) <= 1e-11
        for seed in (1, 2, 3):
            est = bell_average_mc(DEFAULT_CONFIG, dist, 2**18, seed)
            assert abs(est.value - q48) <= 4.0 * est.standard_error, seed

    @pytest.mark.parametrize("beta", [(0.5, 0.5, 0.0), (0.9999, 0.0, 0.0)])
    def test_rule_exposes_a_spread_of_one_mass(self, beta):
        # the kernels bend on the scale |a.p| ~ m (their poles lie at
        # a.p = +-i m), so a spread of one mass converges slowly, whether
        # the beam reaches p = 0 or not (|mean| = 70 m at 0.9999): q and 2q
        # nodes differ by 2e-5 and 1.5e-6, and the q/2q check flags both
        dist = CorrelatedGaussian.from_beta(beta, 1.0)
        assert abs(hermite_chsh(dist, 24) - hermite_chsh(dist, 48)) > 1e-6


class TestCorrectedThreshold:
    def test_rest_recovers_quantum_maximum(self):
        assert corrected_threshold(
            DEFAULT_CONFIG, Sharp((0.0, 0.0, 0.0)), 100, seed=0
        ) == pytest.approx(TSIRELSON_BOUND, abs=1e-12)

    def test_fast_beam_along_gully(self):
        threshold = corrected_threshold(
            DEFAULT_CONFIG, Sharp.from_beta((0.9, 0.0, 0.0)), 100, seed=0
        )
        assert threshold == pytest.approx(2.6326, abs=5e-5)

    def test_generic_geometry_close_to_classical_bound(self):
        # rotate the coplanar set off every degeneracy; at beta = 0.9999 the
        # threshold sits just above 2
        def rotz(t):
            c, s = math.cos(t), math.sin(t)
            return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])

        def roty(t):
            c, s = math.cos(t), math.sin(t)
            return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])

        rot = rotz(math.radians(20)) @ roty(math.radians(20))
        config = BellConfig(
            *(tuple(rot @ np.array(v)) for v in
              (DEFAULT_CONFIG.a, DEFAULT_CONFIG.a_prime, DEFAULT_CONFIG.b, DEFAULT_CONFIG.b_prime))
        )
        threshold = corrected_threshold(
            config, Sharp.from_beta((0.9999, 0.0, 0.0)), 100, seed=0
        )
        assert 2.0 < threshold < 2.01


class TestScanFigure:
    def test_grids_are_strictly_increasing(self):
        table = scan_figure(1, 11)
        betas = np.unique(table.column("beta"))
        phis = np.unique(table.column("phi"))
        assert np.all(np.diff(betas) > 0)
        assert np.all(np.diff(phis) > 0)
        assert len(table.rows) == 11 * 11

    def test_respects_quantum_bound(self):
        for figure in (1, 2, 3, 4, 5):
            table = scan_figure(figure, 9)
            assert np.max(table.column("abs_c")) <= TSIRELSON_BOUND + 1e-9

    def test_fixed_speed_pair_scan_shape(self):
        table = scan_figure(3, 9)
        assert sorted(set(table.column("beta"))) == [0.95, 0.99]
        assert len(table.rows) == 2 * 9 * 9

    def test_rest_particle_scan_is_azimuth_periodic(self):
        table = scan_figure(4, 9)
        c = table.column("c").reshape(9, 9)
        assert_allclose(c[:, 0], c[:, -1], rtol=0, atol=1e-12)

    def test_single_correlation_scan_reaches_unity(self):
        table = scan_figure(6, 11)
        assert table.rows[0][1] == pytest.approx(0.0, abs=1e-15)
        assert table.rows[-1][1] == -1.0
        assert table.rows[-1][2] == -1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            scan_figure(7, 11)
        with pytest.raises(ValueError):
            scan_figure(1, 1)
        with pytest.raises(ValueError):
            scan_figure(1, 11, beta_max=1.5)
        # 1e200 squares to inf: scans keep the mass rule of every other input
        for mass in (-1.0, 0.0, math.nan, math.inf, 1e200):
            with pytest.raises(ValueError, match="mass"):
                scan_figure(1, 11, mass=mass)

    def test_deterministic_bytes(self):
        streams = []
        for _ in range(2):
            buffer = io.StringIO()
            scan_figure(2, 9).to_csv(buffer)
            streams.append(buffer.getvalue())
        assert streams[0] == streams[1]

    def test_json_form_carries_metadata(self):
        buffer = io.StringIO()
        scan_figure(5, 5).to_json(buffer)
        payload = json.loads(buffer.getvalue())
        assert payload["metadata"]["figure"] == 5
        assert payload["columns"] == ["beta", "c", "abs_c"]
        assert len(payload["records"]) == 5


class TestScanTable:
    def test_one_column_per_name(self):
        with pytest.raises(ValueError, match="names"):
            ScanTable(("beta", "c"), (np.zeros(3),), {})
        with pytest.raises(ValueError, match="names"):
            ScanTable(("beta",), (np.zeros(3), np.zeros(3)), {})

    def test_columns_share_one_length(self):
        with pytest.raises(ValueError, match="equal length"):
            ScanTable(("beta", "c"), (np.zeros(3), np.zeros(2)), {})
        with pytest.raises(ValueError, match="1-D"):
            ScanTable(("beta", "c"), (np.zeros((3, 1)), np.zeros((3, 1))), {})

    def test_rows_match_columns_bit_for_bit(self):
        table = scan_figure(3, 9)
        rows = np.array(table.rows)
        assert all(type(v) is float for row in table.rows for v in row)
        for j, name in enumerate(table.columns):
            column = table.column(name)
            assert column.shape == (len(table.rows),)
            np.testing.assert_array_equal(rows[:, j].view(np.uint64), column.view(np.uint64))

    def test_column_returns_a_copy(self):
        table = scan_figure(3, 9)
        before = io.StringIO()
        table.to_csv(before)
        table.column("c")[:] = 0.0
        after = io.StringIO()
        table.to_csv(after)
        assert after.getvalue() == before.getvalue()
        assert np.any(table.column("c") != 0.0)


class TestGoldenTables:
    @pytest.mark.parametrize("figure", sorted(GOLDEN_RESOLUTIONS))
    def test_regeneration_is_byte_identical(self, figure):
        buffer = io.StringIO()
        scan_figure(figure, GOLDEN_RESOLUTIONS[figure]).to_csv(buffer)
        committed = (GOLDEN_DIR / f"fig{figure}.csv").read_text(encoding="utf-8")
        assert buffer.getvalue() == committed

    def _rows(self, figure):
        lines = (GOLDEN_DIR / f"fig{figure}.csv").read_text().splitlines()
        header = lines[0].split(",")
        return header, [tuple(float(x) for x in line.split(",")) for line in lines[1:]]

    def _lookup(self, figure, **axes):
        header, rows = self._rows(figure)
        for row in rows:
            record = dict(zip(header, row))
            if all(abs(record[k] - v) < 1e-9 for k, v in axes.items()):
                return record
        raise AssertionError(f"no row matching {axes} in fig{figure}")

    def test_joint_motion_azimuth_spots(self):
        betas = np.linspace(0.0, 0.999, 41)
        spot = self._lookup(1, beta=0.0, phi=0.0)
        assert spot["c"] == pytest.approx(-TSIRELSON_BOUND, abs=1e-12)
        spot = self._lookup(1, beta=betas[36], phi=0.0)
        assert spot["c"] == pytest.approx(gully(betas[36]), rel=0, abs=1e-12)
        generic = betas[20], np.linspace(0, 2 * math.pi, 41)[3]
        spot = self._lookup(1, beta=generic[0], phi=generic[1])
        beta_vec = generic[0] * np.array([math.cos(generic[1]), math.sin(generic[1]), 0.0])
        assert spot["c"] == pytest.approx(chsh_quotient(beta_vec), rel=0, abs=1e-12)

    def test_joint_motion_polar_spots(self):
        betas = np.linspace(0.0, 0.999, 41)
        thetas = np.linspace(0.0, math.pi, 41)
        spot = self._lookup(2, beta=betas[36], theta=0.0)
        assert spot["c"] == pytest.approx(-TSIRELSON_BOUND, abs=1e-12)
        spot = self._lookup(2, beta=betas[36], theta=thetas[20])
        assert spot["c"] == pytest.approx(gully(betas[36]), rel=0, abs=1e-12)
        spot = self._lookup(2, beta=betas[10], theta=thetas[5])
        beta_vec = betas[10] * np.array([math.sin(thetas[5]), 0.0, math.cos(thetas[5])])
        assert spot["c"] == pytest.approx(chsh_quotient(beta_vec), rel=0, abs=1e-12)

    def test_direction_sphere_spots(self):
        phis = np.linspace(0.0, 2 * math.pi, 21)
        thetas = np.linspace(0.0, math.pi, 21)
        spot = self._lookup(3, beta=0.99, phi=0.0, theta=0.0)
        assert spot["c"] == pytest.approx(-TSIRELSON_BOUND, abs=1e-12)
        spot = self._lookup(3, beta=0.95, phi=0.0, theta=thetas[10])
        assert spot["c"] == pytest.approx(gully(0.95), rel=0, abs=1e-12)
        spot = self._lookup(3, beta=0.99, phi=phis[2], theta=thetas[7])
        beta_vec = 0.99 * np.array(
            [
                math.cos(phis[2]) * math.sin(thetas[7]),
                math.sin(phis[2]) * math.sin(thetas[7]),
                math.cos(thetas[7]),
            ]
        )
        assert spot["c"] == pytest.approx(chsh_quotient(beta_vec), rel=0, abs=1e-12)

    def test_rest_particle_spots(self):
        betas = np.linspace(0.0, 0.999, 41)
        phis = np.linspace(0.0, 2 * math.pi, 41)
        # along phi = 0 the moving particle's axes keep their directions, so
        # the rest maximum survives at any speed
        spot = self._lookup(4, beta=betas[36], phi=0.0)
        assert spot["c"] == pytest.approx(-TSIRELSON_BOUND, abs=1e-12)
        # the phi = 45 degree gully of the asymmetric scan coincides with the
        # joint-motion gully
        spot = self._lookup(4, beta=betas[36], phi=phis[5])
        assert spot["c"] == pytest.approx(gully(betas[36]), rel=0, abs=1e-12)
        spot = self._lookup(4, beta=betas[20], phi=phis[3])

        def mixed_quotient(a, b, beta_vec):
            a, b, beta_vec = (np.asarray(v, dtype=float) for v in (a, b, beta_vec))
            n = beta_vec / np.linalg.norm(beta_vec)
            root = math.sqrt(1.0 - float(beta_vec @ beta_vec))
            v2 = root * (b - (b @ n) * n) + (b @ n) * n
            return -float(a @ v2) / np.linalg.norm(v2)

        beta_vec = betas[20] * np.array([math.cos(phis[3]), math.sin(phis[3]), 0.0])
        expected = (
            mixed_quotient(DEFAULT_CONFIG.a, DEFAULT_CONFIG.b, beta_vec)
            + mixed_quotient(DEFAULT_CONFIG.a, DEFAULT_CONFIG.b_prime, beta_vec)
            + mixed_quotient(DEFAULT_CONFIG.a_prime, DEFAULT_CONFIG.b, beta_vec)
            - mixed_quotient(DEFAULT_CONFIG.a_prime, DEFAULT_CONFIG.b_prime, beta_vec)
        )
        assert spot["c"] == pytest.approx(expected, rel=0, abs=1e-12)

    def test_gully_cut_spots(self):
        betas = np.linspace(0.0, 0.999, 201)
        for index in (0, 100, 200):
            spot = self._lookup(5, beta=betas[index])
            assert spot["c"] == pytest.approx(gully(betas[index]), rel=0, abs=1e-12)

    def test_single_correlation_spots(self):
        spot = self._lookup(6, beta=0.0)
        assert spot["correlation"] == pytest.approx(0.0, abs=1e-15)
        spot = self._lookup(6, beta=1.0)
        assert spot["correlation"] == -1.0
        spot = self._lookup(6, beta=0.6)
        assert spot["correlation"] == pytest.approx(-9.0 / 41.0, rel=0, abs=1e-12)
        assert spot["reference"] == pytest.approx(math.sqrt(1 - 0.36) - 1.0, rel=0, abs=1e-12)
