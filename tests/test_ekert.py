import dataclasses
import io
import json
import math
import threading
from statistics import NormalDist

import numpy as np
import pytest

from relbell import (
    DEFAULT_CONFIG,
    MIN_TEST_ROUNDS,
    TSIRELSON_BOUND,
    BellConfig,
    CorrelatedGaussian,
    DegenerateObservableError,
    InterceptResend,
    JointGaussian,
    ProtocolConfig,
    ProtocolTranscript,
    Sharp,
    UndersampledTestError,
    bell_average_mc,
    bell_test,
    beta_from_momentum,
    chsh_from_beta,
    kernel_from_beta,
    momentum_for_beta,
    run_protocol,
    verdict,
)
from relbell import correlator, ekert
from relbell.ekert import SCHEMA_VERSION
from test_pinned_bytes import MC_REPRS, TRANSCRIPT_SHA256, mc_reprs, transcript_digests


def make_config(**overrides):
    params = dict(
        pair_count=4000,
        distribution=Sharp.from_beta((0.9, 0.0, 0.0)),
        seed=7,
    )
    params.update(overrides)
    return ProtocolConfig(**params)


class TestOutcomeLaw:
    def test_product_expectation_matches_kernel(self):
        # P(s, t) = (1 + s t K) / 4 through the vectorized protocol outcomes:
        # unbiased marginals, and E[s t] = K on the (a, b) test cell
        diagonal = (math.sqrt(0.5), math.sqrt(0.5), 0.0)
        bell = BellConfig(
            a=(1.0, 0.0, 0.0), a_prime=(0.0, 0.0, 1.0),
            b=diagonal, b_prime=(0.0, 0.0, 1.0),
        )
        config = make_config(
            pair_count=40_000, distribution=Sharp.from_beta((0.8, 0.0, 0.0)), bell=bell
        )
        transcript = run_protocol(config)
        s = transcript.alice_outcome.astype(float)
        t = transcript.bob_outcome.astype(float)
        n = s.size
        assert abs(s.mean()) < 5.0 / math.sqrt(n)
        assert abs(t.mean()) < 5.0 / math.sqrt(n)
        cell = (transcript.alice_basis == 1) & (transcript.bob_basis == 1)
        beta = beta_from_momentum(np.array(config.distribution.momentum), 1.0)
        k = float(kernel_from_beta(bell.a, bell.b, beta, beta))
        assert k != 0.0
        assert (s[cell] * t[cell]).mean() == pytest.approx(
            k, abs=5.0 / math.sqrt(cell.sum())
        )

    def test_perfect_anticorrelation_on_shared_axis(self):
        transcript = run_protocol(
            make_config(distribution=Sharp.from_beta((0.0, 0.3, 0.9)))
        )
        sifted = transcript.sifted_indices
        assert sifted.size > 500
        assert np.array_equal(
            transcript.bob_outcome[sifted], -transcript.alice_outcome[sifted]
        )


class TestVerdict:
    def test_fast_beam_flags_naive_but_not_corrected(self):
        # an honest 0.9c run lands near 2.63: far below the rest-frame
        # maximum, dead on the motion-adjusted threshold
        assert verdict(-2.63, 0.02, TSIRELSON_BOUND, 0.01) == "eavesdropper"
        assert verdict(-2.63, 0.02, 2.6326, 0.01) == "clean"

    def test_true_attack_fails_both(self):
        assert verdict(-1.9, 0.02, TSIRELSON_BOUND, 0.01) == "eavesdropper"
        assert verdict(-1.9, 0.02, 2.028, 0.01) == "eavesdropper"

    def test_boundary_is_clean(self):
        assert verdict(-2.0, 0.0, 2.0, 0.01) == "clean"
        assert verdict(-1.9999999, 0.0, 2.0, 0.01) == "eavesdropper"

    def test_significance_moves_the_cut(self):
        # 1.96 sigma below the threshold: flagged at 5%, tolerated at 1%
        z95 = NormalDist().inv_cdf(0.95)
        c_hat = -(2.6326 - (z95 + 0.2) * 0.02)
        assert verdict(c_hat, 0.02, 2.6326, 0.05) == "eavesdropper"
        assert verdict(c_hat, 0.02, 2.6326, 0.01) == "clean"


class TestProtocolConfigValidation:
    def test_key_axes_must_be_unit(self):
        with pytest.raises(ValueError, match="unit"):
            make_config(key_axes=((0.0, 0.0, 2.0),))
        with pytest.raises(ValueError, match="at least one axis"):
            make_config(key_axes=())

    def test_test_fraction_bounds(self):
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError, match="test_fraction"):
                make_config(test_fraction=bad)

    def test_pair_count_floor_scales_with_test_fraction(self):
        with pytest.raises(ValueError, match="too few test rounds"):
            make_config(pair_count=150)
        make_config(pair_count=150, test_fraction=0.8)

    def test_significance_bounds(self):
        for significance in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError, match="significance must be in"):
                make_config(significance=significance)

    def test_threshold_mode_choices(self):
        with pytest.raises(ValueError, match="threshold_mode"):
            make_config(threshold_mode="exact")

    def test_threshold_sample_floor(self):
        with pytest.raises(ValueError, match="threshold_samples = 99"):
            make_config(threshold_samples=99)
        make_config(threshold_samples=100)

    def test_seed_must_be_a_nonnegative_integer(self):
        for bad in (-1, 1.5, "7", True, None):
            with pytest.raises(ValueError, match="seed"):
                make_config(seed=bad)
        assert make_config(seed=np.int64(7)).seed == 7
        assert type(make_config(seed=np.int64(7)).seed) is int

    def test_threshold_samples_must_be_an_integer(self):
        for bad in (1000.5, 20_000.0, "20000", True):
            with pytest.raises(ValueError, match="threshold_samples must be an integer"):
                make_config(threshold_samples=bad)
        assert type(make_config(threshold_samples=np.int64(1000)).threshold_samples) is int

    def test_pair_count_must_be_an_integer(self):
        for bad in (2000.0, 4000.5, "4000", False):
            with pytest.raises(ValueError, match="pair_count must be an integer"):
                make_config(pair_count=bad)
        with pytest.raises(ValueError, match="too few test rounds"):
            make_config(pair_count=-4000)

    def test_attack_probability_bounds(self):
        with pytest.raises(ValueError, match="attack_probability"):
            InterceptResend(attack_probability=1.5)
        with pytest.raises(ValueError, match="unit"):
            InterceptResend(basis_pool=((1.0, 1.0, 0.0),))
        with pytest.raises(ValueError, match="at least one axis"):
            InterceptResend(basis_pool=())

    def test_pools_must_fit_an_int16_index(self):
        limit = ekert.MAX_POOL_AXES
        assert limit == 32768
        z = (0.0, 0.0, 1.0)
        # key axes plus the two test axes make Alice's and Bob's pools
        assert len(make_config(key_axes=(z,) * (limit - 2)).key_axes) == limit - 2
        with pytest.raises(ValueError, match=f"make {limit + 1} axes.*at most {limit}"):
            make_config(key_axes=(z,) * (limit - 1))
        # Bob's pool followed by Eve's is indexed as one
        eve = InterceptResend(basis_pool=(z,) * (limit - 3))
        assert make_config(eve=eve).eve == eve
        with pytest.raises(ValueError, match=f"basis_pool make {limit + 1} axes"):
            make_config(eve=InterceptResend(basis_pool=(z,) * (limit - 2)))

    def test_eve_pool_is_empty_without_an_eavesdropper(self):
        assert make_config().eve_pool.shape == (0, 3)
        eve = InterceptResend(basis_pool=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)))
        assert make_config(eve=eve).eve_pool.tolist() == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]


class TestSifting:
    @pytest.mark.parametrize("beta", [0.0, 0.9, 0.99])
    def test_keys_agree_exactly(self, beta):
        config = make_config(
            pair_count=10_000, distribution=Sharp.from_beta((beta, 0.0, 0.0))
        )
        transcript = run_protocol(config)
        assert transcript.alice_key_bits.size > 1000
        assert transcript.key_disagreement_rate() == 0.0

    def test_keys_agree_for_spread_beam(self):
        dist = CorrelatedGaussian.from_beta((0.9, 0.0, 0.0), sigma=0.05)
        transcript = run_protocol(make_config(pair_count=4000, distribution=dist))
        assert transcript.key_disagreement_rate() == 0.0

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_two_momentum_disagreement_rate_follows_the_kernel(self, seed):
        # with two momenta K(a, a; p1, p2) > -1, so an honest sifted bit
        # disagrees with probability (1 + K)/2: the rate must lie within 4
        # binomial sigmas of that probability's mean over the sifted rows
        dist = JointGaussian(
            momentum_for_beta((0.9, 0.0, 0.0)), 0.1, momentum_for_beta((0.0, 0.8, 0.3)), 0.1
        )
        transcript = run_protocol(make_config(pair_count=20_000, distribution=dist, seed=seed))
        rows = transcript.sifted_indices
        axes = transcript.config.alice_pool[transcript.alice_basis[rows]]
        beta1 = beta_from_momentum(transcript.momentum1[rows], dist.mass)
        beta2 = beta_from_momentum(transcript.momentum2[rows], dist.mass)
        p = float(np.mean((1.0 + kernel_from_beta(axes, axes, beta1, beta2)) / 2))
        assert p > 0.01
        sigma = math.sqrt(p * (1.0 - p) / rows.size)
        assert abs(transcript.key_disagreement_rate() - p) <= 4.0 * sigma

    def test_sifted_rounds_are_matching_key_rounds(self):
        config = make_config(key_axes=((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)))
        transcript = run_protocol(config)
        mask = (transcript.alice_basis == transcript.bob_basis) & (
            transcript.alice_basis < 2
        )
        assert np.array_equal(transcript.sifted_indices, np.nonzero(mask)[0])
        assert transcript.alice_key_bits.size == transcript.sifted_indices.size

    def test_no_sifted_bits_read_no_disagreement(self):
        t = run_protocol(make_config(pair_count=800))
        empty = np.array([], dtype=np.uint8)
        unsifted = dataclasses.replace(t, sifted_indices=np.array([], dtype=np.intp),
                                       alice_key_bits=empty, bob_key_bits=empty)
        assert unsifted.key_disagreement_rate() == 0.0
        assert unsifted.summary()["sifted_bits"] == 0

    def test_bit_conventions(self):
        transcript = run_protocol(make_config())
        idx = transcript.sifted_indices
        expected_alice = (transcript.alice_outcome[idx] + 1) // 2
        expected_bob = (1 - transcript.bob_outcome[idx]) // 2
        assert np.array_equal(transcript.alice_key_bits, expected_alice)
        assert np.array_equal(transcript.bob_key_bits, expected_bob)


class TestBellTest:
    def test_test_round_correlations_track_kernel(self):
        config = make_config(pair_count=40_000, seed=3)
        transcript = run_protocol(config)
        result = transcript.bell_corrected
        beta = beta_from_momentum(np.array(config.distribution.momentum), 1.0)
        pairs = [
            (config.bell.a, config.bell.b),
            (config.bell.a, config.bell.b_prime),
            (config.bell.a_prime, config.bell.b),
            (config.bell.a_prime, config.bell.b_prime),
        ]
        for (a_dir, b_dir), e, n in zip(
            pairs, result.pair_correlations, result.pair_counts
        ):
            k = float(kernel_from_beta(a_dir, b_dir, beta, beta))
            assert e == pytest.approx(k, abs=5.0 / math.sqrt(n))

    def test_estimator_brackets_truth_across_seeds(self):
        hits = 0
        for seed in range(100):
            transcript = run_protocol(make_config(pair_count=4000, seed=seed))
            result = transcript.bell_corrected
            truth = float(
                chsh_from_beta(
                    DEFAULT_CONFIG,
                    beta_from_momentum(np.array(transcript.config.distribution.momentum), 1.0),
                    beta_from_momentum(np.array(transcript.config.distribution.momentum), 1.0),
                )
            )
            if abs(result.c_hat - truth) <= 3.0 * result.standard_error:
                hits += 1
        assert hits >= 95

    def test_naive_threshold_is_rest_frame_maximum(self):
        transcript = run_protocol(make_config())
        assert transcript.bell_naive.threshold == TSIRELSON_BOUND
        assert transcript.bell_naive.corrected is False

    def test_empirical_threshold_matches_sharp_average(self):
        transcript = run_protocol(make_config())
        beta = beta_from_momentum(np.array(transcript.config.distribution.momentum), 1.0)
        expected = abs(float(chsh_from_beta(DEFAULT_CONFIG, beta, beta)))
        assert transcript.bell_corrected.threshold == pytest.approx(
            expected, rel=0, abs=1e-12
        )

    def test_configured_threshold_for_sharp_is_exact(self):
        config = make_config(threshold_mode="configured", threshold_samples=500)
        transcript = run_protocol(config)
        expected = abs(
            bell_average_mc(config.bell, config.distribution, 500, seed=0).value
        )
        assert transcript.bell_corrected.threshold == expected

    def test_explicit_threshold_overrides(self):
        transcript = run_protocol(make_config())
        result = bell_test(transcript, corrected=True, threshold=2.5)
        assert result.threshold == 2.5

    def test_undersampled_pair_raises(self):
        config = make_config(pair_count=400, distribution=Sharp((0.0, 0.0, 0.0)))
        basis = np.ones(400, dtype=np.int16)
        basis[200:310] = 2
        bob = np.ones(400, dtype=np.int16)
        bob[100:200] = 2
        bob[300:310] = 2  # ten rounds only on the (a', b') cell
        transcript = ProtocolTranscript(
            config=config,
            momentum1=np.zeros((400, 3)),
            momentum2=np.zeros((400, 3)),
            alice_basis=basis,
            bob_basis=bob,
            alice_outcome=np.ones(400, dtype=np.int8),
            bob_outcome=-np.ones(400, dtype=np.int8),
            attacked=np.zeros(400, dtype=bool),
            eve_basis=np.full(400, -1, dtype=np.int16),
            eve_outcome=np.zeros(400, dtype=np.int8),
            sifted_indices=np.array([], dtype=np.int64),
            alice_key_bits=np.array([], dtype=np.uint8),
            bob_key_bits=np.array([], dtype=np.uint8),
        )
        with pytest.raises(UndersampledTestError, match="test rounds"):
            bell_test(transcript)

    def test_fast_honest_beam_splits_the_verdicts(self):
        transcript = run_protocol(make_config(pair_count=20_000, seed=1))
        assert transcript.bell_naive.verdict == "eavesdropper"
        assert transcript.bell_corrected.verdict == "clean"


class TestInterceptResend:
    def test_attack_sets_nest_with_probability(self):
        previous = None
        counts = []
        for prob in (0.0, 0.3, 0.7, 1.0):
            eve = InterceptResend(attack_probability=prob)
            transcript = run_protocol(make_config(pair_count=2000, eve=eve))
            rows = set(np.nonzero(transcript.attacked)[0].tolist())
            counts.append(len(rows))
            if previous is not None:
                assert previous <= rows
            previous = rows
        assert counts[0] == 0
        assert counts[-1] == 2000
        assert counts == sorted(counts)

    def test_unattacked_rounds_shared_across_probabilities(self):
        base = run_protocol(make_config(pair_count=2000))
        eve = InterceptResend(attack_probability=0.3)
        attacked_run = run_protocol(make_config(pair_count=2000, eve=eve))
        safe = ~attacked_run.attacked
        assert np.array_equal(base.alice_outcome, attacked_run.alice_outcome)
        assert np.array_equal(base.bob_outcome[safe], attacked_run.bob_outcome[safe])
        assert not np.array_equal(base.bob_outcome, attacked_run.bob_outcome)

    def test_full_attack_at_rest_matches_enumeration(self):
        # averaging the intercept-resend chain over the four-axis pool at
        # zero momentum gives a CHSH value of exactly -sqrt(2)
        eve = InterceptResend(attack_probability=1.0)
        config = make_config(
            pair_count=20_000, distribution=Sharp((0.0, 0.0, 0.0)), eve=eve, seed=5
        )
        transcript = run_protocol(config)
        result = transcript.bell_corrected
        assert result.c_hat == pytest.approx(
            -math.sqrt(2.0), abs=3.0 * result.standard_error
        )
        assert result.verdict == "eavesdropper"
        assert transcript.bell_naive.verdict == "eavesdropper"
        assert abs(result.c_hat) + result.z_value * result.standard_error < 2.0

    def test_degenerate_resend_axis_raises(self):
        # Eve's axis is longitudinal to particle 2 and survives the boost;
        # the norm of Bob's transverse key axis, (2^180 m/|p|)^2 in the
        # scaled row's units, underflows past |p|/m ~ 1e208
        config = make_config(
            distribution=JointGaussian((0, 0, 0), 0.0, (1e250, 0, 0), 0.0),
            eve=InterceptResend(basis_pool=((1.0, 0.0, 0.0),), attack_probability=1.0),
        )
        with pytest.raises(DegenerateObservableError, match="resend axis became degenerate"):
            run_protocol(config)

    def test_eve_columns_marked_only_on_attacked_rounds(self):
        eve = InterceptResend(attack_probability=0.5)
        transcript = run_protocol(make_config(pair_count=2000, eve=eve))
        attacked = transcript.attacked
        assert np.all(transcript.eve_basis[attacked] >= 0)
        assert np.all(transcript.eve_basis[~attacked] == -1)
        assert np.all(np.abs(transcript.eve_outcome[attacked]) == 1)
        assert np.all(transcript.eve_outcome[~attacked] == 0)


BEAM = CorrelatedGaussian.from_beta((0.9, 0.0, 0.0), sigma=0.05)
JOINT_BEAM = JointGaussian(
    momentum_for_beta((0.85, 0.0, 0.0)), 0.04, momentum_for_beta((0.0, 0.85, 0.0)), 0.04
)


def key_axes(count: int) -> tuple:
    """``count`` unit key axes: z first, then fixed random directions."""
    rng = np.random.default_rng(count)
    rest = rng.normal(size=(count - 1, 3))
    rest /= np.linalg.norm(rest, axis=1, keepdims=True)
    return ((0.0, 0.0, 1.0),) + tuple(map(tuple, rest))


def masked_statistics(transcript):
    """Per-basis-pair test counts and correlations from the masked test
    rounds, as the run once formed them."""
    n_key = len(transcript.config.key_axes)
    a_test = transcript.alice_basis - n_key
    b_test = transcript.bob_basis - n_key
    test = (a_test >= 0) & (b_test >= 0)
    pair = 2 * a_test[test] + b_test[test]
    products = transcript.alice_outcome[test] * transcript.bob_outcome[test]
    counts = np.bincount(pair, minlength=4).tolist()
    sums = np.bincount(pair, weights=products, minlength=4).tolist()
    return tuple(counts), tuple(total / count for total, count in zip(sums, counts))


class TestBookkeeping:
    """The per-round columns a run hands the writers and the Bell check."""

    @pytest.mark.parametrize("beam", [BEAM, JOINT_BEAM], ids=["correlated", "joint"])
    @pytest.mark.parametrize("n_key", [1, 3])
    @pytest.mark.parametrize("p_eve", [None, 0.0, 0.5, 1.0])
    def test_column_dtypes_and_shapes(self, beam, n_key, p_eve):
        eve = None if p_eve is None else InterceptResend(attack_probability=p_eve)
        t = run_protocol(make_config(pair_count=2000, distribution=beam,
                                     key_axes=key_axes(n_key), eve=eve))
        dtypes = dict(
            alice_basis=np.int16, bob_basis=np.int16, eve_basis=np.int16,
            alice_outcome=np.int8, bob_outcome=np.int8, eve_outcome=np.int8,
            attacked=np.bool_,
        )
        for name, dtype in dtypes.items():
            column = getattr(t, name)
            assert column.dtype == dtype, name
            assert column.shape == (2000,), name
        assert t.momentum1.shape == t.momentum2.shape == (2000, 3)
        assert np.issubdtype(t.sifted_indices.dtype, np.integer)
        for bits in (t.alice_key_bits, t.bob_key_bits):
            assert bits.dtype == np.uint8
            assert bits.shape == t.sifted_indices.shape
            assert set(np.unique(bits).tolist()) <= {0, 1}
        assert t.attacked.any() == (p_eve in (0.5, 1.0))
        assert t.attacked.all() == (p_eve == 1.0)

    @pytest.mark.parametrize("n_key", [1, 3, 200])
    def test_statistics_equal_the_masked_reference(self, n_key):
        t = run_protocol(make_config(distribution=BEAM, key_axes=key_axes(n_key),
                                     eve=InterceptResend(attack_probability=0.5)))
        assert ekert._test_statistics(t) == masked_statistics(t)

    @pytest.mark.parametrize("n_key", [1, 3, 200])
    @pytest.mark.parametrize("test_fraction", [0.37, 0.5])
    def test_bases_equal_the_masked_copy(self, n_key, test_fraction):
        def masked(rng, n):
            is_test = rng.random(n) < test_fraction
            test_pick = rng.integers(0, 2, size=n) + n_key
            key_pick = rng.integers(0, n_key, size=n)
            np.copyto(key_pick, test_pick, where=is_test)
            return key_pick.astype(np.int16)

        for n in (1, 777, 2**17):
            bases = ekert._choose_bases(np.random.default_rng(n), n, n_key, test_fraction)
            assert bases.dtype == np.int16
            assert bases.tobytes() == masked(np.random.default_rng(n), n).tobytes()

    @pytest.mark.parametrize("n_key", [1, 3, 200])
    @pytest.mark.parametrize("p_eve", [0.3, 1.0])
    @pytest.mark.parametrize("eve_axes", [1, 4])
    def test_eve_and_partner_equal_the_select_forms(self, n_key, p_eve, eve_axes):
        eve = InterceptResend(basis_pool=key_axes(eve_axes), attack_probability=p_eve)
        config = make_config(pair_count=30_001, key_axes=key_axes(n_key), eve=eve)
        n = config.pair_count
        attacked, eve_basis, u_resend = ekert._draw_eve(config, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        flags = rng.random(n) < p_eve
        picks = rng.integers(0, eve_axes, size=n).astype(np.int16)
        np.copyto(picks, -1, where=~flags)
        assert attacked.tobytes() == flags.tobytes()
        assert eve_basis.dtype == np.int16 and eve_basis.tobytes() == picks.tobytes()
        assert u_resend.tobytes() == rng.random(n)[flags].tobytes()

        bob_idx = ekert._choose_bases(np.random.default_rng(6), n, n_key, 0.5)
        bob_axes = n_key + 2
        partner = ekert._partner_index(bob_idx, attacked, eve_basis, bob_axes)
        expected = np.where(attacked, eve_basis + np.int16(bob_axes), bob_idx)
        assert partner.dtype == np.int16 and partner.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("eve", [None, InterceptResend(attack_probability=0.0)],
                             ids=["no_eve", "p_eve_0"])
    def test_an_attack_that_cannot_fire_gives_the_honest_columns(self, eve):
        config = make_config(pair_count=3000, eve=eve)
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        attacked, eve_basis, u_resend = ekert._draw_eve(config, rng)
        # nothing is drawn from Eve's stream
        assert rng.bit_generator.state == state
        assert attacked.dtype == np.bool_ and not attacked.any() and attacked.shape == (3000,)
        assert eve_basis.dtype == np.int16 and eve_basis.tolist() == [-1] * 3000
        assert u_resend.size == 0
        bob_idx = ekert._choose_bases(np.random.default_rng(6), 3000, 1, 0.5)
        # no attacked round: the partner index is Bob's own, with no copy
        assert ekert._partner_index(bob_idx, attacked, eve_basis, 3) is bob_idx

    def test_partner_index_reaches_the_pool_limit(self):
        # Bob's 3 axes followed by Eve's MAX_POOL_AXES - 3: Eve's last axis
        # is index 32767, the largest an int16 holds, with no wrap on the way
        last = ekert.MAX_POOL_AXES - 4
        bob_idx = np.array([0, 2, 1, 2], dtype=np.int16)
        attacked = np.array([True, True, False, False])
        eve_basis = np.array([last, last, -1, -1], dtype=np.int16)
        partner = ekert._partner_index(bob_idx, attacked, eve_basis, 3)
        assert partner.tolist() == [32767, 32767, 1, 2]

    def test_starved_test_pair_raises_the_same_message(self):
        t = run_protocol(make_config(key_axes=key_axes(3)))
        bob = t.bob_basis.copy()
        cell = np.flatnonzero((t.alice_basis == 4) & (bob == 4))
        bob[cell[10:]] = 0  # ten rounds only on the (a', b') cell
        starved = dataclasses.replace(t, bob_basis=bob)
        message = f"basis pair (1, 1) has 10 test rounds; need at least {MIN_TEST_ROUNDS}"
        with pytest.raises(UndersampledTestError) as raised:
            ekert._test_statistics(starved)
        assert str(raised.value) == message


class TestTranscriptSerialization:
    def test_json_is_deterministic(self):
        payloads = []
        for _ in range(2):
            buffer = io.StringIO()
            run_protocol(make_config(pair_count=800)).to_json(buffer)
            payloads.append(buffer.getvalue())
        assert payloads[0] == payloads[1]

    def test_probability_zero_attack_equals_no_eve(self):
        streams = []
        for eve in (None, InterceptResend(attack_probability=0.0)):
            buffer = io.StringIO()
            run_protocol(make_config(pair_count=800, eve=eve)).to_json(buffer)
            streams.append(buffer.getvalue())
        assert streams[0] == streams[1]

    def test_config_dict_records_probability_zero_as_no_eve(self):
        eve = InterceptResend(attack_probability=0.0)
        assert make_config(eve=eve).to_dict() == make_config().to_dict()
        assert make_config(eve=eve).to_dict()["eve"] is None
        attacked = make_config(eve=InterceptResend(attack_probability=0.5)).to_dict()
        assert attacked["eve"]["attack_probability"] == 0.5

    def test_json_schema(self):
        buffer = io.StringIO()
        transcript = run_protocol(make_config(pair_count=800))
        transcript.to_json(buffer)
        payload = json.loads(buffer.getvalue())
        assert payload["schema_version"] == SCHEMA_VERSION
        assert set(payload) == {"schema_version", "config", "rounds", "sifted", "bell"}
        assert payload["config"]["eve"] is None
        assert payload["config"]["distribution"]["kind"] == "sharp"
        assert len(payload["rounds"]["alice_basis"]) == 800
        assert set(payload["sifted"]) == {"indices", "alice_bits", "bob_bits"}
        assert payload["sifted"]["alice_bits"] == payload["sifted"]["bob_bits"]
        assert payload["bell"]["naive"]["corrected"] is False
        assert payload["bell"]["corrected"]["verdict"] in ("clean", "eavesdropper")

    def test_csv_has_one_row_per_round(self):
        buffer = io.StringIO()
        transcript = run_protocol(make_config(pair_count=800))
        transcript.to_csv(buffer)
        lines = buffer.getvalue().splitlines()
        assert len(lines) == 801
        assert lines[0].startswith("index,p1x")
        assert lines[1].split(",")[0] == "0"

    def test_summary_keys(self):
        summary = run_protocol(make_config(pair_count=800)).summary()
        assert set(summary) == {
            "pair_count",
            "sifted_bits",
            "key_disagreement_rate",
            "c_hat",
            "stderr",
            "naive_verdict",
            "corrected_verdict",
            "threshold",
            "naive_threshold",
        }
        assert summary["pair_count"] == 800
        assert summary["naive_threshold"] == TSIRELSON_BOUND


def transcript_json(config) -> str:
    buffer = io.StringIO()
    run_protocol(config).to_json(buffer)
    return buffer.getvalue()


def transcripts_in_threads(configs, barrier=None) -> tuple[list, set]:
    """The JSON of one run per config, each run on a daemon thread of its own
    and joined with a timeout, so a run that deadlocks fails the caller
    instead of hanging it; also the names of those threads."""
    results = [None] * len(configs)

    def call(k):
        if barrier is not None:
            barrier.wait(timeout=60)
        results[k] = transcript_json(configs[k])

    threads = [threading.Thread(target=call, args=(k,), daemon=True)
               for k in range(len(configs))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads), "a protocol run hung"
    return results, {thread.name for thread in threads}



class TestThresholdOnThePool:
    """The corrected threshold of either mode is one job on the one-thread
    worker pool, formed while the caller draws the rounds; the configured
    one's one-worker Monte Carlo runs on that pool thread too."""

    def configs(self):
        return [
            make_config(distribution=BEAM, eve=eve, threshold_mode=mode,
                        threshold_samples=2000)
            for mode in ("empirical", "configured")
            for eve in (None, InterceptResend(attack_probability=0.5))
        ]

    def test_concurrent_runs_match_serial_runs(self, monkeypatch):
        configs = self.configs()
        serial = [transcripts_in_threads([config])[0][0] for config in configs]
        calls, chunks = [], set()
        corrected, evaluate = ekert._corrected_threshold, correlator._evaluate_chunk

        def recording(config, *args):
            calls.append((config.threshold_mode, threading.current_thread().name))
            return corrected(config, *args)

        def recording_chunk(*args):
            chunks.add(threading.current_thread().name)
            return evaluate(*args)

        monkeypatch.setattr(ekert, "_corrected_threshold", recording)
        monkeypatch.setattr(correlator, "_evaluate_chunk", recording_chunk)
        concurrent, callers = transcripts_in_threads(
            configs, threading.Barrier(len(configs))
        )
        assert concurrent == serial
        # one threshold job per run, both modes on the one pool thread and
        # never on a caller's
        assert sorted(mode for mode, _ in calls) == sorted(c.threshold_mode for c in configs)
        names = {name for _, name in calls}
        assert len(names) == 1
        assert not names & (callers | {threading.current_thread().name})
        # the configured threshold's Monte Carlo chunks ran on that thread too
        assert chunks == names

    def test_short_configured_run_starts_no_monte_carlo(self, monkeypatch):
        """The run counts the test basis pairs from its role job and raises
        for a short pair before it queues the threshold job, so no Monte
        Carlo starts for it."""
        calls = []
        threshold = ekert.corrected_threshold

        def recording(*args):
            calls.append(args[2])
            return threshold(*args)

        monkeypatch.setattr(ekert, "corrected_threshold", recording)
        short = make_config(pair_count=200, distribution=BEAM, threshold_mode="configured",
                            threshold_samples=2**20)
        with pytest.raises(UndersampledTestError, match="test rounds"):
            run_protocol(short)
        # wait for every job queued on the one pool thread
        correlator._pool(1).submit(lambda: None).result(timeout=60)
        assert calls == []
        run_protocol(make_config(distribution=BEAM, threshold_mode="configured",
                                 threshold_samples=2000))
        assert calls == [2000]

    def test_short_run_queues_no_threshold_job(self, monkeypatch):
        """In either mode, and even where the passes would raise first, a
        short run raises for its test rounds before any threshold work."""
        calls = []
        monkeypatch.setattr(ekert, "_corrected_threshold", lambda *args: calls.append(args))
        degenerate = JointGaussian((0, 0, 0), 0.0, (1e250, 0, 0), 0.0)
        for distribution in (BEAM, degenerate):
            for mode in ("empirical", "configured"):
                with pytest.raises(UndersampledTestError, match="test rounds"):
                    run_protocol(make_config(pair_count=200, distribution=distribution,
                                             threshold_mode=mode))
        assert calls == []

    def test_failed_run_waits_for_its_threshold_job(self, monkeypatch):
        """A run that raises after queuing its threshold job returns only once
        that job has, so the pool's next caller does not wait behind it."""
        returned = threading.Event()
        corrected = ekert._corrected_threshold

        def recording(*args):
            try:
                return corrected(*args)
            finally:
                returned.set()

        monkeypatch.setattr(ekert, "_corrected_threshold", recording)
        s = math.sqrt(0.5)
        # the key axis z is transverse to particle 2, so the outcome pass
        # raises; every CHSH axis keeps an x component, so the configured
        # Monte Carlo runs on
        config = make_config(
            pair_count=2000, bell=BellConfig((s, s, 0), (-s, s, 0), (s, -s, 0), (1, 0, 0)),
            distribution=JointGaussian((0, 0, 0), 0.0, (1e250, 0, 0), 0.0),
            threshold_mode="configured", threshold_samples=2**20,
        )
        try:
            with pytest.raises(DegenerateObservableError, match="axis vanished"):
                run_protocol(config)
            assert returned.is_set()
        finally:
            correlator._pool(1).submit(lambda: None).result(timeout=120)

    @pytest.mark.parametrize("fail", [
        lambda: TestBellTest().test_undersampled_pair_raises(),
        lambda: TestInterceptResend().test_degenerate_resend_axis_raises(),
        # the test statistics raise while the threshold is still on the pool
        lambda: pytest.raises(
            UndersampledTestError, run_protocol, make_config(pair_count=200, distribution=BEAM)
        ),
    ], ids=["undersampled_transcript", "degenerate_resend", "undersampled_run"])
    def test_failed_run_leaves_the_pool_usable(self, fail):
        fail()
        assert transcript_digests("correlated", "p_eve_0.5") == TRANSCRIPT_SHA256[
            "correlated", "p_eve_0.5"
        ]
        assert mc_reprs("bell", "joint") == MC_REPRS["bell", "joint"]
