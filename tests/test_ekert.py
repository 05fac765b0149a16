import io
import json
import math
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
    run_protocol,
    verdict,
)
from relbell.ekert import SCHEMA_VERSION


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

    def test_test_fraction_bounds(self):
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError, match="test_fraction"):
                make_config(test_fraction=bad)

    def test_pair_count_floor_scales_with_test_fraction(self):
        with pytest.raises(ValueError, match="too few test rounds"):
            make_config(pair_count=150)
        make_config(pair_count=150, test_fraction=0.8)

    def test_threshold_mode_choices(self):
        with pytest.raises(ValueError, match="threshold_mode"):
            make_config(threshold_mode="exact")

    def test_attack_probability_bounds(self):
        with pytest.raises(ValueError, match="attack_probability"):
            InterceptResend(attack_probability=1.5)
        with pytest.raises(ValueError, match="unit"):
            InterceptResend(basis_pool=((1.0, 1.0, 0.0),))


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

    def test_sifted_rounds_are_matching_key_rounds(self):
        config = make_config(key_axes=((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)))
        transcript = run_protocol(config)
        mask = (transcript.alice_basis == transcript.bob_basis) & (
            transcript.alice_basis < 2
        )
        assert np.array_equal(transcript.sifted_indices, np.nonzero(mask)[0])
        assert transcript.alice_key_bits.size == transcript.sifted_indices.size

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
        # Bob's transverse key axis does not
        config = make_config(
            distribution=JointGaussian((0, 0, 0), 0.0, (1e16, 0, 0), 0.0),
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
