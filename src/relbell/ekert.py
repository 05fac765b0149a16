"""Entanglement-based key distribution with moving pairs, plus its Bell test.

Protocol outline (singlet pairs, one particle to each party):

* every round draws a pair momentum from the configured profile; the
  momenta are treated as measurable without disturbing the spins;
* Alice measures along an axis drawn from her pool (shared key axes plus
  her two test axes), Bob likewise (key axes plus his two test axes);
* rounds where both picked the same key axis join the sifted key.  The
  singlet is perfectly anti-correlated along a shared axis at any
  momentum, so Bob flips his bit and the sifted keys agree;
* rounds where both picked test axes feed a CHSH estimate ``c_hat``.

The eavesdropper check compares |c_hat| against a threshold minus a
one-sided normal quantile times the standard error.  The naive threshold
is the rest-frame maximum 2*sqrt(2); for fast beams the honest value is
lower, so the naive test flags clean runs.  The corrected threshold uses
the Bell average attainable at the actual kinematics, either from the
recorded per-pair momenta (default) or from the configured profile.

Randomness is drawn from per-role substreams (momenta, Alice's bases,
Bob's bases, outcomes, Eve) spawned from the run seed, so transcripts are
bitwise reproducible and an intercept-resend attack with probability 0 is
byte-identical to no eavesdropper at all.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .bell import (
    TSIRELSON_BOUND,
    BellConfig,
    DEFAULT_CONFIG,
    _as_unit_triple,
    _chsh,
    corrected_threshold,
)
from .correlator import _check_sampling, _kernel_matrix, _nondegenerate
from .distributions import MomentumDistribution
from .errors import DegenerateObservableError, UndersampledTestError
from .kinematics import _frame_pair

#: Fewest test rounds per basis pair for a meaningful CHSH estimate.
MIN_TEST_ROUNDS = 25

#: Transcript schema version written to JSON output.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class InterceptResend:
    """Eve measures a random pool axis on particle 2 and resends it.

    Each round is attacked independently with ``attack_probability``.  On
    an attacked round Eve's outcome follows the singlet law against
    Alice's axis; the particle Bob receives is repolarized along Eve's
    effective axis, so Bob's outcome correlates with Eve's through the
    overlap of the two effective axes at Bob's momentum.
    """

    basis_pool: tuple[tuple[float, float, float], ...] = (
        DEFAULT_CONFIG.a,
        DEFAULT_CONFIG.a_prime,
        DEFAULT_CONFIG.b,
        DEFAULT_CONFIG.b_prime,
    )
    attack_probability: float = 1.0

    def __post_init__(self):
        pool = tuple(
            _as_unit_triple(axis, f"basis_pool[{i}]") for i, axis in enumerate(self.basis_pool)
        )
        if not pool:
            raise ValueError("basis_pool must contain at least one axis")
        object.__setattr__(self, "basis_pool", pool)
        object.__setattr__(self, "attack_probability", float(self.attack_probability))
        if not 0.0 <= self.attack_probability <= 1.0:
            raise ValueError(
                f"attack_probability must be in [0, 1], got {self.attack_probability}"
            )


@dataclass(frozen=True)
class ProtocolConfig:
    """Full specification of a key-distribution run."""

    pair_count: int
    distribution: MomentumDistribution
    seed: int
    bell: BellConfig = DEFAULT_CONFIG
    key_axes: tuple[tuple[float, float, float], ...] = ((0.0, 0.0, 1.0),)
    eve: InterceptResend | None = None
    test_fraction: float = 0.5
    significance: float = 0.01
    threshold_mode: str = "empirical"
    threshold_samples: int = 20_000

    def __post_init__(self):
        key_axes = tuple(
            _as_unit_triple(axis, f"key_axes[{i}]") for i, axis in enumerate(self.key_axes)
        )
        if not key_axes:
            raise ValueError("key_axes must contain at least one axis")
        object.__setattr__(self, "key_axes", key_axes)
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if not 0.0 < self.significance < 1.0:
            raise ValueError(f"significance must be in (0, 1), got {self.significance}")
        if self.pair_count * self.test_fraction < 100:
            raise ValueError(
                f"pair_count = {self.pair_count} leaves too few test rounds; "
                f"need pair_count >= {math.ceil(100 / self.test_fraction)} "
                f"at test_fraction = {self.test_fraction}"
            )
        if self.threshold_mode not in ("empirical", "configured"):
            raise ValueError(
                f"threshold_mode must be 'empirical' or 'configured', got {self.threshold_mode!r}"
            )
        _check_sampling(self.threshold_samples, name="threshold_samples")

    @property
    def alice_pool(self) -> np.ndarray:
        return np.array(self.key_axes + (self.bell.a, self.bell.a_prime))

    @property
    def bob_pool(self) -> np.ndarray:
        return np.array(self.key_axes + (self.bell.b, self.bell.b_prime))


@dataclass(frozen=True)
class BellTestResult:
    """Outcome of one CHSH eavesdropper check."""

    c_hat: float
    standard_error: float
    threshold: float
    verdict: str
    corrected: bool
    z_value: float
    significance: float
    pair_counts: tuple[int, int, int, int]
    pair_correlations: tuple[float, float, float, float]

    def to_dict(self) -> dict:
        return {
            "c_hat": self.c_hat,
            "standard_error": self.standard_error,
            "threshold": self.threshold,
            "verdict": self.verdict,
            "corrected": self.corrected,
            "z_value": self.z_value,
            "significance": self.significance,
            "pair_counts": list(self.pair_counts),
            "pair_correlations": list(self.pair_correlations),
        }


def verdict(c_hat: float, standard_error: float, threshold: float, significance: float = 0.01) -> str:
    """Classify a CHSH estimate: ``clean`` when |c_hat| is statistically
    compatible with the threshold, ``eavesdropper`` when it falls short.

    The run is flagged only when |c_hat| lies more than
    ``z(1 - significance)`` standard errors below the threshold.
    """
    z = NormalDist().inv_cdf(1.0 - significance)
    return "clean" if abs(c_hat) >= threshold - z * standard_error else "eavesdropper"


@dataclass(eq=False)
class ProtocolTranscript:
    """Complete record of a protocol run.

    Basis columns index each party's pool (key axes first, then the two
    test axes).  ``eve_basis`` is -1 and ``eve_outcome`` 0 on rounds that
    were not attacked.  Bit convention for keys: outcome +1 maps to bit 1
    for Alice; Bob flips, mapping his -1 to bit 1.
    """

    config: ProtocolConfig
    momentum1: np.ndarray
    momentum2: np.ndarray
    alice_basis: np.ndarray
    bob_basis: np.ndarray
    alice_outcome: np.ndarray
    bob_outcome: np.ndarray
    attacked: np.ndarray
    eve_basis: np.ndarray
    eve_outcome: np.ndarray
    sifted_indices: np.ndarray
    alice_key_bits: np.ndarray
    bob_key_bits: np.ndarray
    bell_naive: BellTestResult | None = None
    bell_corrected: BellTestResult | None = None

    @property
    def pair_count(self) -> int:
        return int(self.alice_basis.shape[0])

    def key_disagreement_rate(self) -> float:
        """Fraction of sifted positions where the two keys differ."""
        if self.alice_key_bits.size == 0:
            return 0.0
        return float(np.mean(self.alice_key_bits != self.bob_key_bits))

    def summary(self) -> dict:
        """Single-record run summary (the protocol CLI prints this)."""
        naive = self.bell_naive
        corrected = self.bell_corrected
        return {
            "pair_count": self.pair_count,
            "sifted_bits": int(self.alice_key_bits.size),
            "key_disagreement_rate": self.key_disagreement_rate(),
            "c_hat": corrected.c_hat if corrected else None,
            "stderr": corrected.standard_error if corrected else None,
            "naive_verdict": naive.verdict if naive else None,
            "corrected_verdict": corrected.verdict if corrected else None,
            "threshold": corrected.threshold if corrected else None,
            "naive_threshold": naive.threshold if naive else None,
        }

    def to_json(self, stream) -> None:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "config": _config_dict(self.config),
            "rounds": {
                "momentum1": self.momentum1.tolist(),
                "momentum2": self.momentum2.tolist(),
                "alice_basis": self.alice_basis.tolist(),
                "bob_basis": self.bob_basis.tolist(),
                "alice_outcome": self.alice_outcome.tolist(),
                "bob_outcome": self.bob_outcome.tolist(),
                "attacked": [int(v) for v in self.attacked],
                "eve_basis": self.eve_basis.tolist(),
                "eve_outcome": self.eve_outcome.tolist(),
            },
            "sifted": {
                "indices": self.sifted_indices.tolist(),
                "alice_bits": "".join(str(int(b)) for b in self.alice_key_bits),
                "bob_bits": "".join(str(int(b)) for b in self.bob_key_bits),
            },
            "bell": {
                "naive": self.bell_naive.to_dict() if self.bell_naive else None,
                "corrected": self.bell_corrected.to_dict() if self.bell_corrected else None,
            },
        }
        json.dump(payload, stream, sort_keys=True, separators=(",", ":"))
        stream.write("\n")

    def to_csv(self, stream) -> None:
        """Per-round table; the Bell verdicts live in the JSON form only."""
        stream.write(
            "index,p1x,p1y,p1z,p2x,p2y,p2z,alice_basis,bob_basis,"
            "alice_outcome,bob_outcome,attacked,eve_basis,eve_outcome\n"
        )
        for i in range(self.pair_count):
            p1 = self.momentum1[i]
            p2 = self.momentum2[i]
            fields = [
                str(i),
                repr(float(p1[0])), repr(float(p1[1])), repr(float(p1[2])),
                repr(float(p2[0])), repr(float(p2[1])), repr(float(p2[2])),
                str(int(self.alice_basis[i])),
                str(int(self.bob_basis[i])),
                str(int(self.alice_outcome[i])),
                str(int(self.bob_outcome[i])),
                str(int(self.attacked[i])),
                str(int(self.eve_basis[i])),
                str(int(self.eve_outcome[i])),
            ]
            stream.write(",".join(fields) + "\n")


def _config_dict(config: ProtocolConfig) -> dict:
    return {
        "pair_count": config.pair_count,
        "seed": config.seed,
        "test_fraction": config.test_fraction,
        "significance": config.significance,
        "threshold_mode": config.threshold_mode,
        "threshold_samples": config.threshold_samples,
        "key_axes": [list(axis) for axis in config.key_axes],
        "bell": config.bell.to_dict(),
        "distribution": config.distribution.to_dict(),
        # an attack that can never fire is recorded as no eavesdropper, so
        # probability-0 transcripts are byte-identical to eve-free ones
        "eve": None
        if config.eve is None or config.eve.attack_probability == 0.0
        else {
            "kind": "intercept_resend",
            "attack_probability": config.eve.attack_probability,
            "basis_pool": [list(axis) for axis in config.eve.basis_pool],
        },
    }


def _choose_bases(rng: np.random.Generator, n: int, n_key: int, test_fraction: float) -> np.ndarray:
    """Pool indices: key axes 0..n_key-1, test axes n_key and n_key+1."""
    is_test = rng.random(n) < test_fraction
    test_pick = rng.integers(0, 2, size=n)
    key_pick = rng.integers(0, n_key, size=n)
    return np.where(is_test, n_key + test_pick, key_pick).astype(np.int16)


def run_protocol(config: ProtocolConfig) -> ProtocolTranscript:
    """Execute a full run and attach both Bell verdicts to the transcript."""
    n = config.pair_count
    roles = np.random.SeedSequence(config.seed).spawn(6)
    rng_momenta = np.random.Generator(np.random.Philox(roles[0]))
    rng_alice = np.random.Generator(np.random.Philox(roles[1]))
    rng_bob = np.random.Generator(np.random.Philox(roles[2]))
    rng_outcome = np.random.Generator(np.random.Philox(roles[3]))
    rng_eve = np.random.Generator(np.random.Philox(roles[4]))

    p1, p2 = config.distribution.sample(rng_momenta, n)
    frame1, frame2 = _frame_pair(p1, p2, config.distribution.mass)

    n_key = len(config.key_axes)
    alice_idx = _choose_bases(rng_alice, n, n_key, config.test_fraction)
    bob_idx = _choose_bases(rng_bob, n, n_key, config.test_fraction)
    # per-row axes as component rows of shape (3, n)
    alice_axes = config.alice_pool.T[:, alice_idx]
    bob_axes = config.bob_pool.T[:, bob_idx]

    s = (2 * rng_outcome.integers(0, 2, size=n) - 1).astype(np.int8)
    u_outcome = rng_outcome.random(n)

    eve_basis = np.full(n, -1, dtype=np.int16)
    attacked = np.zeros(n, dtype=bool)
    if config.eve is not None and config.eve.attack_probability > 0.0:
        pool = np.array(config.eve.basis_pool)
        # fixed three draws regardless of the probability, so attacked sets
        # are nested as the probability rises with the same seed
        u_attack = rng_eve.random(n)
        eve_pick = rng_eve.integers(0, len(pool), size=n).astype(np.int16)
        u_resend = rng_eve.random(n)
        attacked = u_attack < config.eve.attack_probability
        eve_basis[attacked] = eve_pick[attacked]

    partner_axes = bob_axes.copy()
    if attacked.any():
        partner_axes[:, attacked] = np.array(config.eve.basis_pool).T[:, eve_basis[attacked]]

    kernel = _nondegenerate(*_kernel_matrix((alice_axes,), (partner_axes,), frame1, frame2))[0, 0]
    t = np.where(u_outcome < 0.5 * (1.0 + s * kernel), 1, -1).astype(np.int8)

    bob_outcome = t.copy()
    eve_outcome = np.zeros(n, dtype=np.int8)
    if attacked.any():
        rows = np.nonzero(attacked)[0]
        # the overlap of Eve's and Bob's effective axes is minus their
        # singlet kernel, both taken at Bob's momentum
        bob_frame = frame2.take(rows)
        kernels, degenerate = _kernel_matrix(
            (partner_axes[:, rows],), (bob_axes[:, rows],), bob_frame, bob_frame
        )
        if np.any(degenerate):
            raise DegenerateObservableError(
                "a resend axis became degenerate at the sampled momentum"
            )
        overlap = -kernels[0, 0]
        resent = np.where(u_resend[rows] < 0.5 * (1.0 + t[rows] * overlap), 1, -1)
        bob_outcome[rows] = resent.astype(np.int8)
        eve_outcome[rows] = t[rows]

    sift_mask = (alice_idx == bob_idx) & (alice_idx < n_key)
    sifted_indices = np.nonzero(sift_mask)[0]
    alice_key_bits = ((s[sift_mask] + 1) // 2).astype(np.uint8)
    bob_key_bits = ((1 - bob_outcome[sift_mask]) // 2).astype(np.uint8)

    transcript = ProtocolTranscript(
        config=config,
        momentum1=p1,
        momentum2=p2,
        alice_basis=alice_idx,
        bob_basis=bob_idx,
        alice_outcome=s,
        bob_outcome=bob_outcome,
        attacked=attacked,
        eve_basis=eve_basis,
        eve_outcome=eve_outcome,
        sifted_indices=sifted_indices,
        alice_key_bits=alice_key_bits,
        bob_key_bits=bob_key_bits,
    )
    transcript.bell_naive = bell_test(transcript, corrected=False)
    # the run's own frames give the empirical threshold; nothing is rebuilt
    threshold = None
    if config.threshold_mode == "empirical":
        threshold = _empirical_threshold(config.bell, frame1, frame2)
    transcript.bell_corrected = bell_test(transcript, corrected=True, threshold=threshold)
    return transcript


def _empirical_threshold(bell: BellConfig, frame1, frame2) -> float:
    """|Bell average| over the recorded pairs, given their particle frames."""
    return abs(float(np.mean(_chsh(bell, frame1, frame2))))


def bell_test(
    transcript: ProtocolTranscript,
    corrected: bool = True,
    threshold: float | None = None,
) -> BellTestResult:
    """Run the CHSH eavesdropper check on a transcript's test rounds.

    With ``corrected=False`` the threshold is the rest-frame maximum
    2*sqrt(2).  With ``corrected=True`` it is the motion-adjusted value:
    by default the empirical Bell average over the recorded per-pair
    momenta, or a Monte Carlo average of the configured profile when the
    config selects ``threshold_mode = 'configured'``.  An explicit
    ``threshold`` overrides both.  Raises
    :class:`~relbell.errors.UndersampledTestError` when any basis pair has
    fewer than ``MIN_TEST_ROUNDS`` rounds.
    """
    config = transcript.config
    n_key = len(config.key_axes)
    a_test = transcript.alice_basis - n_key
    b_test = transcript.bob_basis - n_key

    correlations = []
    errors_sq = []
    counts = []
    for i in (0, 1):
        for j in (0, 1):
            mask = (a_test == i) & (b_test == j)
            count = int(np.count_nonzero(mask))
            if count < MIN_TEST_ROUNDS:
                raise UndersampledTestError(
                    f"basis pair ({i}, {j}) has {count} test rounds; "
                    f"need at least {MIN_TEST_ROUNDS}"
                )
            products = (
                transcript.alice_outcome[mask].astype(float)
                * transcript.bob_outcome[mask].astype(float)
            )
            e = float(np.mean(products))
            correlations.append(e)
            errors_sq.append((1.0 - e * e) / count)
            counts.append(count)

    c_hat = correlations[0] + correlations[1] + correlations[2] - correlations[3]
    standard_error = math.sqrt(sum(errors_sq))

    if threshold is None:
        if not corrected:
            threshold = TSIRELSON_BOUND
        elif config.threshold_mode == "empirical":
            frames = _frame_pair(
                transcript.momentum1, transcript.momentum2, config.distribution.mass
            )
            threshold = _empirical_threshold(config.bell, *frames)
        else:
            # derive an integer seed disjoint from the five role substreams
            child = np.random.SeedSequence(config.seed).spawn(6)[5]
            threshold = corrected_threshold(
                config.bell,
                config.distribution,
                config.threshold_samples,
                int(child.generate_state(1, np.uint64)[0]),
            )

    z = NormalDist().inv_cdf(1.0 - config.significance)
    return BellTestResult(
        c_hat=c_hat,
        standard_error=standard_error,
        threshold=float(threshold),
        verdict=verdict(c_hat, standard_error, threshold, config.significance),
        corrected=corrected,
        z_value=z,
        significance=config.significance,
        pair_counts=tuple(counts),
        pair_correlations=tuple(correlations),
    )
