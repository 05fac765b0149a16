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

import math
from dataclasses import asdict, dataclass
from statistics import NormalDist

import numpy as np

from .bell import (
    TSIRELSON_BOUND,
    BellConfig,
    DEFAULT_CONFIG,
    _as_unit_triple,
    _chsh,
    _chsh_sum,
    _dump_json,
    _write_csv,
    corrected_threshold,
)
from .correlator import _check_sampling, _kernel_rows
from .distributions import MomentumDistribution
from .errors import DegenerateObservableError, UndersampledTestError

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

    def to_dict(self) -> dict:
        return {
            "pair_count": self.pair_count,
            "seed": self.seed,
            "test_fraction": self.test_fraction,
            "significance": self.significance,
            "threshold_mode": self.threshold_mode,
            "threshold_samples": self.threshold_samples,
            "key_axes": [list(axis) for axis in self.key_axes],
            "bell": self.bell.to_dict(),
            "distribution": self.distribution.to_dict(),
            # an attack that can never fire is recorded as no eavesdropper, so
            # probability-0 transcripts are byte-identical to eve-free ones
            "eve": None
            if self.eve is None or self.eve.attack_probability == 0.0
            else {
                "kind": "intercept_resend",
                "attack_probability": self.eve.attack_probability,
                "basis_pool": [list(axis) for axis in self.eve.basis_pool],
            },
        }

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
        """The fields by name, with the per-pair tuples as lists (as JSON
        reads them back)."""
        return {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in asdict(self).items()
        }


def verdict(c_hat: float, standard_error: float, threshold: float, significance: float = 0.01) -> str:
    """Classify a CHSH estimate: ``clean`` when |c_hat| is statistically
    compatible with the threshold, ``eavesdropper`` when it falls short.

    The run is flagged only when |c_hat| lies more than
    ``z(1 - significance)`` standard errors below the threshold.
    """
    z = NormalDist().inv_cdf(1.0 - significance)
    return "clean" if abs(c_hat) >= threshold - z * standard_error else "eavesdropper"


#: Per-round transcript fields written by both writers, in CSV column order.
_ROUND_COLUMNS = (
    "alice_basis", "bob_basis", "alice_outcome", "bob_outcome", "attacked",
    "eve_basis", "eve_outcome",
)


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

    def _rounds(self) -> dict:
        """The ``_ROUND_COLUMNS`` arrays by name, ``attacked`` as 0/1 int8."""
        columns = {name: getattr(self, name) for name in _ROUND_COLUMNS}
        columns["attacked"] = self.attacked.astype(np.int8)
        return columns

    def to_json(self, stream) -> None:
        rounds = {name: column.tolist() for name, column in self._rounds().items()}
        payload = {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "rounds": {
                "momentum1": self.momentum1.tolist(),
                "momentum2": self.momentum2.tolist(),
                **rounds,
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
        _dump_json(payload, stream)

    def to_csv(self, stream) -> None:
        """Per-round table; the Bell verdicts live in the JSON form only."""
        names = ("index", "p1x", "p1y", "p1z", "p2x", "p2y", "p2z", *_ROUND_COLUMNS)
        _write_csv(stream, names, (
            np.arange(self.pair_count), *self.momentum1.T, *self.momentum2.T,
            *self._rounds().values(),
        ))


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
    mass = config.distribution.mass

    n_key = len(config.key_axes)
    alice_idx = _choose_bases(rng_alice, n, n_key, config.test_fraction)
    bob_idx = _choose_bases(rng_bob, n, n_key, config.test_fraction)
    # per-row axes as contiguous component rows of shape (3, n)
    alice_axes = config.alice_pool.T.take(alice_idx, axis=1)
    bob_axes = config.bob_pool.T.take(bob_idx, axis=1)

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

    kernel = _kernel_rows(alice_axes[None], partner_axes[None], p1, p2, mass)
    t = np.where(u_outcome < 0.5 * (1.0 + s * kernel), 1, -1).astype(np.int8)

    bob_outcome = t.copy()
    eve_outcome = np.zeros(n, dtype=np.int8)
    if attacked.any():
        rows = np.nonzero(attacked)[0]
        # the overlap of Eve's and Bob's effective axes is minus their
        # singlet kernel, both taken at Bob's momentum
        sides = (axes.take(rows, axis=1)[None] for axes in (partner_axes, bob_axes))
        bob_momenta = p2[rows]
        try:
            overlap = -_kernel_rows(*sides, bob_momenta, bob_momenta, mass)
        except DegenerateObservableError as err:
            raise DegenerateObservableError(
                "a resend axis became degenerate at the sampled momentum"
            ) from err
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
    # one set of test statistics serves both checks
    statistics = _test_statistics(transcript)
    transcript.bell_naive = _bell_result(config, statistics, TSIRELSON_BOUND, corrected=False)
    transcript.bell_corrected = _bell_result(
        config, statistics, _corrected_threshold(transcript), corrected=True
    )
    return transcript


def _test_statistics(transcript: ProtocolTranscript):
    """Per-basis-pair counts and correlations of the test rounds, in CHSH
    order.  Raises :class:`~relbell.errors.UndersampledTestError` when any
    basis pair has fewer than ``MIN_TEST_ROUNDS`` rounds."""
    n_key = len(transcript.config.key_axes)
    a_test = transcript.alice_basis - n_key
    b_test = transcript.bob_basis - n_key
    test = (a_test >= 0) & (b_test >= 0)
    pair = 2 * a_test[test] + b_test[test]
    products = transcript.alice_outcome[test] * transcript.bob_outcome[test]
    counts = np.bincount(pair, minlength=4).tolist()
    # the products are +-1, so these sums are exact in any order and each
    # correlation equals the mean of its pair's products bit for bit
    sums = np.bincount(pair, weights=products, minlength=4).tolist()
    for k, count in enumerate(counts):
        if count < MIN_TEST_ROUNDS:
            raise UndersampledTestError(
                f"basis pair {divmod(k, 2)} has {count} test rounds; "
                f"need at least {MIN_TEST_ROUNDS}"
            )
    return tuple(counts), tuple(total / count for total, count in zip(sums, counts))


def _corrected_threshold(transcript: ProtocolTranscript) -> float:
    """The motion-corrected threshold the config selects: the empirical Bell
    average over the recorded momenta, or a Monte Carlo average of the
    configured profile."""
    config = transcript.config
    if config.threshold_mode == "empirical":
        bell = _chsh(
            config.bell, transcript.momentum1, transcript.momentum2, config.distribution.mass
        )
        return abs(float(np.mean(bell)))
    # derive an integer seed disjoint from the five role substreams
    child = np.random.SeedSequence(config.seed).spawn(6)[5]
    return corrected_threshold(
        config.bell,
        config.distribution,
        config.threshold_samples,
        int(child.generate_state(1, np.uint64)[0]),
    )


def _bell_result(
    config: ProtocolConfig, statistics, threshold: float, corrected: bool
) -> BellTestResult:
    """The CHSH check of the test statistics against one threshold."""
    counts, correlations = statistics
    c_hat = float(_chsh_sum(np.reshape(correlations, (2, 2))))
    standard_error = math.sqrt(sum((1.0 - e * e) / count for e, count in zip(correlations, counts)))
    return BellTestResult(
        c_hat=c_hat,
        standard_error=standard_error,
        threshold=float(threshold),
        verdict=verdict(c_hat, standard_error, threshold, config.significance),
        corrected=corrected,
        z_value=NormalDist().inv_cdf(1.0 - config.significance),
        significance=config.significance,
        pair_counts=counts,
        pair_correlations=correlations,
    )


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
    statistics = _test_statistics(transcript)
    if threshold is None:
        threshold = _corrected_threshold(transcript) if corrected else TSIRELSON_BOUND
    return _bell_result(transcript.config, statistics, threshold, corrected)
