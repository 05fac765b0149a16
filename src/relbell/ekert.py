"""Entanglement-based key distribution with moving pairs, plus its Bell test.

Protocol outline (singlet pairs, one particle to each party):

* every round draws a pair momentum from the configured profile; the
  momenta are treated as measurable without disturbing the spins;
* Alice measures along an axis drawn from her pool (shared key axes plus
  her two test axes), Bob likewise (key axes plus his two test axes);
* rounds where both picked the same key axis join the sifted key, and Bob
  flips his bit.  Where both particles share one momentum the singlet is
  perfectly anti-correlated along a shared axis, so the sifted keys
  agree.  Where the two momenta differ, ``K(a, a; p1, p2)`` is above -1,
  so a sifted bit disagrees with probability ``(1 + K) / 2`` even without
  an eavesdropper;
* rounds where both picked test axes feed a CHSH estimate ``c_hat``.

The eavesdropper check compares |c_hat| against a threshold minus a
one-sided normal quantile times the standard error.  The naive threshold
is the rest-frame maximum 2*sqrt(2); for fast beams the honest value is
lower, so the naive test flags clean runs.  The corrected threshold uses
the Bell average attainable at the actual kinematics, either from the
recorded per-pair momenta (default) or from the configured profile.

Every kernel of a run is formed from the momenta, in the projection form
of :mod:`relbell.correlator`, with no velocity: the outcome kernel of each
round (Alice's axis at ``p1``, the partner's, Bob's or Eve's, at ``p2``),
the resend overlap at Bob's momentum, and the empirical threshold, which a
standalone :func:`bell_test` forms the same way.  Two momenta take the
unsymmetrized kernel ``K(a, b; p1, p2)``, so the threshold describes the
outcomes it judges.  :func:`run_protocol` draws the bases, their test
rounds per basis pair and the outcome streams as one job on the worker
pool's one thread while it draws the momenta, and raises
:class:`~relbell.errors.UndersampledTestError` for a short pair before it
queues the corrected threshold of either mode as one job on that thread,
which also runs a configured threshold's one-worker Monte Carlo.  The run
waits on that job where the corrected check needs it, or before it
raises, so no job of a failed run is left for the pool's next caller.

A run must keep its per-round record, since the corrected check judges it
against the Bell average of its own momenta, but it holds little more at
once: the transcript's columns, Bob's outcome uniforms (8 bytes a round),
the resend uniforms of the attacked rounds (8 bytes each), the index of
the axis each particle 2 is measured along (2 bytes a round, once a round
is attacked), and one block of kernel work on each of the two threads.
The outcome kernels and probabilities, the resend overlaps and the
empirical threshold's CHSH values are formed one leaf of numpy's pairwise
tree at a time, each pass one loop of
:func:`~relbell.correlator._row_kernels` (the resend over the attacked
rows alone, by its ``where`` mask), the threshold adding its leaf sums up
that tree, and the whole-run uniforms and index are released after their
last use, the outcome pass ending before the resend pass.  The draws are
whole arrays: they end before the kernel work starts, so their temporaries
raise no peak, and drawing them in blocks cost op time.

Randomness is drawn from per-role substreams (momenta, Alice's bases,
Bob's bases, outcomes, Eve) spawned from the run seed, so transcripts are
bitwise reproducible.  An honest run is an attack that never fires, and
one with probability 0 is byte-identical to no eavesdropper at all.
"""

from __future__ import annotations

import math
from concurrent.futures import wait
from dataclasses import asdict, dataclass
from statistics import NormalDist

import numpy as np

from .bell import (
    TSIRELSON_BOUND,
    BellConfig,
    DEFAULT_CONFIG,
    _chsh_sum,
    _dump_json,
    _sides,
    _unit_axes,
    _write_csv,
    corrected_threshold,
)
from .correlator import (
    _check_sampling,
    _check_seed,
    _integer,
    _pool,
    _row_kernels,
    _tree_sum,
)
from .distributions import MomentumDistribution
from .errors import DegenerateObservableError, UndersampledTestError

#: Fewest test rounds per basis pair for a meaningful CHSH estimate.
MIN_TEST_ROUNDS = 25

#: Transcript schema version written to JSON output.
SCHEMA_VERSION = 1

#: Most axes an indexed pool can hold: transcripts store pool indices as
#: int16, and a run indexes Bob's pool followed by Eve's in one int16 array.
MAX_POOL_AXES = int(np.iinfo(np.int16).max) + 1


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
        object.__setattr__(self, "basis_pool", _unit_axes(self.basis_pool, "basis_pool"))
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
        for name in ("pair_count", "threshold_samples"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        object.__setattr__(self, "seed", _check_seed(self.seed))
        object.__setattr__(self, "key_axes", _unit_axes(self.key_axes, "key_axes"))
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
        # Bob's pool, followed by Eve's, is the largest a run indexes
        size = len(self.key_axes) + 2 + len(self.eve_pool)
        if size > MAX_POOL_AXES:
            pools = ("key_axes plus the two test axes" if self.eve is None
                     else "Bob's pool plus the eavesdropper's basis_pool")
            raise ValueError(
                f"{pools} make {size} axes; an int16 pool index addresses at most {MAX_POOL_AXES}"
            )

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

    @property
    def eve_pool(self) -> np.ndarray:
        return np.array(self.eve.basis_pool if self.eve is not None else ()).reshape(-1, 3)


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
    return _judged(c_hat, standard_error, threshold, significance)[1]


def _judged(c_hat: float, standard_error: float, threshold: float, significance: float):
    """The normal quantile ``z(1 - significance)`` and its :func:`verdict`."""
    z = NormalDist().inv_cdf(1.0 - significance)
    return z, "clean" if abs(c_hat) >= threshold - z * standard_error else "eavesdropper"


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
                "alice_bits": _digits(self.alice_key_bits),
                "bob_bits": _digits(self.bob_key_bits),
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


def _digits(bits: np.ndarray) -> str:
    """Key bits as a string of ``0`` and ``1``: each bit plus ``ord("0")``
    is its ASCII digit, one byte per bit."""
    return (bits.astype(np.uint8) + 48).tobytes().decode()


def _choose_bases(rng: np.random.Generator, n: int, n_key: int, test_fraction: float) -> np.ndarray:
    """Pool indices: key axes 0..n_key-1, test axes n_key and n_key+1.  The
    picks are blended in place by the exact integer arithmetic
    ``key + is_test * (n_key + test - key)``, so the only whole-run
    temporaries are the three draws: a masked copy under a random mask
    branches on every element and costs several times as much."""
    is_test = rng.random(n) < test_fraction
    test_pick = rng.integers(0, 2, size=n)
    key_pick = rng.integers(0, n_key, size=n)
    test_pick += n_key
    test_pick -= key_pick
    test_pick *= is_test
    key_pick += test_pick
    return key_pick.astype(np.int16)


def _draw_roles(config: ProtocolConfig, rng_alice, rng_bob, rng_outcome):
    """Alice's and Bob's bases, each from its own stream, the rounds per
    test basis pair they give (:func:`_test_counts`), Alice's outcome signs
    and the uniforms of Bob's outcomes."""
    n = config.pair_count
    n_key = len(config.key_axes)
    alice_idx = _choose_bases(rng_alice, n, n_key, config.test_fraction)
    bob_idx = _choose_bases(rng_bob, n, n_key, config.test_fraction)
    counts = _test_counts(config, alice_idx, bob_idx).ravel()
    s = rng_outcome.integers(0, 2, size=n).astype(np.int8)
    s *= 2
    s -= 1
    return alice_idx, bob_idx, counts, s, rng_outcome.random(n)


def _draw_eve(config: ProtocolConfig, rng_eve):
    """Eve's three draws: the attacked flags, ``eve_basis`` (-1 where no
    attack fired) and the resend uniforms of the attacked rounds alone, in
    round order.  ``eve_basis`` is ``(basis + 1) * attacked - 1``, formed in
    place in int16, which a masked copy under the random flags costs more
    than.  An attack that cannot fire draws nothing and gives an honest
    run's columns: no attacked round, ``eve_basis`` -1 and no uniform."""
    n = config.pair_count
    if config.eve is None or config.eve.attack_probability == 0.0:
        return np.zeros(n, dtype=bool), np.full(n, -1, dtype=np.int16), np.empty(0)
    # fixed three draws regardless of the probability, so attacked sets
    # are nested as the probability rises with the same seed
    attacked = rng_eve.random(n) < config.eve.attack_probability
    eve_basis = rng_eve.integers(0, len(config.eve.basis_pool), size=n).astype(np.int16)
    eve_basis += 1
    eve_basis *= attacked
    eve_basis -= 1
    return attacked, eve_basis, np.compress(attacked, rng_eve.random(n))


def _partner_index(bob_idx, attacked, eve_basis, bob_axes: int) -> np.ndarray:
    """The axis each particle 2 is measured along, as an int16 index into
    Bob's pool of ``bob_axes`` axes followed by Eve's: Eve's axis on
    attacked rounds, else Bob's.  It is the exact integer blend
    ``bob + attacked * (eve + bob_axes - bob)``, formed in place; the config
    keeps both pools within ``MAX_POOL_AXES``, so no int16 step wraps.
    With no attacked round it is ``bob_idx`` itself, and no second index."""
    if not attacked.any():
        return bob_idx
    index = eve_basis + np.int16(bob_axes)
    index -= bob_idx
    index *= attacked
    index += bob_idx
    return index


def _outcomes(u: np.ndarray, s: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """+1 where ``u < (1 + s K) / 2`` and -1 elsewhere, as int8: the
    probability is formed in the kernel's array, and the signs in place on
    the comparison's own bytes."""
    kernel *= s
    kernel += 1.0
    kernel *= 0.5
    signs = np.less(u, kernel).view(np.int8)
    signs *= 2
    signs -= 1
    return signs


def run_protocol(config: ProtocolConfig) -> ProtocolTranscript:
    """Execute a full run and attach both Bell verdicts to the transcript.

    Each per-round column is made in its transcript dtype by in-place
    arithmetic on the draws: bases and ``eve_basis`` as int16, outcome
    signs as int8 from the comparison's own bytes, and key bits as uint8.
    Where a column picks between two draws by a random mask (the bases,
    ``eve_basis`` and the index of each particle 2's axis), it is an exact
    integer blend, ``x + mask * (y - x)``: a masked copy or ``np.where``
    branches on every element and costs several times the arithmetic.
    After the draws every other per-round array is one leaf of rows
    (:func:`~relbell.correlator._row_kernels`), and :func:`_outcomes` draws
    the signs of both passes: each leaf's outcomes against Alice's ``s``,
    then each leaf's attacked rounds (the ``where`` mask, empty in an honest
    run) against Eve's ``-t`` on the resend kernel, in the shared form at
    Bob's momentum.  Only Bob's outcome uniforms, the resend uniforms of the
    attacked rounds and, once a round is attacked, the index of the axis
    each particle 2 is measured along cover the run, each released after
    its last use.  Every value takes the IEEE operations of the whole-array
    formulas, in the same order, so the bytes are theirs.
    """
    n = config.pair_count
    rng_momenta, rng_alice, rng_bob, rng_outcome, rng_eve = (
        np.random.Generator(np.random.Philox(child))
        for child in np.random.SeedSequence(config.seed).spawn(6)[:5]
    )
    # the pool thread draws the role streams while this one draws the
    # momenta; a short test basis pair raises before the threshold is queued
    pool = _pool(1)
    roles_job = pool.submit(_draw_roles, config, rng_alice, rng_bob, rng_outcome)
    p1, p2 = config.distribution.sample(rng_momenta, n)
    mass = config.distribution.mass
    alice_idx, bob_idx, counts, s, u_outcome = roles_job.result()
    # the job holds the uniforms too
    del roles_job
    _check_test_rounds(counts)
    # the pool thread forms the corrected threshold, which needs only the
    # momenta (or none), while this one draws Eve's stream and runs the passes
    threshold_job = pool.submit(_corrected_threshold, config, p1, p2)
    try:
        attacked, eve_basis, u_resend = _draw_eve(config, rng_eve)
        bob_pool, eve_pool = config.bob_pool, config.eve_pool
        partner = (np.concatenate((bob_pool, eve_pool)),
                   _partner_index(bob_idx, attacked, eve_basis, len(bob_pool)))
        bob_outcome = np.empty(n, dtype=np.int8)
        for rows, kernel in _row_kernels((config.alice_pool, alice_idx), partner, p1, p2, mass):
            bob_outcome[rows] = _outcomes(u_outcome[rows], s[rows], kernel)
        del u_outcome, partner
        # the overlap of Eve's and Bob's effective axes is minus their
        # singlet kernel, both at Bob's momentum, so Eve's t enters as -t;
        # each leaf's attacked rounds take the resend uniforms in order
        eve_outcome = np.zeros(n, dtype=np.int8)
        done = 0
        try:
            for rows, overlap in _row_kernels((eve_pool, eve_basis), (bob_pool, bob_idx), p2, p2,
                                              mass, where=attacked):
                t_rows = bob_outcome[rows]
                bob_outcome[rows] = _outcomes(u_resend[done:done + rows.size], -t_rows, overlap)
                eve_outcome[rows] = t_rows
                done += rows.size
        except DegenerateObservableError as err:
            raise DegenerateObservableError(
                "a resend axis became degenerate at the sampled momentum"
            ) from err
        del u_resend

        sift_mask = (alice_idx == bob_idx) & (alice_idx < len(config.key_axes))
        sifted_indices = np.flatnonzero(sift_mask)
        alice_key_bits = (s[sifted_indices] > 0).view(np.uint8)
        bob_key_bits = (bob_outcome[sifted_indices] < 0).view(np.uint8)

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
    finally:
        # a run that raises waits for its job as well, so the job's cost
        # falls on this call and not on the pool's next caller
        wait((threshold_job,))
    transcript.bell_naive = _bell_result(config, statistics, TSIRELSON_BOUND, corrected=False)
    transcript.bell_corrected = _bell_result(config, statistics, threshold_job.result(),
                                             corrected=True)
    return transcript


def _test_counts(config: ProtocolConfig, alice_basis, bob_basis, agree=None) -> np.ndarray:
    """Rounds per test basis pair, in CHSH order, as a (4, 1) array, or with
    ``agree``, a bool per round, a (4, 2) array of the rounds whose outcomes
    differ and agree.

    Every round gets one joint basis code, ``alice * (n_key + 2) + bob``,
    formed in ``intp`` so a large key pool cannot overflow the basis dtype,
    and with ``agree`` doubled plus the round's flag; one integer bincount
    over it is sliced to the 2x2 block of the test axes."""
    width = len(config.key_axes) + 2
    code = alice_basis.astype(np.intp)
    code *= width
    code += bob_basis
    split = 1
    if agree is not None:
        split = 2
        code *= 2
        code += agree
    test = slice(width - 2, width)
    counts = np.bincount(code, minlength=split * width * width)
    return counts.reshape(width, width, split)[test, test].reshape(4, split)


def _check_test_rounds(counts) -> None:
    """Raise :class:`~relbell.errors.UndersampledTestError` when any of the
    four test basis pairs' round ``counts`` is below ``MIN_TEST_ROUNDS``."""
    for k, count in enumerate(counts):
        if count < MIN_TEST_ROUNDS:
            raise UndersampledTestError(
                f"basis pair {divmod(k, 2)} has {count} test rounds; "
                f"need at least {MIN_TEST_ROUNDS}"
            )


def _test_statistics(transcript: ProtocolTranscript):
    """Per-basis-pair counts and correlations of the test rounds, in CHSH
    order.  Raises :class:`~relbell.errors.UndersampledTestError` when any
    basis pair has fewer than ``MIN_TEST_ROUNDS`` rounds.

    One integer bincount (:func:`_test_counts`) gives each pair's rounds
    whose outcomes differ and agree: their total is the pair's count and
    their difference the sum of its +-1 outcome products."""
    differ, agree = _test_counts(
        transcript.config, transcript.alice_basis, transcript.bob_basis,
        transcript.alice_outcome == transcript.bob_outcome,
    ).T.tolist()
    counts = [a + d for a, d in zip(agree, differ)]
    _check_test_rounds(counts)
    # the sums are exact integers and a quotient of two integers rounds
    # once, so each correlation equals the mean of its pair's products bit
    # for bit
    return tuple(counts), tuple((a - d) / count for a, d, count in zip(agree, differ, counts))


def _corrected_threshold(config: ProtocolConfig, momentum1, momentum2) -> float:
    """The motion-corrected threshold the config selects: the empirical Bell
    average over the recorded momenta, or a Monte Carlo average of the
    configured profile."""
    if config.threshold_mode == "empirical":
        return _empirical_threshold(config, momentum1, momentum2)
    # derive an integer seed disjoint from the five role substreams
    child = np.random.SeedSequence(config.seed).spawn(6)[5]
    return corrected_threshold(
        config.bell,
        config.distribution,
        config.threshold_samples,
        int(child.generate_state(1, np.uint64)[0]),
    )


def _empirical_threshold(config: ProtocolConfig, momentum1, momentum2) -> float:
    """|Bell average| over the recorded momenta, in the projection form
    with ``K12`` for two momenta, as the outcomes are drawn.  Each block of
    :func:`~relbell.correlator._row_kernels` is a leaf of numpy's
    pairwise-summation tree, summed on the spot, and the leaf sums are
    added up the same tree, so the mean has the bytes of ``np.mean`` over a
    per-row CHSH array that is never formed."""
    n = len(momentum1)
    rows = _row_kernels(*_sides(config.bell), momentum1, momentum2, config.distribution.mass,
                        _chsh_sum)
    return abs(float(_tree_sum(n, (bell.sum() for _, bell in rows)) / n))


def _bell_result(
    config: ProtocolConfig, statistics, threshold: float, corrected: bool
) -> BellTestResult:
    """The CHSH check of the test statistics against one threshold."""
    counts, correlations = statistics
    c_hat = _chsh_sum(correlations)
    standard_error = math.sqrt(sum((1.0 - e * e) / count for e, count in zip(correlations, counts)))
    z, judged = _judged(c_hat, standard_error, threshold, config.significance)
    return BellTestResult(
        c_hat=c_hat,
        standard_error=standard_error,
        threshold=float(threshold),
        verdict=judged,
        corrected=corrected,
        z_value=z,
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
        threshold = (
            _corrected_threshold(transcript.config, transcript.momentum1, transcript.momentum2)
            if corrected else TSIRELSON_BOUND
        )
    return _bell_result(transcript.config, statistics, threshold, corrected)
