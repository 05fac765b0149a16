"""The component kernel core against the ``np.sum`` form it replaced, bit for bit.

The ``ref_*`` functions below are the earlier implementation: every dot
product and squared norm was ``np.sum(..., axis=-1)`` over arrays of shape
(..., 3), and every call rebuilt the velocity direction and
``sqrt(1 - beta^2)``.  The component core works on separate x/y/z arrays
and builds each frame once; its public outputs must keep the same bytes.
"""

import io
import itertools

import numpy as np
import pytest

from relbell import (
    DEFAULT_CONFIG,
    BellConfig,
    CorrelatedGaussian,
    DegenerateObservableError,
    InterceptResend,
    JointGaussian,
    ProtocolConfig,
    bell_average_mc,
    bell_test,
    beta_from_momentum,
    boosted_spin_axis,
    chsh_from_beta,
    kernel_from_beta,
    run_protocol,
)
from relbell import correlator, kinematics
from relbell.correlator import _kernel_matrix
from relbell.kinematics import DEGENERACY_TOL, _components, _frame_pair

# ---------------------------------------------------------------------------
# the reference: the np.sum form


def ref_beta_from_momentum(momentum, mass):
    p = np.asarray(momentum, dtype=float)
    energy = np.sqrt(mass * mass + np.sum(p * p, axis=-1, keepdims=True))
    return p / energy


def ref_boosted_spin_axis(a_dir, beta_vec):
    a = np.asarray(a_dir, dtype=float)
    b = np.asarray(beta_vec, dtype=float)
    beta_sq = np.sum(b * b, axis=-1, keepdims=True)
    norm = np.sqrt(beta_sq)
    n = b / np.where(norm > 0.0, norm, 1.0)
    a_long = np.sum(a * n, axis=-1, keepdims=True) * n
    root = np.sqrt(np.maximum(1.0 - beta_sq, 0.0))
    return root * (a - a_long) + a_long


def ref_kernel_matrix(alice_dirs, bob_dirs, beta1, beta2):
    v1 = [ref_boosted_spin_axis(a_dir, beta1) for a_dir in alice_dirs]
    v2 = [ref_boosted_spin_axis(b_dir, beta2) for b_dir in bob_dirs]
    sq1 = [np.sum(v * v, axis=-1) for v in v1]
    sq2 = [np.sum(v * v, axis=-1) for v in v2]
    rows = np.broadcast_shapes(*(sq.shape for sq in sq1 + sq2))
    degenerate = np.zeros(rows, dtype=bool)
    for sq in sq1 + sq2:
        degenerate |= sq < DEGENERACY_TOL * DEGENERACY_TOL
    kernels = np.empty((len(v1), len(v2)) + rows)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i, (va, sa) in enumerate(zip(v1, sq1)):
            for j, (vb, sb) in enumerate(zip(v2, sq2)):
                out = kernels[i, j, ...]
                np.divide(-np.sum(va * vb, axis=-1), np.sqrt(sa * sb), out=out)
    return kernels, degenerate


def ref_kernel_from_beta(a_dir, b_dir, beta1, beta2):
    kernels, degenerate = ref_kernel_matrix((a_dir,), (b_dir,), beta1, beta2)
    if np.any(degenerate):
        raise DegenerateObservableError("degenerate")
    return (kernels + 0.0)[0, 0]


def ref_chsh_from_beta(config, beta1, beta2):
    sides = (config.a, config.a_prime), (config.b, config.b_prime)
    kernels, degenerate = ref_kernel_matrix(*sides, beta1, beta2)
    if np.any(degenerate):
        raise DegenerateObservableError("degenerate")
    k = kernels + 0.0
    return ((k[0, 0] + k[0, 1]) + k[1, 0]) - k[1, 1]


def ref_sample_kernels(axes, dist, rng, n):
    beta1, beta2 = (ref_beta_from_momentum(p, dist.mass) for p in dist.sample(rng, n))
    kernels, degenerate = ref_kernel_matrix(*axes, beta1, beta2)
    if isinstance(dist, JointGaussian):
        swapped, degenerate_swapped = ref_kernel_matrix(*axes, beta2, beta1)
        kernels += swapped
        kernels *= 0.5
        degenerate |= degenerate_swapped
    kernels = kernels.reshape(-1, n)
    kernels[:, degenerate] = np.nan
    return kernels


def ref_protocol_outcomes(transcript):
    """Bob's and Eve's outcome columns of a run, rebuilt from its recorded
    choices, its outcome and resend streams and the reference kernels."""
    config = transcript.config
    n = transcript.pair_count
    roles = np.random.SeedSequence(config.seed).spawn(6)
    rng_outcome = np.random.Generator(np.random.Philox(roles[3]))
    rng_outcome.integers(0, 2, size=n)
    u_outcome = rng_outcome.random(n)
    beta1 = ref_beta_from_momentum(transcript.momentum1, config.distribution.mass)
    beta2 = ref_beta_from_momentum(transcript.momentum2, config.distribution.mass)
    alice = config.alice_pool[transcript.alice_basis]
    bob = config.bob_pool[transcript.bob_basis]
    partner = bob.copy()
    attacked = transcript.attacked
    pool = np.array(config.eve.basis_pool)
    partner[attacked] = pool[transcript.eve_basis[attacked]]
    s = transcript.alice_outcome
    kernel = ref_kernel_from_beta(alice, partner, beta1, beta2)
    t = np.where(u_outcome < 0.5 * (1.0 + s * kernel), 1, -1).astype(np.int8)
    rng_eve = np.random.Generator(np.random.Philox(roles[4]))
    rng_eve.random(n)
    rng_eve.integers(0, len(pool), size=n)
    u_resend = rng_eve.random(n)[attacked]
    at = beta2[attacked]
    overlap = -ref_kernel_from_beta(partner[attacked], bob[attacked], at, at)
    bob_outcome = t.copy()
    bob_outcome[attacked] = np.where(u_resend < 0.5 * (1.0 + t[attacked] * overlap), 1, -1)
    eve_outcome = np.where(attacked, t, 0).astype(np.int8)
    return bob_outcome, eve_outcome


def same_bytes(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


# ---------------------------------------------------------------------------
# inputs

SIGNED = (-1.0, -0.0, 0.0, 1.0)


def random_unit(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def random_velocities(rng, n):
    # speeds over the whole range, many of them within 1e-12 of 1
    speed = np.concatenate([
        rng.uniform(0.0, 1.0, n // 2),
        1.0 - 10.0 ** rng.uniform(-16, -1, n - n // 2),
    ])
    return speed[:, None] * random_unit(rng, n)


def signed_rows():
    """Every triple over {-1, -0.0, 0.0, 1}: signed zeros in every place,
    |v| = 1 rows, and zero rows of every sign pattern."""
    return np.array(list(itertools.product(SIGNED, repeat=3)))


def unit_velocity_rows():
    """|beta| = 1 rows, exactly on the axes and off them."""
    return np.array([
        [1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -0.0, 0.0],
        [0.6, 0.8, 0.0], [0.0, -0.6, 0.8], [np.sqrt(0.5), np.sqrt(0.5), 0.0],
        [1.0, 0.0, -0.0], [-0.0, 0.0, -1.0],
    ])


# ---------------------------------------------------------------------------
# tests


class TestVelocity:
    def test_random_momenta(self):
        rng = np.random.default_rng(11)
        p = rng.standard_normal((4097, 3)) * 10.0 ** rng.uniform(-8, 8, (4097, 1))
        for mass in (1.0, 0.5, 3, 1e-3, 1e150):
            assert same_bytes(beta_from_momentum(p, mass), ref_beta_from_momentum(p, mass))

    def test_signed_zeros_rest_and_single_vector(self):
        rows = signed_rows()
        assert same_bytes(beta_from_momentum(rows, 1.0), ref_beta_from_momentum(rows, 1.0))
        for row in rows:
            assert same_bytes(beta_from_momentum(row, 2.0), ref_beta_from_momentum(row, 2.0))

    def test_leading_dimensions_and_lists(self):
        rng = np.random.default_rng(12)
        p = rng.standard_normal((3, 5, 3))
        assert same_bytes(beta_from_momentum(p, 1.0), ref_beta_from_momentum(p, 1.0))
        assert same_bytes(
            beta_from_momentum([1.0, -2.0, 0.5], 1.0), ref_beta_from_momentum([1.0, -2.0, 0.5], 1.0)
        )


class TestBoostedAxis:
    def test_random_velocities_and_axes(self):
        rng = np.random.default_rng(21)
        beta = random_velocities(rng, 4096)
        per_row = random_unit(rng, 4096)
        for a in (per_row, per_row[0], np.array([0.0, 0.0, 1.0]), np.array([3.0, -1.0, 2.0])):
            assert same_bytes(boosted_spin_axis(a, beta), ref_boosted_spin_axis(a, beta))

    def test_signed_zeros_rest_and_unit_speed(self):
        # every signed axis against every signed velocity, at speeds 1, 0.5
        # and 1e-300: the along-axis sum of three -0.0 products must come
        # out +0.0, as np.sum gives it
        axes = signed_rows()[:, None, :]
        for scale in (1.0, 0.5, 1e-300):
            beta = scale * signed_rows()
            beta = beta[np.sum(beta * beta, axis=-1) <= 1.0][None, :, :]
            assert same_bytes(boosted_spin_axis(axes, beta), ref_boosted_spin_axis(axes, beta))
        beta = unit_velocity_rows()[None, :, :]
        assert same_bytes(boosted_spin_axis(axes, beta), ref_boosted_spin_axis(axes, beta))

    def test_zero_dimensional(self):
        rng = np.random.default_rng(22)
        for a, beta in zip(random_unit(rng, 50), random_velocities(rng, 50)):
            assert same_bytes(boosted_spin_axis(a, beta), ref_boosted_spin_axis(a, beta))
        for a, beta in itertools.product(signed_rows(), unit_velocity_rows()):
            assert same_bytes(boosted_spin_axis(a, beta), ref_boosted_spin_axis(a, beta))
        assert same_bytes(
            boosted_spin_axis((0.0, 1.0, 0.0), (0.8, 0.0, 0.0)),
            ref_boosted_spin_axis((0.0, 1.0, 0.0), (0.8, 0.0, 0.0)),
        )

    def test_broadcasting(self):
        rng = np.random.default_rng(23)
        a = random_unit(rng, 2).reshape(2, 1, 3)
        beta = random_velocities(rng, 4)
        assert same_bytes(boosted_spin_axis(a, beta), ref_boosted_spin_axis(a, beta))
        assert same_bytes(
            boosted_spin_axis(a[0], beta[0]), ref_boosted_spin_axis(a[0], beta[0])
        )

    def test_shape_is_checked(self):
        with pytest.raises(ValueError, match=r"\(\.\.\., 3\)"):
            boosted_spin_axis([1.0, 0.0], [0.0, 0.0])


class TestKernel:
    def test_kernel_matrix_with_degenerate_rows_and_signed_zeros(self):
        # the raw matrix, NaNs of degenerate rows and zero signs included
        rng = np.random.default_rng(31)
        beta1 = np.concatenate([random_velocities(rng, 500), signed_rows(), unit_velocity_rows()])
        beta2 = np.concatenate([random_velocities(rng, 500), unit_velocity_rows(), signed_rows()])
        per_row = np.concatenate([random_unit(rng, 500), signed_rows(), unit_velocity_rows()])
        alice = (DEFAULT_CONFIG.a, per_row, (-0.0, 1.0, 0.0))
        bob = (per_row[::-1], DEFAULT_CONFIG.b_prime)
        for b1, b2 in ((beta1, beta2), (beta1, beta1), (beta2, beta1.copy())):
            got = _kernel_matrix(
                *(np.stack([np.broadcast_to(_components(a).reshape(3, -1), (3, len(b1)))
                            for a in side]) for side in (alice, bob)),
                *_frame_pair(b1, b2),
            )
            want = ref_kernel_matrix(alice, bob, b1, b2)
            assert same_bytes(got[0], want[0])
            assert same_bytes(got[1], want[1])
            assert want[1].any() and not want[1].all()

    def test_kernel_from_beta(self):
        rng = np.random.default_rng(32)
        beta1 = random_velocities(rng, 3000) * 0.999
        beta2 = random_velocities(rng, 3000) * 0.999
        a, b = random_unit(rng, 3000), random_unit(rng, 3000)
        cases = [
            (a, b, beta1, beta2),
            (a, b, beta1, beta1),
            (a[0], b[0], beta1, beta2),
            (a, a, beta2, beta2.copy()),
            (a[7], b[7], beta1[7], beta2[7]),
            (a[7], b[7], np.zeros(3), np.zeros(3)),
            ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, -0.0, 0.0), (-0.0, 0.0, 0.0)),
            ((-0.0, 1.0, 0.0), (0.0, -0.0, 1.0), (0.6, 0.0, -0.0), (0.0, -0.8, 0.0)),
        ]
        for args in cases:
            assert same_bytes(kernel_from_beta(*args), ref_kernel_from_beta(*args))

    def test_degenerate_rows_raise_on_both(self):
        args = ((0.0, 1.0, 0.0), (0.0, 1.0, 0.0), np.array([[1.0, 0.0, 0.0]]), np.zeros((1, 3)))
        for kernel in (kernel_from_beta, ref_kernel_from_beta):
            with pytest.raises(DegenerateObservableError):
                kernel(*args)

    def test_chsh_from_beta_in_small_blocks(self, monkeypatch):
        # 1000 rows make 15 blocks of 64 and a ragged one of 40
        monkeypatch.setattr(correlator, "_ARRAY_BLOCK_ROWS", 64)
        rng = np.random.default_rng(34)
        beta1 = random_velocities(rng, 1000) * 0.999
        beta2 = random_velocities(rng, 1000) * 0.999
        for b1, b2 in ((beta1, beta2), (beta2, beta2.copy()), (np.zeros(3), beta2)):
            assert same_bytes(
                chsh_from_beta(DEFAULT_CONFIG, b1, b2), ref_chsh_from_beta(DEFAULT_CONFIG, b1, b2)
            )

    def test_chsh_from_beta(self):
        rng = np.random.default_rng(33)
        beta1 = random_velocities(rng, 3000) * 0.999
        beta2 = random_velocities(rng, 3000) * 0.999
        tilted = BellConfig(
            (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 0.6, 0.8), (0.8, -0.6, 0.0)
        )
        for config in (DEFAULT_CONFIG, tilted):
            for b1, b2 in ((beta1, beta2), (beta1, beta1), (beta1[3], beta2[3]), (np.zeros(3), beta2)):
                assert same_bytes(chsh_from_beta(config, b1, b2), ref_chsh_from_beta(config, b1, b2))


BEAMS = {
    "correlated": CorrelatedGaussian((0.3, 1.2, 2.0), (0.4, 0.2, 0.9)),
    "crossed": JointGaussian((2.0, 0.0, 0.5), 0.6, (-0.4, 1.5, 0.0), (0.3, 0.8, 0.2), mass=0.7),
    # zero spread and equal means: every draw has p1 equal to p2 bit for bit
    "joint_equal": JointGaussian((0.0, 2.5, 4.0), 0.0, (0.0, 2.5, 4.0), 0.0),
}


class TestMonteCarlo:
    @pytest.mark.parametrize("beam", sorted(BEAMS))
    def test_bell_average_mc_matches_reference(self, beam, monkeypatch):
        dist = BEAMS[beam]
        runs = {}
        for workers in (1, 2):
            runs["new", workers] = bell_average_mc(
                DEFAULT_CONFIG, dist, 5003, 17, chunk_size=999, workers=workers
            )
        monkeypatch.setattr(correlator, "_sample_kernels", ref_sample_kernels)
        for workers in (1, 2):
            runs["ref", workers] = bell_average_mc(
                DEFAULT_CONFIG, dist, 5003, 17, chunk_size=999, workers=workers
            )
        want = runs["ref", 1]
        for key, got in runs.items():
            assert repr(got.value) == repr(want.value), key
            assert repr(got.standard_error) == repr(want.standard_error), key
            assert got.rejected == want.rejected, key

    @pytest.mark.parametrize("beam", sorted(BEAMS))
    def test_blocks_within_a_chunk_match_reference(self, beam, monkeypatch):
        # 999 draws per chunk make 15 blocks of 64 and a ragged one of 39
        dist = BEAMS[beam]
        monkeypatch.setattr(correlator, "_BLOCK_ROWS", 64)
        got = bell_average_mc(DEFAULT_CONFIG, dist, 5003, 17, chunk_size=999, workers=2)
        monkeypatch.setattr(correlator, "_sample_kernels", ref_sample_kernels)
        want = bell_average_mc(DEFAULT_CONFIG, dist, 5003, 17, chunk_size=999)
        assert repr(got.value) == repr(want.value)
        assert repr(got.standard_error) == repr(want.standard_error)
        assert got.rejected == want.rejected

    @pytest.mark.parametrize("beam, frames_per_chunk", [
        ("correlated", 1), ("crossed", 2), ("joint_equal", 1),
    ])
    def test_equal_momenta_share_one_frame(self, beam, frames_per_chunk, monkeypatch):
        built = []
        frame = kinematics._frame

        def counting_frame(beta):
            built.append(1)
            return frame(beta)

        monkeypatch.setattr(kinematics, "_frame", counting_frame)
        bell_average_mc(DEFAULT_CONFIG, BEAMS[beam], 1000, 5, chunk_size=250)
        assert len(built) == 4 * frames_per_chunk

    def test_signed_zero_momenta_get_two_frames(self):
        p = np.array([[0.0, 1.0, 2.0]])
        q = np.array([[-0.0, 1.0, 2.0]])
        frame1, frame2 = _frame_pair(p, q, 1.0)
        assert frame1 is not frame2
        assert not np.signbit(frame1.n[0]).any() and np.signbit(frame2.n[0]).all()
        shared = _frame_pair(p, p.copy(), 1.0)
        assert shared[0] is shared[1]


class TestProtocolThreshold:
    @pytest.mark.parametrize("beam", sorted(BEAMS))
    def test_run_threshold_equals_standalone_bell_test(self, beam):
        config = ProtocolConfig(4000, BEAMS[beam], seed=3)
        transcript = run_protocol(config)
        assert bell_test(transcript, corrected=True) == transcript.bell_corrected
        beta1 = ref_beta_from_momentum(transcript.momentum1, config.distribution.mass)
        beta2 = ref_beta_from_momentum(transcript.momentum2, config.distribution.mass)
        want = abs(float(np.mean(ref_chsh_from_beta(config.bell, beta1, beta2))))
        assert repr(transcript.bell_corrected.threshold) == repr(want)

    @pytest.mark.parametrize("beam", sorted(BEAMS))
    def test_run_in_small_blocks_matches_reference(self, beam, monkeypatch):
        # 1000 pairs make 15 blocks of 64 and a ragged one of 40; about half
        # of them are attacked, so the resend rows end on a ragged block too
        config = ProtocolConfig(
            1000, BEAMS[beam], seed=8, eve=InterceptResend(attack_probability=0.5)
        )
        whole = io.StringIO()
        run_protocol(config).to_json(whole)
        monkeypatch.setattr(correlator, "_ARRAY_BLOCK_ROWS", 64)
        transcript = run_protocol(config)
        bob_outcome, eve_outcome = ref_protocol_outcomes(transcript)
        assert 64 < transcript.attacked.sum() < 1000 - 64
        assert same_bytes(transcript.bob_outcome, bob_outcome)
        assert same_bytes(transcript.eve_outcome, eve_outcome)
        beta1 = ref_beta_from_momentum(transcript.momentum1, config.distribution.mass)
        beta2 = ref_beta_from_momentum(transcript.momentum2, config.distribution.mass)
        want = abs(float(np.mean(ref_chsh_from_beta(config.bell, beta1, beta2))))
        assert repr(transcript.bell_corrected.threshold) == repr(want)
        blocked = io.StringIO()
        transcript.to_json(blocked)
        assert blocked.getvalue() == whole.getvalue()
