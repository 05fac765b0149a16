"""The kernel core against the reference forms it replaced.

The ``ref_*`` velocity functions below are an earlier implementation:
every dot product and squared norm was ``np.sum(..., axis=-1)`` over
arrays of shape (..., 3), and each axis was boosted along the velocity
direction with ``sqrt(1 - beta^2)`` taken from the rounded ``beta^2``.
``beta_from_momentum`` keeps their bytes.  The velocity kernels and
``boosted_spin_axis`` now take the projection form, a velocity being a
momentum in units of ``E``, with ``1 - beta^2`` formed to full relative
precision; they are held to the reference within a stated bound in ulps,
scaled by ``1 / (1 - beta^2)``, the factor by which the reference's own
rounding of ``beta^2`` grows in its output.  Their accuracy at high speed
is held by the mpmath anchors of ``test_correlator.py``.
The Monte Carlo and the protocol run form their kernels from the momenta
(:func:`ref_momentum_kernels`, one axis pair at a time, with ``K12`` alone
for the protocol): the Monte Carlo estimates must keep the bytes of that
form summed with one ``np.sum`` per chunk, and the protocol's outcomes and
thresholds those of that form per row.
"""

import io
import itertools
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from relbell import (
    DEFAULT_CONFIG,
    BellConfig,
    CorrelatedGaussian,
    DegenerateObservableError,
    DomainError,
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
from relbell import correlator
from relbell.bell import _chsh_sum, _sides
from relbell.kinematics import DEGENERACY_TOL

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


def ref_sample(dist, rng, n):
    """A Gaussian beam's ``n`` draws in the broadcast form: a correlated
    beam's one draw twice, a joint beam's ``p1`` then its ``p2``."""
    if isinstance(dist, JointGaussian):
        p1 = rng.standard_normal((n, 3)) * np.array(dist.sigma1) + np.array(dist.mean1)
        return p1, rng.standard_normal((n, 3)) * np.array(dist.sigma2) + np.array(dist.mean2)
    p = rng.standard_normal((n, 3)) * np.array(dist.sigma) + np.array(dist.mean)
    return p, p


def ref_dot(u, v):
    """u.v over the last axis of length 3, added left to right."""
    return (u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]) + u[..., 2] * v[..., 2]


def ref_momentum_kernels(alice_dirs, bob_dirs, p1, p2, mass, swap_average=True):
    """The kernels from momenta, one pair at a time: with ``x = p/m``,
    ``s_a = a.x``, ``g = 1/(gamma + 1)`` and ``d = x1.x2``,

        K12 = -(a.b + g1 s1a s1b + g2 s2a s2b + g1 g2 d s1a s2b)
              / sqrt((a.a + s1a^2)(b.b + s2b^2)),

    ``K21`` with ``s2a s1b`` in the last term and the norms swapped, and the
    Monte Carlo kernel ``(K12 + K21) / 2``, or ``K12`` alone, as the
    protocol takes it, when ``swap_average`` is false; momenta equal bit
    for bit take ``-(a.b + s_a s_b) / sqrt((a.a + s_a^2)(b.b + s_b^2))``.
    An axis may be one triple or one per row.  Returns (A, B, rows)
    kernels and the mask of the draws where some kernel is not finite."""
    x1, x2 = p1 / mass, p2 / mass
    shared = same_bytes(p1, p2)
    gsq1, gsq2 = ref_dot(x1, x1) + 1.0, ref_dot(x2, x2) + 1.0
    g1, g2 = 1.0 / (np.sqrt(gsq1) + 1.0), 1.0 / (np.sqrt(gsq2) + 1.0)
    e = g1 * g2 * ref_dot(x1, x2)
    kernels = np.empty((len(alice_dirs), len(bob_dirs), len(p1)))
    with np.errstate(divide="ignore", invalid="ignore"):
        for i, a in enumerate(np.asarray(alice_dirs, dtype=float)):
            for j, b in enumerate(np.asarray(bob_dirs, dtype=float)):
                ab, aa, bb = ref_dot(a, b), ref_dot(a, a), ref_dot(b, b)
                s1a, s1b, s2a, s2b = ref_dot(a, x1), ref_dot(b, x1), ref_dot(a, x2), ref_dot(b, x2)
                if shared:
                    kernels[i, j] = -(ab + s1a * s1b) / np.sqrt((aa + s1a**2) * (bb + s1b**2))
                    continue
                common = (ab + g1 * s1a * s1b) + g2 * s2a * s2b
                k12 = -(common + e * s1a * s2b) / np.sqrt((aa + s1a**2) * (bb + s2b**2))
                k21 = -(common + e * s2a * s1b) / np.sqrt((aa + s2a**2) * (bb + s1b**2))
                kernels[i, j] = (k12 + k21) / 2 if swap_average else k12
    return kernels, ~np.isfinite(kernels).all(axis=(0, 1))


def ref_protocol_kernels(alice_dirs, bob_dirs, p1, p2, mass):
    """The protocol's kernels: ``K12``, or the shared form for momenta
    equal bit for bit; degenerate rows raise."""
    kernels, degenerate = ref_momentum_kernels(alice_dirs, bob_dirs, p1, p2, mass, False)
    if np.any(degenerate):
        raise DegenerateObservableError("degenerate")
    return kernels + 0.0


def ref_protocol_threshold(transcript):
    """The empirical threshold of a run: |mean CHSH| of the reference
    kernels over the recorded momenta."""
    config = transcript.config
    sides = (config.bell.a, config.bell.a_prime), (config.bell.b, config.bell.b_prime)
    k = ref_protocol_kernels(
        *sides, transcript.momentum1, transcript.momentum2, config.distribution.mass
    )
    return abs(float(np.mean(((k[0, 0] + k[0, 1]) + k[1, 0]) - k[1, 1])))


def ref_sample_kernels(axes, dist, rng, n):
    """The reference kernels of ``n`` draws, one row per axis pair; a draw
    with a kernel that is not finite raises."""
    kernels, degenerate = ref_momentum_kernels(*axes, *ref_sample(dist, rng, n), dist.mass)
    if np.any(degenerate):
        raise DegenerateObservableError("degenerate")
    return kernels.reshape(-1, n)


def ref_bell_average_mc(config, dist, samples, seed, chunk_size):
    """``bell_average_mc`` as whole-chunk passes: each chunk's reference
    kernels, then one ``np.sum`` along each pair's row.  Returns the value
    and the standard error."""
    sides = (config.a, config.a_prime), (config.b, config.b_prime)
    full, rest = divmod(samples, chunk_size)
    sizes = [chunk_size] * full + ([rest] if rest else [])
    sums, squares = np.zeros(4), np.zeros(4)
    for child, n in zip(np.random.SeedSequence(seed).spawn(len(sizes)), sizes):
        rng = np.random.Generator(np.random.Philox(child))
        kernels = ref_sample_kernels(sides, dist, rng, n)
        sums += np.sum(kernels, axis=1)
        squares += np.sum(kernels * kernels, axis=1)
    means = sums / samples
    errors = np.sqrt(np.maximum(squares - samples * means * means, 0.0) / (samples - 1) / samples)
    m = means.reshape(2, 2)
    return ((m[0, 0] + m[0, 1]) + m[1, 0]) - m[1, 1], np.sqrt(np.sum(errors * errors))


def ref_protocol_outcomes(transcript):
    """Bob's and Eve's outcome columns of a run, rebuilt from its recorded
    choices, its outcome and resend streams and the protocol's reference
    kernels."""
    config = transcript.config
    n = transcript.pair_count
    roles = np.random.SeedSequence(config.seed).spawn(6)
    rng_outcome = np.random.Generator(np.random.Philox(roles[3]))
    rng_outcome.integers(0, 2, size=n)
    u_outcome = rng_outcome.random(n)
    p1, p2, mass = transcript.momentum1, transcript.momentum2, config.distribution.mass
    alice = config.alice_pool[transcript.alice_basis]
    bob = config.bob_pool[transcript.bob_basis]
    partner = bob.copy()
    attacked = transcript.attacked
    pool = np.array(config.eve.basis_pool)
    partner[attacked] = pool[transcript.eve_basis[attacked]]
    s = transcript.alice_outcome
    kernel = ref_protocol_kernels((alice,), (partner,), p1, p2, mass)[0, 0]
    t = np.where(u_outcome < 0.5 * (1.0 + s * kernel), 1, -1).astype(np.int8)
    rng_eve = np.random.Generator(np.random.Philox(roles[4]))
    rng_eve.random(n)
    rng_eve.integers(0, len(pool), size=n)
    u_resend = rng_eve.random(n)[attacked]
    at = p2[attacked]
    overlap = -ref_protocol_kernels((partner[attacked],), (bob[attacked],), at, at, mass)[0, 0]
    bob_outcome = t.copy()
    bob_outcome[attacked] = np.where(u_resend < 0.5 * (1.0 + t[attacked] * overlap), 1, -1)
    eve_outcome = np.where(attacked, t, 0).astype(np.int8)
    return bob_outcome, eve_outcome


def counted_projections(monkeypatch) -> list:
    """A list that gains one entry per ``correlator._project`` call."""
    built = []
    project = correlator._project

    def counting_project(*args):
        built.append(1)
        return project(*args)

    monkeypatch.setattr(correlator, "_project", counting_project)
    return built


def same_bytes(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def json_bytes(transcript) -> str:
    """A transcript's JSON form."""
    stream = io.StringIO()
    transcript.to_json(stream)
    return stream.getvalue()


EPS = np.finfo(float).eps

#: The bound, in ulps of 1 times ``1 / (1 - beta^2)``, on the distance of
#: the velocity paths from the reference.  The inputs below reach at most
#: 2.0 for the boosted axes, 1.6 for a kernel and 2.4 for a CHSH sum of
#: four kernels.
ULPS = 8


def exact_rest(beta) -> np.ndarray:
    """``1 - |beta|^2`` of each row, exact before its final rounding."""
    rows = np.reshape(beta, (-1, 3)).tolist()
    rest = [float(1 - sum(Fraction(x) ** 2 for x in row)) for row in rows]
    return np.reshape(rest, np.shape(beta)[:-1])


def room(*betas):
    """Per row, the largest ``1 / (1 - beta^2)`` of the velocities
    ``betas``; 1 where ``|beta| >= 1``, where both sides take
    ``sqrt(1 - beta^2)`` as 0."""
    rest = np.min([exact_rest(b) for b in np.broadcast_arrays(*betas)], axis=0)
    return 1.0 / np.where(rest > 0.0, np.minimum(rest, 1.0), 1.0)


def ref_rounds_rest(beta) -> np.ndarray:
    """The rows where the reference's ``1 - beta^2`` is not exact."""
    return exact_rest(beta) != 1.0 - np.sum(np.square(beta), axis=-1)


def close(got, want, scale):
    """``got`` within ``ULPS`` ulps of ``want`` times ``scale`` (see
    :func:`room`) and ``max(1, |want|)``."""
    got, want = np.asarray(got), np.asarray(want)
    bound = ULPS * EPS * np.maximum(1.0, np.abs(want)) * scale
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= bound))


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


def signed_velocity_rows():
    """The :func:`signed_rows` with |beta| <= 1: the rest are no velocity."""
    rows = signed_rows()
    return rows[np.sum(rows * rows, axis=-1) <= 1.0]


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

    def test_overflowing_momenta_are_scaled(self):
        # |p|^2 overflows at 1e200: the row is taken in units of its
        # largest component, and the rows beside it keep their bytes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert same_bytes(beta_from_momentum([[1e200, 0, 0]], 1.0), np.array([[1.0, 0.0, 0.0]]))
            p = np.array([[0.3, -1.2, 2.0], [-3e160, 4e160, 0.0], [1e59, 0.0, 0.0], [0.0, 2e60, 0.0]])
            beta = beta_from_momentum(p, 1.0)
        assert same_bytes(beta[[0, 2]], ref_beta_from_momentum(p[[0, 2]], 1.0))
        assert same_bytes(beta[1], np.array([-0.6, 0.8, 0.0]))
        assert same_bytes(beta[3], np.array([0.0, 1.0, 0.0]))


class TestBoostedAxis:
    def test_random_velocities_and_axes(self):
        rng = np.random.default_rng(21)
        beta = random_velocities(rng, 4096)
        per_row = random_unit(rng, 4096)
        scale = room(beta)[:, None]
        for a in (per_row, per_row[0], np.array([0.0, 0.0, 1.0]), np.array([3.0, -1.0, 2.0])):
            assert close(boosted_spin_axis(a, beta), ref_boosted_spin_axis(a, beta), scale)

    def test_signed_zeros_rest_and_unit_speed(self):
        # every signed axis against every signed velocity, at speeds 1, 0.5
        # and 1e-300: the along-axis sum of three -0.0 products must come
        # out +0.0, as np.sum gives it
        axes = signed_rows()[:, None, :]
        for scale in (1.0, 0.5, 1e-300):
            beta = scale * signed_rows()
            beta = beta[np.sum(beta * beta, axis=-1) <= 1.0][None, :, :]
            assert close(boosted_spin_axis(axes, beta), ref_boosted_spin_axis(axes, beta), 1.0)
        beta = unit_velocity_rows()[None, :, :]
        assert close(boosted_spin_axis(axes, beta), ref_boosted_spin_axis(axes, beta), 1.0)
        # at rest the axis comes back as it is
        assert np.array_equal(boosted_spin_axis(axes, np.zeros(3)), axes)

    def test_zero_dimensional(self):
        rng = np.random.default_rng(22)
        for a, beta in zip(random_unit(rng, 50), random_velocities(rng, 50)):
            got = boosted_spin_axis(a, beta)
            assert got.shape == (3,)
            assert close(got, ref_boosted_spin_axis(a, beta), room(beta))
        for a, beta in itertools.product(signed_rows(), unit_velocity_rows()):
            assert close(boosted_spin_axis(a, beta), ref_boosted_spin_axis(a, beta), 1.0)
        assert close(
            boosted_spin_axis((0.0, 1.0, 0.0), (0.8, 0.0, 0.0)),
            ref_boosted_spin_axis((0.0, 1.0, 0.0), (0.8, 0.0, 0.0)),
            room((0.8, 0.0, 0.0)),
        )

    def test_broadcasting(self):
        rng = np.random.default_rng(23)
        a = random_unit(rng, 2).reshape(2, 1, 3)
        beta = random_velocities(rng, 4)
        got = boosted_spin_axis(a, beta)
        assert got.shape == (2, 4, 3)
        assert close(got, ref_boosted_spin_axis(a, beta), room(beta)[:, None])
        assert close(
            boosted_spin_axis(a[0], beta[0]), ref_boosted_spin_axis(a[0], beta[0]), room(beta[0])
        )

    def test_shape_is_checked(self):
        with pytest.raises(ValueError, match=r"\(\.\.\., 3\)"):
            boosted_spin_axis([1.0, 0.0], [0.0, 0.0])


class TestKernel:
    def test_kernel_matrix_with_degenerate_rows_and_signed_zeros(self):
        # every (Alice, Bob) pair of fixed and per-row axes: the kernels of
        # the rows the reference keeps, and a raise on each row it marks
        # degenerate from an exact 1 - beta^2.  Where it rounds
        # 1 - beta^2 to 0 from a speed within 1e-16 of 1, the axis keeps a
        # length m/E ~ 1e-8, so the row is not degenerate.
        rng = np.random.default_rng(31)
        signed = signed_velocity_rows()
        beta1 = np.concatenate([random_velocities(rng, 500), signed, unit_velocity_rows()])
        beta2 = np.concatenate([random_velocities(rng, 500), unit_velocity_rows(), signed])
        per_row = np.concatenate([random_unit(rng, 500), signed, unit_velocity_rows()])
        alice = (DEFAULT_CONFIG.a, per_row, (-0.0, 1.0, 0.0))
        bob = (per_row[::-1], DEFAULT_CONFIG.b_prime)
        for b1, b2 in ((beta1, beta2), (beta1, beta1), (beta2, beta1.copy())):
            want, degenerate = ref_kernel_matrix(alice, bob, b1, b2)
            rounded = ref_rounds_rest(b1) | ref_rounds_rest(b2)
            assert (degenerate & ~rounded).any() and not degenerate.all()
            for (i, a), (j, b) in itertools.product(enumerate(alice), enumerate(bob)):
                # a pair's row is degenerate where its own two axes are
                short = ref_kernel_matrix((a,), (b,), b1, b2)[1]
                keep = ~short
                a, b = np.broadcast_to(a, b1.shape), np.broadcast_to(b, b1.shape)
                got = kernel_from_beta(a[keep], b[keep], b1[keep], b2[keep])
                assert close(got, want[i, j][keep] + 0.0, room(b1[keep], b2[keep])), (i, j)
                for row in np.nonzero(short & ~rounded)[0]:
                    with pytest.raises(DegenerateObservableError):
                        kernel_from_beta(a[row], b[row], b1[row], b2[row])

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
        for a_dir, b_dir, b1, b2 in cases:
            got = kernel_from_beta(a_dir, b_dir, b1, b2)
            assert close(got, ref_kernel_from_beta(a_dir, b_dir, b1, b2), room(b1, b2))

    def test_degenerate_rows_raise_on_both(self):
        args = ((0.0, 1.0, 0.0), (0.0, 1.0, 0.0), np.array([[1.0, 0.0, 0.0]]), np.zeros((1, 3)))
        for kernel in (kernel_from_beta, ref_kernel_from_beta):
            with pytest.raises(DegenerateObservableError):
                kernel(*args)

    def test_chsh_from_beta_in_small_blocks(self, monkeypatch):
        # 1000 rows make the leaves [120, 128, 120, 128, 120, 128, 128, 128]
        # of numpy's own 128-value blocks, with the bytes of one block
        rng = np.random.default_rng(34)
        beta1 = random_velocities(rng, 1000) * 0.999
        beta2 = random_velocities(rng, 1000) * 0.999
        cases = ((beta1, beta2), (beta2, beta2.copy()), (np.zeros(3), beta2))
        whole = [chsh_from_beta(DEFAULT_CONFIG, b1, b2) for b1, b2 in cases]
        monkeypatch.setattr(correlator, "_BLOCK_ROWS", 128)
        for (b1, b2), want in zip(cases, whole):
            got = chsh_from_beta(DEFAULT_CONFIG, b1, b2)
            assert same_bytes(got, want)
            assert close(got, ref_chsh_from_beta(DEFAULT_CONFIG, b1, b2), room(b1, b2))

    def test_chsh_from_beta(self):
        rng = np.random.default_rng(33)
        beta1 = random_velocities(rng, 3000) * 0.999
        beta2 = random_velocities(rng, 3000) * 0.999
        tilted = BellConfig(
            (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 0.6, 0.8), (0.8, -0.6, 0.0)
        )
        for config in (DEFAULT_CONFIG, tilted):
            for b1, b2 in ((beta1, beta2), (beta1, beta1), (beta1[3], beta2[3]), (np.zeros(3), beta2)):
                got = chsh_from_beta(config, b1, b2)
                assert close(got, ref_chsh_from_beta(config, b1, b2), room(b1, b2))


class TestVelocityDomain:
    """Every velocity path forms ``c`` in ``_rest_factor``, which takes
    finite velocities up to the rounded unit speed and raises on the rest."""

    def test_faster_and_nan_velocities_raise(self):
        # each of these read a number: -1.0, [0, 0, 2], and a
        # DegenerateObservableError for the NaN
        calls = [
            lambda: kernel_from_beta((0, 0.6, 0.8), (0.6, 0, 0.8), (0, 0, 2.0), (0, 0, 3.0)),
            lambda: boosted_spin_axis((0, 1, 0.5), (0, 0, 2.0)),
            lambda: kernel_from_beta((0, 0, 1), (0, 1, 0), (np.nan, 0, 0), (0, 0, 0)),
            lambda: boosted_spin_axis((0, 0, 1), (0, np.inf, 0)),
            lambda: chsh_from_beta(DEFAULT_CONFIG, (0.9, 0.5, 0.0), (0.0, 0.0, 0.0)),
        ]
        rows = signed_rows()
        for row in rows[np.sum(rows * rows, axis=-1) > 1.0]:
            calls.append(lambda row=row: kernel_from_beta((0, 0, 1), (1, 0, 0), row, row))
        for call in calls:
            with pytest.raises(DomainError, match="not finite or has") as raised:
                call()
            assert raised.type is DomainError

    def test_unit_velocities_rounded_to_floats_pass(self):
        # |beta|^2 of a unit velocity reads up to 1 + 3 eps: from momenta
        # past gamma ~ 1e8 and from normalized vectors
        rng = np.random.default_rng(33)
        p = random_unit(rng, 20_000) * 10.0 ** rng.uniform(10, 300, (20_000, 1))
        unit = np.concatenate([beta_from_momentum(p, 1.0), random_unit(rng, 20_000),
                               unit_velocity_rows()])
        assert (np.sum(unit * unit, axis=-1) > 1.0).any()
        axis = np.array([0.0, 0.0, 1.0])
        assert np.isfinite(boosted_spin_axis(axis, unit)).all()
        chsh_from_beta(DEFAULT_CONFIG, unit[:1000], unit[1000:2000])


BEAMS = {
    "correlated": CorrelatedGaussian((0.3, 1.2, 2.0), (0.4, 0.2, 0.9)),
    "crossed": JointGaussian((2.0, 0.0, 0.5), 0.6, (-0.4, 1.5, 0.0), (0.3, 0.8, 0.2), mass=0.7),
    # zero spread and equal means: every draw has p1 equal to p2 bit for bit
    "joint_equal": JointGaussian((0.0, 2.5, 4.0), 0.0, (0.0, 2.5, 4.0), 0.0),
}


#: The Monte Carlo beams, and one whose gamma straddles 1e14, where the
#: transverse axis has m/E < DEGENERACY_TOL: a tolerance rule redrew about
#: half of its draws, yet each has a finite kernel.
MC_BEAMS = {**BEAMS, "resampled": CorrelatedGaussian((9.5e13, 0.0, 0.0), (3e13, 0.0, 0.0))}


def same_estimate(got, want):
    value, error = want
    return (repr(got.value), repr(got.standard_error), got.rejected) == (
        repr(float(value)), repr(float(error)), 0)


class TestMonteCarlo:
    @pytest.mark.parametrize("beam", sorted(MC_BEAMS))
    def test_bell_average_mc_matches_reference(self, beam, monkeypatch):
        dist = MC_BEAMS[beam]
        want = ref_bell_average_mc(DEFAULT_CONFIG, dist, 5003, 17, 999)
        monkeypatch.setattr(correlator, "DEFAULT_CHUNK_SIZE", 999)
        for workers in (1, 2):
            got = bell_average_mc(DEFAULT_CONFIG, dist, 5003, 17, workers=workers)
            assert same_estimate(got, want), workers

    @pytest.mark.parametrize("beam", sorted(MC_BEAMS))
    def test_blocks_within_a_chunk_match_reference(self, beam, monkeypatch):
        # leaves of at most 128 draws, numpy's own pairwise block, cut each
        # 999-draw chunk into nine, of 64 to 128 draws
        dist = MC_BEAMS[beam]
        monkeypatch.setattr(correlator, "_BLOCK_ROWS", 128)
        monkeypatch.setattr(correlator, "DEFAULT_CHUNK_SIZE", 999)
        assert correlator._leaf_sizes(999) == [120, 128, 120, 128, 120, 128, 120, 64, 71]
        got = bell_average_mc(DEFAULT_CONFIG, dist, 5003, 17, workers=2)
        assert same_estimate(got, ref_bell_average_mc(DEFAULT_CONFIG, dist, 5003, 17, 999))

    @pytest.mark.parametrize("beam", ["correlated", "crossed"])
    def test_default_chunk_matches_reference(self, beam):
        # a full chunk of eight leaves and a ragged one of 34464 draws
        dist = MC_BEAMS[beam]
        got = bell_average_mc(DEFAULT_CONFIG, dist, 100_000, 4, workers=2)
        assert same_estimate(got, ref_bell_average_mc(DEFAULT_CONFIG, dist, 100_000, 4, 65536))

    def test_old_resampled_beam_needs_no_redraw(self):
        # gamma ~ 1e8 leaves the transverse axis b a length m/E ~ 1e-8; the
        # velocity form rounded beta to 1 there and redrew 148871 of 100k
        # draws, reading -2.0000000419564192 (biased by ~1.6e-8)
        dist = CorrelatedGaussian((9.5e7, 0.0, 0.0), (3e7, 0.0, 0.0))
        est = bell_average_mc(DEFAULT_CONFIG, dist, 100_000, 11)
        assert est.rejected == 0
        children = np.random.SeedSequence(11).spawn(2)
        p = np.concatenate([ref_sample(dist, np.random.Generator(np.random.Philox(child)), n)[0]
                            for child, n in zip(children, (65536, 34464))])
        # the same draws through v(a) = (a.n) n + eps (a - (a.n) n), with
        # eps = m/E taken from |p|/m without forming beta
        norm = np.linalg.norm(p, axis=-1, keepdims=True)
        n, eps = p / norm, 1.0 / np.hypot(1.0, norm / dist.mass)

        def axis(a):
            along = (n @ np.asarray(a))[:, None] * n
            return along + eps * (np.asarray(a) - along)

        def mean_kernel(a, b):
            va, vb = axis(a), axis(b)
            dot = np.sum(va * vb, axis=-1)
            return np.mean(-dot / np.sqrt(np.sum(va * va, axis=-1) * np.sum(vb * vb, axis=-1)))

        c = DEFAULT_CONFIG
        want = (mean_kernel(c.a, c.b) + mean_kernel(c.a, c.b_prime)
                + mean_kernel(c.a_prime, c.b) - mean_kernel(c.a_prime, c.b_prime))
        assert abs(est.value - want) <= 1e-14

    @pytest.mark.parametrize("block_rows", [128, 1024, 8192, None])
    def test_leaf_tree_reproduces_np_sum(self, block_rows, monkeypatch):
        # values spread over 16 decades, so a different order of additions
        # rounds differently; None keeps the shipped block size, which must
        # be at least numpy's own pairwise block of 128 values for each leaf
        # to be one subtree of np.sum
        if block_rows is None:
            block_rows = correlator._BLOCK_ROWS
            assert block_rows >= 128
        monkeypatch.setattr(correlator, "_BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(41)
        for n in (1, 7, 8, 100, 128, 129, 1000, 2000, 4096, 8192, 8193, 12345, 34464, 65535, 65536):
            x = rng.standard_normal((4, n)) * 10.0 ** rng.uniform(-8, 8, (4, n))
            sizes = correlator._leaf_sizes(n)
            assert sum(sizes) == n and max(sizes) <= block_rows
            starts = np.cumsum([0] + sizes[:-1])
            leaves = iter([x[:, a:a + k].sum(axis=1) for a, k in zip(starts, sizes)])
            assert same_bytes(correlator._tree_sum(n, leaves), x.sum(axis=1)), n

    def test_blocks_draw_the_stream_of_one_draw(self):
        sizes = correlator._leaf_sizes(100_000 - 65536)
        for dist in (MC_BEAMS["correlated"], MC_BEAMS["crossed"]):
            whole = dist.sample(np.random.default_rng(5), sum(sizes))
            blocks = list(dist.sample_blocks(np.random.default_rng(5), sizes))
            for got, want in zip(zip(*blocks), whole):
                assert same_bytes(np.concatenate(got), want)
            assert same_bytes(whole[0], ref_sample(dist, np.random.default_rng(5), sum(sizes))[0])

    @pytest.mark.parametrize("beam, frames_per_chunk", [
        ("correlated", 1), ("crossed", 2), ("joint_equal", 1),
    ])
    def test_equal_momenta_share_one_frame(self, beam, frames_per_chunk, monkeypatch):
        # one projection pass per leaf for one momentum array or bit-equal
        # arrays, two for a crossed beam; each 250-draw chunk is one leaf
        built = counted_projections(monkeypatch)
        monkeypatch.setattr(correlator, "DEFAULT_CHUNK_SIZE", 250)
        bell_average_mc(DEFAULT_CONFIG, BEAMS[beam], 1000, 5)
        assert len(built) == 4 * frames_per_chunk

    def test_signed_zero_momenta_get_two_frames(self, monkeypatch):
        # momenta and velocities get one projection each, unless the two
        # arrays are equal bit for bit
        p = np.array([[0.0, 0.1, 0.2]])
        q = np.array([[-0.0, 0.1, 0.2]])
        built = counted_projections(monkeypatch)
        sides = np.array([DEFAULT_CONFIG.a]), np.array([DEFAULT_CONFIG.b])
        for mass in (1.0, None):
            for rows, projections in (((p, q), 2), ((p, p.copy()), 1)):
                built.clear()
                correlator._momentum_rows(*sides, *rows, mass)
                assert len(built) == projections


class TestProtocolThreshold:
    """The protocol's kernels take the projection form (``K12`` for two
    momenta), and its threshold keeps the bytes of that form's reference."""

    @pytest.mark.parametrize("beam", sorted(BEAMS))
    def test_run_threshold_equals_standalone_bell_test(self, beam):
        config = ProtocolConfig(4000, BEAMS[beam], seed=3)
        transcript = run_protocol(config)
        assert bell_test(transcript, corrected=True) == transcript.bell_corrected
        want = ref_protocol_threshold(transcript)
        assert repr(transcript.bell_corrected.threshold) == repr(want)

    @pytest.mark.parametrize("beam", sorted(BEAMS))
    def test_indexed_kernels_match_reference(self, beam, monkeypatch):
        # per-row axes from two pools, in the leaves of 120 and 128 rows
        # that 1000 rows make at blocks of 128
        monkeypatch.setattr(correlator, "_BLOCK_ROWS", 128)
        rng = np.random.default_rng(35)
        pool1, pool2 = random_unit(rng, 3), random_unit(rng, 7)
        i, j = rng.integers(0, 3, 1000), rng.integers(0, 7, 1000)
        dist = BEAMS[beam]
        p1, p2 = dist.sample(rng, 1000)
        got = correlator._momentum_rows((pool1, i), (pool2, j), p1, p2, dist.mass)
        want = ref_protocol_kernels((pool1[i],), (pool2[j],), p1, p2, dist.mass)[0, 0]
        assert same_bytes(got, want)

    @pytest.mark.parametrize("beam", sorted(BEAMS))
    def test_run_in_small_blocks_matches_reference(self, beam, monkeypatch):
        # 1000 pairs make the leaves [120, 128, 120, 128, 120, 128, 128, 128];
        # about half of them are attacked, so each leaf resends a ragged part
        config = ProtocolConfig(
            1000, BEAMS[beam], seed=8, eve=InterceptResend(attack_probability=0.5)
        )
        whole = io.StringIO()
        run_protocol(config).to_json(whole)
        monkeypatch.setattr(correlator, "_BLOCK_ROWS", 128)
        transcript = run_protocol(config)
        bob_outcome, eve_outcome = ref_protocol_outcomes(transcript)
        assert 64 < transcript.attacked.sum() < 1000 - 64
        assert same_bytes(transcript.bob_outcome, bob_outcome)
        assert same_bytes(transcript.eve_outcome, eve_outcome)
        want = ref_protocol_threshold(transcript)
        assert repr(transcript.bell_corrected.threshold) == repr(want)
        blocked = io.StringIO()
        transcript.to_json(blocked)
        assert blocked.getvalue() == whole.getvalue()

    @pytest.mark.parametrize("beam", sorted(BEAMS))
    def test_zero_attack_in_small_blocks_is_eve_free(self, beam, monkeypatch):
        # an attack that cannot fire draws nothing from Eve's stream
        configs = [ProtocolConfig(1000, BEAMS[beam], seed=8, eve=eve)
                   for eve in (None, InterceptResend(attack_probability=0.0))]
        whole = json_bytes(run_protocol(configs[0]))
        monkeypatch.setattr(correlator, "_BLOCK_ROWS", 128)
        for config in configs:
            assert json_bytes(run_protocol(config)) == whole

    @pytest.mark.parametrize("beam", sorted(BEAMS))
    def test_attacks_in_small_blocks_are_nested(self, beam, monkeypatch):
        # one uniform per round decides the attack, and Eve's bases and
        # resend uniforms follow whatever the probability, so on one seed a
        # likelier attack adds rounds and keeps the others' draws
        configs = [
            ProtocolConfig(1000, BEAMS[beam], seed=8, eve=InterceptResend(attack_probability=p))
            for p in (0.3, 0.7)
        ]
        whole = [json_bytes(run_protocol(config)) for config in configs]
        monkeypatch.setattr(correlator, "_BLOCK_ROWS", 128)
        low, high = (run_protocol(config) for config in configs)
        assert [json_bytes(t) for t in (low, high)] == whole
        assert np.all(high.attacked[low.attacked])
        assert 64 < low.attacked.sum() < high.attacked.sum() < 1000 - 64
        assert same_bytes(low.eve_basis[low.attacked], high.eve_basis[low.attacked])
        for transcript in (low, high):
            bob_outcome, eve_outcome = ref_protocol_outcomes(transcript)
            assert same_bytes(transcript.bob_outcome, bob_outcome)
            assert same_bytes(transcript.eve_outcome, eve_outcome)

    @pytest.mark.parametrize("beam", sorted(BEAMS))
    def test_configured_threshold_in_small_blocks(self, beam, monkeypatch):
        config = ProtocolConfig(
            1000, BEAMS[beam], seed=8, eve=InterceptResend(attack_probability=0.5),
            threshold_mode="configured", threshold_samples=2000,
        )
        whole = json_bytes(run_protocol(config))
        monkeypatch.setattr(correlator, "_BLOCK_ROWS", 128)
        transcript = run_protocol(config)
        assert json_bytes(transcript) == whole
        assert bell_test(transcript, corrected=True) == transcript.bell_corrected
        bob_outcome, eve_outcome = ref_protocol_outcomes(transcript)
        assert same_bytes(transcript.bob_outcome, bob_outcome)
        assert same_bytes(transcript.eve_outcome, eve_outcome)


#: Bytes a round that a 2^16-round run, every round attacked, may trace at
#: its peak above its transcript's arrays.  The run holds two whole-run
#: uniform arrays, 16 bytes a round, the index of each particle 2's axis,
#: 4 at its peak, and a block of kernel work on each of two threads, ~41
#: bytes a round for one momentum array and ~76 for two, where the
#: unsymmetrized kernel projects each apiece: ~55-58 and ~91-93 measured.
#: Whole-run kernel, CHSH, uniform and momentum temporaries put the same
#: runs at 109-120 and 119-157.
PEAK_BOUND = {"correlated": 80, "crossed": 110}


class TestProtocolMemory:
    """A run holds its transcript and little more: no whole-run float
    array but Bob's outcome uniforms and the attacked rounds' resend
    uniforms, and otherwise a block of rows of work per thread."""

    @pytest.mark.parametrize("beam", sorted(PEAK_BOUND))
    def test_peak_above_the_transcript(self, beam):
        n = 2**16
        config = ProtocolConfig(n, BEAMS[beam], seed=4, eve=InterceptResend(attack_probability=1.0))
        run_protocol(config)
        tracemalloc.start()
        try:
            transcript = run_protocol(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = {id(v): v.nbytes for v in vars(transcript).values() if isinstance(v, np.ndarray)}
        assert (peak - sum(arrays.values())) / n < PEAK_BOUND[beam]


class TestLeafBlocks:
    """Every whole-array pass runs over the leaves of ``_leaf_sizes``, and
    each leaf takes the shared form when its two arrays are equal bit for
    bit, as a Monte Carlo leaf does."""

    def test_shared_form_is_decided_per_leaf(self, monkeypatch):
        # four leaves of 8192 rows; the copy differs in the last row alone,
        # so the first three leaves project once and take the shared form,
        # and only the last projects each array apiece.  K12 differs from
        # the shared form in the last bits of 8082 of the first 24576 CHSH
        # rows, so a rule decided on the whole arrays fails here
        dist = BEAMS["correlated"]
        p, _ = dist.sample(np.random.default_rng(7), 4 * 8192)
        q = p.copy()
        q[-1, 0] = np.nextafter(q[-1, 0], np.inf)
        assert correlator._leaf_sizes(len(p)) == [8192] * 4
        sides = _sides(DEFAULT_CONFIG)
        head = slice(0, 3 * 8192)
        axes = correlator._mc_axes(*sides)
        one = correlator._project(axes, p[head], dist.mass)
        k12 = _chsh_sum(correlator._k12_kernels(axes, one, one).reshape(4, -1))
        built = counted_projections(monkeypatch)
        got = correlator._momentum_rows(*sides, p, q, dist.mass, _chsh_sum)
        assert len(built) == 5
        want = correlator._momentum_rows(*sides, p, p, dist.mass, _chsh_sum)
        assert same_bytes(got[head], want[head])
        assert not same_bytes(got[head], k12)

    @pytest.mark.parametrize("mass", [1.0, None])
    def test_shared_form_is_k12_at_rest(self, mass):
        # at zero momentum, or zero velocity, the two forms give the same
        # bytes, so a leaf of rest rows reads the same in either form;
        # a signed zero on the second particle takes K12 and reads the same
        rng = np.random.default_rng(29)
        axes = correlator._mc_axes(random_unit(rng, 5), random_unit(rng, 7))
        rest = np.zeros((64, 3))
        one = correlator._project(axes, rest, mass)
        shared = correlator._nondegenerate(correlator._shared_kernels(axes, one))
        for second in (rest, -rest):
            two = correlator._project(axes, second, mass)
            k12 = correlator._nondegenerate(correlator._k12_kernels(axes, one, two))
            assert same_bytes(k12, shared)

    @pytest.mark.parametrize("beam", sorted(BEAMS))
    @pytest.mark.parametrize("indexed", [False, True], ids=["fixed", "indexed"])
    def test_where_yields_the_selected_rows_of_each_leaf(self, beam, indexed, monkeypatch):
        # 1000 rows make the leaves [120, 128, 120, 128, 120, 128, 128, 128]
        # at blocks of 128; the mask selects none of the second and sixth,
        # which yield nothing, and about half of the rest
        monkeypatch.setattr(correlator, "_BLOCK_ROWS", 128)
        rng = np.random.default_rng(43)
        dist = BEAMS[beam]
        p1, p2 = dist.sample(rng, 1000)
        if indexed:
            pools = random_unit(rng, 3), random_unit(rng, 7)
            index = rng.integers(0, 3, 1000), rng.integers(0, 7, 1000)
            sides = lambda rows: tuple((pool, i[rows]) for pool, i in zip(pools, index))
            combine = lambda k: k[0]
        else:
            sides = lambda rows: _sides(DEFAULT_CONFIG)
            combine = _chsh_sum

        def blocks(where):
            return list(correlator._row_kernels(*sides(slice(None)), p1, p2, dist.mass,
                                                combine, where=where))

        holes = rng.random(1000) < 0.5
        holes[120:248] = holes[616:744] = False
        got = blocks(holes)
        assert len(got) == 6 and all(rows.size for rows, _ in got)
        rows = np.concatenate([rows for rows, _ in got])
        assert same_bytes(rows, np.flatnonzero(holes))
        q1, q2 = p1[rows], p2[rows]
        want = correlator._momentum_rows(*sides(rows), q1, q2, dist.mass, combine)
        assert same_bytes(np.concatenate([values for _, values in got]), want)

        assert blocks(np.zeros(1000, dtype=bool)) == []

        every = blocks(np.ones(1000, dtype=bool))
        whole = blocks(None)
        assert len(every) == len(whole) == 8
        for (rows, values), (leaf, want) in zip(every, whole):
            assert same_bytes(rows, np.arange(leaf.start, leaf.stop))
            assert same_bytes(values, want)

    def test_empty_arrays_give_empty_results(self):
        # no rows make no leaf: a leaf of zero rows would reduce an empty
        # projection
        assert correlator._leaf_slices(0) == []
        empty = np.zeros((0, 3))
        c = DEFAULT_CONFIG
        for got in (kernel_from_beta(c.a, c.b, empty, empty),
                    kernel_from_beta(empty, empty, empty, empty),
                    chsh_from_beta(c, empty, empty)):
            assert got.shape == (0,)
