"""Exact-byte pins for fixed-seed transcripts and Monte Carlo estimates.

The golden scan tables pin the sharp kernel; these pins cover the sampled
paths: the per-row protocol kernel, the intercept-resend overlap, the
empirical threshold, the chunked Monte Carlo sums (including the swap
symmetrization of a joint beam and the resampling of degenerate draws),
and both transcript writers.  A refactor must leave every value here
unchanged; update them only after an intentional numerical change, and
record the reason in CHANGES.md.
"""

import hashlib
import io

import pytest

from relbell import (
    DEFAULT_CONFIG,
    CorrelatedGaussian,
    InterceptResend,
    JointGaussian,
    ProtocolConfig,
    bell_average_mc,
    correlator_mc,
    momentum_for_beta,
    run_protocol,
)

BEAMS = {
    "correlated": CorrelatedGaussian.from_beta((0.9, 0.0, 0.0), sigma=0.05),
    # crossed beams: the kernel is symmetrized over the particle swap
    "joint": JointGaussian(
        momentum_for_beta((0.9, 0.0, 0.0)), 0.1, momentum_for_beta((0.0, 0.8, 0.3)), 0.1
    ),
    # gamma straddles the degeneracy cutoff of the transverse axis b, so
    # many draws are resampled
    "resampled": CorrelatedGaussian((9.5e7, 0.0, 0.0), (3e7, 0.0, 0.0)),
}

EVES = {
    "honest": None,
    "p_eve_0.5": InterceptResend(attack_probability=0.5),
    "p_eve_1.0": InterceptResend(attack_probability=1.0),
}

#: SHA-256 of (to_json, to_csv) for a 20k-pair run at seed 3.
TRANSCRIPT_SHA256 = {
    ("correlated", "honest"): (
        "2eabb33a87650aa503f544650f5feb4aaeaf92e165d9f70a0c50d1ad2169c226",
        "ab35f0b71ac034a2b64ef9cb20cce0bbc65b95e17f5a7bc6428daf36684aff33",
    ),
    ("correlated", "p_eve_0.5"): (
        "4531883419cd9312769500eec2b85fb8fe35b01b44b41241ab4015e6513e7097",
        "7c27f335c86af10331fc1037deeb0c4e3723767bc9ff2d700be62ab879ee88d0",
    ),
    ("correlated", "p_eve_1.0"): (
        "16589f97fe3e43eea73593d56647e80076293c512e8dfdadd5c4b4f34e9a85cf",
        "225344d79c3e00a8501880ff755b4f833f9aedf8e13a543a3e2467524ce2f366",
    ),
    ("joint", "honest"): (
        "a0da37fbce903b5f34156393fa1210e5c3a0845b1806f955ec0418f9986b959a",
        "97352bb051d847eeb0f8b07d47039a0c419a961eafa5a450908fd1c3b311fe38",
    ),
    ("joint", "p_eve_0.5"): (
        "1b182383a4339018e31caaadef48db18a7f02e0cd4863247f441bb3cb7874792",
        "06837ace7c39751f6a9b93104e64944e32738c00705666949bf4a65ff146b4d5",
    ),
    ("joint", "p_eve_1.0"): (
        "9fc7c96eed201a3996403e2d653e36d6eafa2ae463c61ad69f783462a050cab8",
        "87491c15f0ea943493dfd99b7e1ea62ca9ca3481032498942d843eb3407bf378",
    ),
}

#: repr of (value, standard_error) and the rejected count, 2**15 samples,
#: seed 11, chunks of 4096.
MC_REPRS = {
    ("bell", "correlated"): ("-2.6321040657626766", "0.00027416682973755655", 0),
    ("bell", "joint"): ("-2.6516124684181595", "0.0002430576398369364", 0),
    ("bell", "resampled"): ("-2.000000040115193", "3.7653596529182755e-10", 49204),
    ("correlator", "correlated"): ("-0.39956735036187085", "0.0001925411880484384", 0),
    ("correlator", "joint"): ("-0.6289479650774807", "0.00013467038986968846", 0),
    ("correlator", "resampled"): ("-2.005759786178112e-08", "2.464243514952941e-10", 49204),
}


def transcript_digests(beam: str, eve: str) -> tuple[str, str]:
    config = ProtocolConfig(
        pair_count=20_000, distribution=BEAMS[beam], seed=3, eve=EVES[eve]
    )
    transcript = run_protocol(config)
    digests = []
    for write in (transcript.to_json, transcript.to_csv):
        buffer = io.StringIO()
        write(buffer)
        digests.append(hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest())
    return tuple(digests)


def mc_reprs(estimator: str, beam: str) -> tuple[str, str, int]:
    kwargs = dict(samples=2**15, seed=11, chunk_size=4096)
    if estimator == "bell":
        est = bell_average_mc(DEFAULT_CONFIG, BEAMS[beam], **kwargs)
    else:
        est = correlator_mc(DEFAULT_CONFIG.a, DEFAULT_CONFIG.b, BEAMS[beam], **kwargs)
    return repr(est.value), repr(est.standard_error), est.rejected


@pytest.mark.parametrize("beam", ["correlated", "joint"])
@pytest.mark.parametrize("eve", sorted(EVES))
def test_transcript_bytes(beam, eve):
    assert transcript_digests(beam, eve) == TRANSCRIPT_SHA256[beam, eve]


@pytest.mark.parametrize("beam", sorted(BEAMS))
@pytest.mark.parametrize("estimator", ["bell", "correlator"])
def test_monte_carlo_reprs(estimator, beam):
    assert mc_reprs(estimator, beam) == MC_REPRS[estimator, beam]
