"""Exact-byte pins for fixed-seed transcripts and Monte Carlo estimates.

The golden scan tables pin the sharp kernel; these pins cover the sampled
paths: the per-row protocol kernel, the intercept-resend overlap, the
empirical threshold, the chunked Monte Carlo sums at a small and at the
default chunk size (including the swap symmetrization of a joint beam and
a beam past the old degeneracy cutoff), both transcript writers, the JSON
form of every scan figure (at the default arguments and at a non-default
mass, beta_max and config), and what each command line command prints and
writes with ``--out``.  The
attacked transcripts (``p_eve_0.5``, ``p_eve_1.0``) pin CSV rows with
``attacked`` set.  A refactor must leave every value here
unchanged; update them only after an intentional numerical change, and
record the reason in CHANGES.md.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from relbell import (
    DEFAULT_CONFIG,
    BellConfig,
    CorrelatedGaussian,
    InterceptResend,
    JointGaussian,
    ProtocolConfig,
    bell_average_mc,
    correlator_mc,
    momentum_for_beta,
    run_protocol,
    scan_figure,
)
from relbell import correlator
from relbell.cli import main
from relbell.correlator import DEFAULT_CHUNK_SIZE

BEAMS = {
    "correlated": CorrelatedGaussian.from_beta((0.9, 0.0, 0.0), sigma=0.05),
    # crossed beams: the kernel is symmetrized over the particle swap
    "joint": JointGaussian(
        momentum_for_beta((0.9, 0.0, 0.0)), 0.1, momentum_for_beta((0.0, 0.8, 0.3)), 0.1
    ),
    # gamma straddles 1e14, where the transverse axis b has
    # m/E < DEGENERACY_TOL: a tolerance rule redrew many of these draws,
    # yet each has a finite kernel
    "resampled": CorrelatedGaussian((9.5e13, 0.0, 0.0), (3e13, 0.0, 0.0)),
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
    ("bell", "resampled"): ("-2.0000000000000244", "9.716223682308452e-17", 0),
    ("correlator", "correlated"): ("-0.39956735036187085", "0.0001925411880484384", 0),
    ("correlator", "joint"): ("-0.6289479650774807", "0.00013467038986968846", 0),
    ("correlator", "resampled"): ("-1.2309505153155896e-14", "6.870407653285634e-17", 0),
}

#: repr of (value, standard_error) and the rejected count, 100_000 samples,
#: seed 11, at the default chunk size: a full chunk of 65536 draws and a
#: ragged one of 34464, so each chunk spans many blocks of kernel work.
MC_DEFAULT_CHUNK_REPRS = {
    ("bell", "correlated"): ("-2.632200911914604", "0.0001582739314696837", 0),
    ("bell", "joint"): ("-2.651779127289326", "0.0001403512887817635", 0),
    ("bell", "resampled"): ("-2.000000000000026", "3.0772294313190215e-16", 0),
    ("correlator", "correlated"): ("-0.39967733548447903", "0.00011118662605016283", 0),
    ("correlator", "joint"): ("-0.629074121739185", "7.810198320969536e-05", 0),
    ("correlator", "resampled"): ("-1.3197073192242719e-14", "2.1759297981525034e-16", 0),
}

#: SHA-256 of ScanTable.to_json per figure, at the resolution given.
SCAN_JSON_SHA256 = {
    1: (11, "d09144b778e57934e80c3a97da78ce73f3797320f17ff024e926404406b039f4"),
    2: (11, "3bc17a5ef150d27d917953bd48f7d3816bc1c96eb6d99d1f85afd4d4a74165fa"),
    3: (7, "cea4d0f56c20fd71b598306cce6c57d3ac41033226adf6e12dee2ffcc727432e"),
    4: (11, "c50178c9f022500874c2473f6b47aef735bfc55ec7ad7f1fcfe980299d19e0bf"),
    5: (21, "0c56d9cc8d9518517ed27ae76f0cdf3460b75cca7b0cf81f437331f017f2dab4"),
    6: (21, "75735f44894e9bd77d8e10e9d94b46cb51fd718fc49e26d05ff1fc82b4a56cf6"),
}


#: DEFAULT_CONFIG turned by the rotation of the quaternion (1, 2, 2, 4) / 5.
ROTATED_CONFIG = BellConfig(
    a=(-0.4242640687119285, 0.028284271247461946, 0.905096679918781),
    a_prime=(0.4242640687119285, -0.8768124086713189, 0.2262741699796953),
    b=(0.0, -0.6, 0.8),
    b_prime=(-0.6, 0.64, 0.48),
)

#: SHA-256 of ScanTable.to_json per figure, at the resolution given, with
#: mass 0.511, beta_max 0.95 and ROTATED_CONFIG, so each figure's metadata
#: and config pass through to its table.
SCAN_JSON_OFF_DEFAULT_SHA256 = {
    1: (9, "449e78dd80ba1045bdda60d4d7ae8cb60320672fdfadb908e907c7f7779264d1"),
    2: (9, "597c3fb9266466b84afde8cf16d76fec6c2d293505943670f7e599cf1611d349"),
    3: (5, "62010041a1921e654d2df6242c281347f49f621509625bfeb99e0258eb13a718"),
    4: (9, "7083621a4b515e396f8dcb31111e990f6e925fffaeb93c2fd2fe98e4620408e0"),
    5: (17, "083cc7d16934c18faa86acee4d678959f545b182c9ac65203027d5ef2c9b4bc0"),
    6: (17, "e104bafd43167f2eded5ec6709269503d997d021c50b18b5cd63b06dfe580fab"),
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


def mc_reprs(estimator: str, beam: str, chunk_size: int = 4096, **kwargs) -> tuple[str, str, int]:
    kwargs = dict(samples=2**15, seed=11) | kwargs
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(correlator, "DEFAULT_CHUNK_SIZE", chunk_size)
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


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("beam", sorted(BEAMS))
@pytest.mark.parametrize("estimator", ["bell", "correlator"])
def test_monte_carlo_reprs_at_default_chunk(estimator, beam, workers):
    got = mc_reprs(estimator, beam, samples=100_000, chunk_size=DEFAULT_CHUNK_SIZE, workers=workers)
    assert got == MC_DEFAULT_CHUNK_REPRS[estimator, beam]


@pytest.mark.parametrize("figure", sorted(SCAN_JSON_SHA256))
def test_scan_json_bytes(figure):
    resolution, digest = SCAN_JSON_SHA256[figure]
    buffer = io.StringIO()
    scan_figure(figure, resolution).to_json(buffer)
    assert hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest() == digest



@pytest.mark.parametrize("figure", sorted(SCAN_JSON_OFF_DEFAULT_SHA256))
def test_scan_json_bytes_off_default(figure):
    resolution, digest = SCAN_JSON_OFF_DEFAULT_SHA256[figure]
    buffer = io.StringIO()
    scan_figure(figure, resolution, mass=0.511, beta_max=0.95, config=ROTATED_CONFIG).to_json(buffer)
    assert hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest() == digest

_SHARP_AXES = ["--a", "1,0,0", "--b", "0.6,0.8,0", "--beta", "0.3,0.5,0.2"]
_GAUSSIAN = ["--beta", "0.9,0,0", "--dist", "gaussian", "--sigma", "0.05"]
_PROTOCOL = ["protocol", "--pairs", "2000", "--seed", "3"]

#: argv, then SHA-256 of stdout and of the ``--out`` file (None: no ``--out``,
#: so a scan writes its table to stdout).
CLI_SHA256 = {
    "correlate_sharp": (
        ["correlate", *_SHARP_AXES],
        "8e4ae804cd84775f435cc0e49ffd75a4b4a9d5921f3bcc1578959cf6a91b207e",
        "3df1b75d0f6142509030921c36b279e6698db10427e66e32bbb5df40859f41c3",
    ),
    "correlate_sharp_beta2": (
        ["correlate", *_SHARP_AXES, "--beta2", "0,0.7,0.1"],
        "9dc907aad430afd4738f448f70d8e55b0eac7fb7baefa287b6aced6faf1c0eb4",
        "c3dacc72afb342babd4bb840be21c9077ae9580baf4cde35db7833f8008d04ac",
    ),
    "correlate_gaussian": (
        ["correlate", "--a", "1,0,0", "--b", "0.6,0.8,0", "--beta", "0.9,0,0",
         "--dist", "gaussian", "--sigma", "0.1", "--samples", "2000", "--seed", "5"],
        "22ba93770a7d30dfca6dc141f0f758ee7d8686270c7be58473876237610d4698",
        "22ba93770a7d30dfca6dc141f0f758ee7d8686270c7be58473876237610d4698",
    ),
    "bell_sharp": (
        ["bell", "--beta", "0.9,0,0"],
        "68c9cb2b5368b55367be1e7cd1c1e8b8e9f5f709d1fd28ff406d5db2791bbe0e",
        "3d027648a61b7257fd084be6b76240c75f55afb2cc90f86e3981ad3f4b6cdfe4",
    ),
    "bell_gaussian": (
        ["bell", *_GAUSSIAN, "--samples", "2000", "--seed", "7"],
        "8dc16ed218812e97026ce39eafd4b6c3df10c4bc66a68f48b3b4be9ddb373bb9",
        "8dc16ed218812e97026ce39eafd4b6c3df10c4bc66a68f48b3b4be9ddb373bb9",
    ),
    "bell_joint": (
        ["bell", "--beta", "0.9,0,0", "--dist", "joint", "--sigma", "0.1",
         "--beta2", "0,0.8,0.3", "--samples", "2000", "--seed", "7"],
        "5d553b13a52bb9d32f36c993311459572c315670c41ac924ac50374aa5f3d365",
        "5d553b13a52bb9d32f36c993311459572c315670c41ac924ac50374aa5f3d365",
    ),
    # about a third of the draws have |p|/m > 1e14, past the old
    # degeneracy cutoff of the transverse axis; none is redrawn
    "bell_resampled": (
        ["bell", "--beta", "0.9999999999999999,0,0", "--dist", "gaussian",
         "--sigma", "1e14,0,0", "--samples", "2000", "--seed", "7"],
        "cfc94c8fec8345e5c7da03a3afd47ca58a185faf1190269bfb5e860fd648435f",
        "cfc94c8fec8345e5c7da03a3afd47ca58a185faf1190269bfb5e860fd648435f",
    ),
    "threshold_sharp": (
        ["threshold", "--beta", "0.9,0,0"],
        "32da75a0792415076d8434676473b57115688ff9d6374c3408d4afaa28cd40f2",
        "32da75a0792415076d8434676473b57115688ff9d6374c3408d4afaa28cd40f2",
    ),
    "threshold_gaussian": (
        ["threshold", *_GAUSSIAN, "--samples", "2000", "--seed", "7"],
        "9d23e99f1f585c002880c4980b9f7550dd1107bebeb8a5a2a4af5e429388b6b7",
        "9d23e99f1f585c002880c4980b9f7550dd1107bebeb8a5a2a4af5e429388b6b7",
    ),
    "scan_csv": (
        ["scan", "--figure", "1", "--resolution", "5"],
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "8398d619a7efb041d38a05b0db0743386ec391e09f52d0a076933c40781e6965",
    ),
    "scan_json": (
        ["scan", "--figure", "3", "--resolution", "5", "--format", "json"],
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "86197484a27df06dfb6c4bad4f7d97d6b232383820df8cc17a01fbd0a2c3f1a6",
    ),
    "scan_csv_stdout": (
        ["scan", "--figure", "1", "--resolution", "5"],
        "8398d619a7efb041d38a05b0db0743386ec391e09f52d0a076933c40781e6965",
        None,
    ),
    "scan_json_stdout": (
        ["scan", "--figure", "3", "--resolution", "5", "--format", "json"],
        "86197484a27df06dfb6c4bad4f7d97d6b232383820df8cc17a01fbd0a2c3f1a6",
        None,
    ),
    "protocol_json_eve": (
        [*_PROTOCOL, "--beta", "0.9,0,0", "--eve-probability", "0.5"],
        "fe947bc8af00729bdb3471c3ff3c27ec24f473f06c61bbd023bd082b23c6e8d1",
        "ee6f06e0e6bbe9ebf15a9596d70a07b6fd0eb1c9f423b582f6528ac72d2d34ab",
    ),
    "protocol_csv": (
        [*_PROTOCOL, *_GAUSSIAN, "--format", "csv"],
        "2c91406178b815e570b919f3d7bbf9bbafed7dfb5848958566810154b6141407",
        "590c7aa88aa2b37d23dc6d0f7ff48faae495668c1b93ebf5b6f2eef3d4e432a5",
    ),
    "protocol_configured": (
        [*_PROTOCOL, "--beta", "0.5,0.5,0", "--dist", "gaussian", "--sigma", "0.05",
         "--threshold-mode", "configured", "--threshold-samples", "1000"],
        "615ce2b0f19e1a3d498d3701bfa5a19e27104ef0207cbc4448beebdfe956383a",
        "39265902a43c1a886a1f952cae9a84e302ba3e0acc37d7bca79a46c644bba793",
    ),
}


@pytest.mark.parametrize("case", sorted(CLI_SHA256))
def test_cli_bytes(case, tmp_path, monkeypatch):
    argv, stdout_digest, out_digest = CLI_SHA256[case]
    monkeypatch.delenv("RELBELL_OUT_DIR", raising=False)
    path = tmp_path / "out"
    if out_digest is not None:
        argv = [*argv, "--out", str(path)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        assert main(argv) == 0
    assert stderr.getvalue() == ""
    assert hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest() == stdout_digest
    if out_digest is None:
        assert not path.exists()
    else:
        assert hashlib.sha256(path.read_bytes()).hexdigest() == out_digest
