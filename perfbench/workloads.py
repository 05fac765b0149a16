"""The three benchmark workloads: inputs made from the seed, and one op each.

A workload is built from the benchmark seed alone; building it is the
workload's set-up.  ``run(i)`` performs op ``i`` through the public relbell
API and returns its output; ``items(output)`` is the work the op completed.
Every op of a workload does the same kind and amount of work, so the
median op time does not depend on how two op types happen to mix.

``run`` takes an optional span recorder.  With one, each call the op makes
into relbell is wrapped in a span; without one the op is exactly the
untraced op.
"""

from __future__ import annotations

import contextlib
import io
import math

import numpy as np

from relbell import (
    DEFAULT_CONFIG,
    CorrelatedGaussian,
    InterceptResend,
    JointGaussian,
    ProtocolConfig,
    bell_average_mc,
    run_protocol,
)
from relbell.cli import main as cli_main
from relbell.kinematics import momentum_for_beta

from spans import span

#: Seed whose outputs are pinned by the committed digests in expected.json.
DEFAULT_SEED = 0

#: Beam azimuths in degrees, in the plane of the default CHSH axes.  Motion
#: out of that plane leaves c at 2*sqrt(2), which would hide the correction;
#: every azimuth has a committed Monte Carlo reference in expected.json.
AZIMUTHS_DEG = (0.0, 20.0, 45.0, 70.0)
SPEED = 0.9
CROSSED_SPEED = 0.85
SIGMA = 0.04

#: mc_threshold: two profiles per op, each to standard error <= 1e-4.
MC_SAMPLES = 2**18
MC_WORKERS = 2
MC_STDERR_TARGET = 1e-4

#: protocol_run: one honest and one attacked run per op, cycling through a
#: fixed number of inputs so the default seed can pin each one.
PROTOCOL_PAIRS = 2**17
PROTOCOL_INPUTS = 8
EVE_PROBABILITY = 0.5

#: export: one transcript written every op, plus one ~40k-row scan table.
EXPORT_PAIRS = 2**15
SCAN_RESOLUTIONS = {1: 200, 2: 200, 3: 141, 4: 200, 5: 40_000, 6: 40_000}

#: Op inputs drawn up front; runs needing more ops cycle through them.
MAX_OPS = 4096


def _direction(azimuth_deg: float) -> np.ndarray:
    phi = math.radians(azimuth_deg)
    return np.array([math.cos(phi), math.sin(phi), 0.0])


def correlated_beam(k: int) -> CorrelatedGaussian:
    """Both particles share one Gaussian momentum draw around SPEED."""
    return CorrelatedGaussian.from_beta(SPEED * _direction(AZIMUTHS_DEG[k]), SIGMA)


def crossed_beams(k: int) -> JointGaussian:
    """Independent beams at right angles; the MC takes the symmetrized path."""
    phi = AZIMUTHS_DEG[k]
    return JointGaussian(
        momentum_for_beta(CROSSED_SPEED * _direction(phi)), SIGMA,
        momentum_for_beta(CROSSED_SPEED * _direction(phi + 90.0)), SIGMA,
    )


PROFILES = {"correlated": correlated_beam, "crossed": crossed_beams}


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(name)])


class McThreshold:
    """Corrected thresholds by Monte Carlo: kernel and RNG work, no I/O."""

    name = "mc_threshold"

    def __init__(self, seed: int):
        rng = _rng(self.name, seed)
        azimuths = rng.integers(0, len(AZIMUTHS_DEG), size=(MAX_OPS, len(PROFILES)))
        mc_seeds = rng.integers(0, 2**63, size=(MAX_OPS, len(PROFILES)))
        dists = {(p, k): make(k) for p, make in PROFILES.items() for k in range(len(AZIMUTHS_DEG))}
        self.ops = [
            [(p, int(k), dists[p, k], int(s)) for p, k, s in zip(PROFILES, ks, ss)]
            for ks, ss in zip(azimuths, mc_seeds)
        ]

    def run(self, i: int, recorder=None, op_id=None, workers: int = MC_WORKERS):
        estimates = []
        for _, _, dist, mc_seed in self.ops[i % MAX_OPS]:
            with span(recorder, f"bell.bell_average_mc_w{workers}", op_id):
                estimates.append(
                    bell_average_mc(DEFAULT_CONFIG, dist, MC_SAMPLES, mc_seed, workers=workers)
                )
        return estimates

    def items(self, estimates) -> int:
        return sum(e.samples for e in estimates)


def protocol_configs(beam, run_seed: int, pairs: int) -> tuple[ProtocolConfig, ProtocolConfig]:
    """An honest run and an intercept-resend run on the same beam and seed."""
    honest = ProtocolConfig(pair_count=pairs, distribution=beam, seed=run_seed)
    attacked = ProtocolConfig(
        pair_count=pairs, distribution=beam, seed=run_seed,
        eve=InterceptResend(attack_probability=EVE_PROBABILITY),
    )
    return honest, attacked


class ProtocolRun:
    """Full protocol runs with the empirical threshold and the resend path."""

    name = "protocol_run"

    def __init__(self, seed: int):
        rng = _rng(self.name, seed)
        azimuths = rng.integers(0, len(AZIMUTHS_DEG), size=PROTOCOL_INPUTS)
        run_seeds = rng.integers(0, 2**32, size=PROTOCOL_INPUTS)
        self.inputs = [
            protocol_configs(correlated_beam(int(k)), int(s), PROTOCOL_PAIRS)
            for k, s in zip(azimuths, run_seeds)
        ]

    def run(self, i: int, recorder=None, op_id=None):
        transcripts = []
        for config in self.inputs[i % PROTOCOL_INPUTS]:
            with span(recorder, "ekert.run_protocol", op_id):
                transcripts.append(run_protocol(config))
        return transcripts

    def items(self, transcripts) -> int:
        return sum(t.pair_count for t in transcripts)


def scan_argv(figure: int, fmt: str) -> list[str]:
    return [
        "scan", "--figure", str(figure),
        "--resolution", str(SCAN_RESOLUTIONS[figure]), "--format", fmt,
    ]


class Export:
    """Transcript and table writing: string and Python-object work."""

    name = "export"

    def __init__(self, seed: int):
        rng = _rng(self.name, seed)
        azimuth = int(rng.integers(0, len(AZIMUTHS_DEG)))
        run_seed = int(rng.integers(0, 2**32))
        _, attacked = protocol_configs(correlated_beam(azimuth), run_seed, EXPORT_PAIRS)
        self.transcript = run_protocol(attacked)

    def figure(self, i: int) -> int:
        # figures cost different amounts; starting every run at figure 1
        # keeps the mix of a run the same whatever the seed
        return i % len(SCAN_RESOLUTIONS) + 1

    def run(self, i: int, recorder=None, op_id=None) -> dict:
        out = {}
        for fmt in ("json", "csv"):
            sink = io.StringIO()
            with span(recorder, f"ekert.to_{fmt}", op_id):
                getattr(self.transcript, f"to_{fmt}")(sink)
            out[fmt] = sink.getvalue()
        for fmt in ("csv", "json"):
            sink = io.StringIO()
            with span(recorder, "cli.main", op_id), contextlib.redirect_stdout(sink):
                code = cli_main(scan_argv(self.figure(i), fmt))
            out[f"scan_{fmt}"] = sink.getvalue()
            out[f"scan_{fmt}_exit"] = code
        return out

    def items(self, out: dict) -> int:
        # every writer emits ASCII, so characters are bytes
        return sum(len(v) for v in out.values() if isinstance(v, str))


WORKLOADS = ("mc_threshold", "protocol_run", "export")
CLASSES = {cls.name: cls for cls in (McThreshold, ProtocolRun, Export)}
