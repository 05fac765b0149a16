"""Compare two relbell checkouts on the perfbench workloads; write a BENCH_*.json.

    python3 scripts/bench_compare.py PARENT_DIR CHANGE_DIR --out BENCH_topic.json

PARENT_DIR and CHANGE_DIR are two checkouts, best made with
``git worktree add --detach DIR REV`` (or ``git clone`` and a checkout of
REV) so that ``git rev-parse`` names their revisions; a ``git archive``
checkout records a null revision.  Either way
each side's ``src_sha256``, perfbench's digest of its ``src/relbell``,
names the compared code.  For each workload in BENCHMARK.json, pair
``k < PAIRS`` runs ``perfbench/run.py --workload W --seed FIRST_SEED+k`` in
both at the run length BENCHMARK.json sets, the parent first in even pairs
and the change first in odd ones, so a slow drift of the host loads both
sides alike.  The file gets every run, the median and quartiles of each
end-to-end metric, the pairs each side won, the metric's BENCHMARK.json
bound with a verdict against it (``within``, ``outside`` or
``unresolved``, see :func:`verdict`), one traced run per side, the
tracemalloc peaks of one 65536-draw Monte Carlo chunk of a crossed and of
a correlated beam, the median, minimum and maximum of ``PEAK_PROBES``
tracemalloc peaks of one 2^17-pair intercept-resend and one honest
protocol run, with the bytes of each run's transcript beside them, the
quartiles of the wall time of calls of those two protocol runs,
``CALLS_PER_PROBE`` of each in each of ``PEAK_PROBES`` fresh processes
per side (:data:`PROTOCOL_CALL`), the quartiles of the wall time of a
protocol call that raises after queuing its threshold job and of the run
after it, one of each in each of ``PEAK_PROBES`` fresh processes per side
(:data:`FAILED_RUN`), the median, minimum and maximum of the traced peak
and the quartiles of the wall time of a 20,000-pair intercept-resend run
at 1000 key axes, one of each in each of ``PEAK_PROBES`` fresh processes
per side (:data:`WIDE_POOL`), the minor page
faults per 2^18-sample ``bell_average_mc`` call at 1 and 2
workers on both beams and per call of that protocol run, each counted in a
fresh process, and the absolute error against mpmath of zero-spread
anchors, through the Monte Carlo and through the empirical threshold of a
protocol run.  Every run and probe imports its side's sources afresh:
Python runs with ``PYTHONDONTWRITEBYTECODE=1`` (:func:`python`), and the
script refuses to start while either checkout holds a
``src/relbell/__pycache__``, so bytecode that an earlier run left in one
checkout cannot make its import, a part of ``setup_s``, faster than the
other's.  numpy and the standard library load from their installed
bytecode, as in any run, so ``setup_s`` reads what perfbench reads on
its own.  Run it on an otherwise idle machine: both sides share its
cores with whatever else runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Alternating parent/change pairs per workload, and the seed of the first.
PAIRS = 10
FIRST_SEED = 100

#: Fresh-process probes per side of each protocol run's traced peak.  The
#: peak depends on how the pool thread's empirical threshold overlaps the
#: caller's outcome pass: on one commit the honest run read 7.98 to 9.36 MB
#: over 40 probes, with a second mode ~0.52 MB up, so one probe can show a
#: 6% shift between two sides whose medians are equal.
PEAK_PROBES = 9

TRACED = (
    "correlator.kernel_ns_per_eval",
    "kinematics.beta_from_momentum_s",
    "bell.bell_average_mc_w1_s",
    "ekert.run_protocol_s",
    "ekert.bell_test_naive_s",
    "ekert.bell_test_corrected_s",
)

#: The two Monte Carlo beams of the probes below, by name: a crossed
#: joint beam and a correlated one, as the mc_threshold workload draws them.
BEAMS = """
import sys
sys.path.insert(0, "src")
from relbell import DEFAULT_CONFIG, CorrelatedGaussian, JointGaussian, bell_average_mc
from relbell.kinematics import momentum_for_beta
BEAMS = dict(
    crossed=JointGaussian(momentum_for_beta((0.85, 0.0, 0.0)), 0.04,
                          momentum_for_beta((0.0, 0.85, 0.0)), 0.04),
    correlated=CorrelatedGaussian.from_beta((0.85, 0.0, 0.0), 0.04),
)
"""

#: One Monte Carlo chunk of a beam, measured with tracemalloc through the
#: public API, so both sides run the same probe.
CHUNK_PEAK = BEAMS + """
import tracemalloc
tracemalloc.start()
bell_average_mc(DEFAULT_CONFIG, BEAMS[{beam!r}], 65536, 0)
print(tracemalloc.get_traced_memory()[1])
"""

#: Process-wide minor page faults per 2^18-sample call of a beam at a worker
#: count: the mean of 4 calls after one warm-up call, which starts the pool.
CALL_FAULTS = BEAMS + """
import resource
def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
bell_average_mc(DEFAULT_CONFIG, BEAMS[{beam!r}], 2**18, 0, workers={workers})
before = faults()
for seed in range(1, 5):
    bell_average_mc(DEFAULT_CONFIG, BEAMS[{beam!r}], 2**18, seed, workers={workers})
print((faults() - before) / 4)
"""


#: One 2^17-pair intercept-resend protocol run; ``{eve}`` is its attacker,
#: which the honest run of the peak probe sets to None.
PROTOCOL = """
import sys
sys.path.insert(0, "src")
from relbell import CorrelatedGaussian, InterceptResend, ProtocolConfig, run_protocol
config = ProtocolConfig(pair_count=2**17, seed=0,
                        distribution=CorrelatedGaussian.from_beta((0.9, 0.0, 0.0), 0.04),
                        eve={eve})
"""

ATTACK = "InterceptResend(attack_probability=0.5)"

#: That run, measured with tracemalloc as a chunk is, and the bytes of the
#: transcript's own arrays, each array once: the peak above them shows the
#: per-row arrays a run holds at once beside its output.
PROTOCOL_PEAK = PROTOCOL + """
import json, tracemalloc
import numpy as np
tracemalloc.start()
transcript = run_protocol(config)
peak = tracemalloc.get_traced_memory()[1]
arrays = {{id(v): v.nbytes for v in vars(transcript).values() if isinstance(v, np.ndarray)}}
print(json.dumps({{"peak": peak, "transcript": sum(arrays.values())}}))
"""

#: Timed calls of each protocol run per fresh process of the call probe.
CALLS_PER_PROBE = 5

#: Wall time of the honest and the intercept-resend run through the public
#: API: one untimed call of each, which starts the pool and fills the
#: allocator, then ``CALLS_PER_PROBE`` timed calls of each, interleaved, as
#: a JSON object of lists.  It shows which of the runs a protocol_run op
#: makes moved.
PROTOCOL_CALL = PROTOCOL.format(eve=None) + """
import dataclasses, json, time
runs = dict(honest=config, attacked=dataclasses.replace(config, eve=%s))
for run in runs.values():
    run_protocol(run)
times = {name: [] for name in runs}
for _ in range(%d):
    for name, run in runs.items():
        start = time.perf_counter()
        run_protocol(run)
        times[name].append(time.perf_counter() - start)
print(json.dumps(times))
""" % (ATTACK, CALLS_PER_PROBE)

#: A configured-threshold run that raises after its threshold job is
#: queued: the key axis z is transverse to particle 2, so the outcome pass
#: raises, while every CHSH axis keeps an x component, so the 2^20-sample
#: Monte Carlo runs on.  After one untimed call of the 2000-pair correlated
#: run below, which starts the pool, the wall time of the failing call and
#: of that run after it, as a JSON object: a job the failed run left on the
#: pool shows in the second.
FAILED_RUN = """
import json, math, sys, time
sys.path.insert(0, "src")
from relbell import (BellConfig, CorrelatedGaussian, DegenerateObservableError, JointGaussian,
                     ProtocolConfig, run_protocol)
s = math.sqrt(0.5)
failing = ProtocolConfig(pair_count=2000, seed=0,
                         bell=BellConfig((s, s, 0), (-s, s, 0), (s, -s, 0), (1, 0, 0)),
                         distribution=JointGaussian((0, 0, 0), 0.0, (1e250, 0, 0), 0.0),
                         threshold_mode="configured", threshold_samples=2**20)
after = ProtocolConfig(pair_count=2000, seed=0,
                       distribution=CorrelatedGaussian.from_beta((0.9, 0.0, 0.0), 0.04))
run_protocol(after)
start = time.perf_counter()
try:
    run_protocol(failing)
except DegenerateObservableError:
    pass
else:
    sys.exit("the failing run did not raise")
failed = time.perf_counter()
run_protocol(after)
print(json.dumps({"failing": failed - start, "next": time.perf_counter() - failed}))
"""

#: A 20,000-pair intercept-resend run with 1000 random unit key axes: after
#: one untimed call, which starts the pool, the wall time of one call and
#: the tracemalloc peak of another, as a JSON object.  A table over every
#: pair of pool axes shows in both.
WIDE_POOL = """
import json, sys, time, tracemalloc
sys.path.insert(0, "src")
import numpy as np
from relbell import CorrelatedGaussian, InterceptResend, ProtocolConfig, run_protocol
axes = np.random.default_rng(1000).normal(size=(1000, 3))
axes /= np.linalg.norm(axes, axis=1, keepdims=True)
config = ProtocolConfig(pair_count=20_000, seed=0, key_axes=tuple(map(tuple, axes)),
                        distribution=CorrelatedGaussian.from_beta((0.9, 0.0, 0.0), 0.04),
                        eve=InterceptResend(attack_probability=0.5))
run_protocol(config)
start = time.perf_counter()
run_protocol(config)
wall = time.perf_counter() - start
tracemalloc.start()
run_protocol(config)
print(json.dumps({"peak": tracemalloc.get_traced_memory()[1], "wall": wall}))
"""

#: Process-wide minor page faults per call of that run, counted as
#: CALL_FAULTS counts them: the mean of 4 calls after one warm-up call.
PROTOCOL_FAULTS = PROTOCOL.format(eve=ATTACK) + """
import resource
def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_protocol(config)
before = faults()
for _ in range(4):
    run_protocol(config)
print((faults() - before) / 4)
"""


#: A 50-digit mpmath reference for a zero-spread correlated beam along x:
#: the CHSH value at |p|/m = ratio, each axis keeping its x component and
#: having its transverse part divided by gamma.
ANCHOR_REFERENCE = """
import json, sys
sys.path.insert(0, "src")
import mpmath as mp
from relbell import DEFAULT_CONFIG, CorrelatedGaussian, DegenerateObservableError
mp.mp.dps = 50
RATIOS = (1e3, 1e5, 1e7, 1e8, 1e10)
def reference(ratio):
    gamma = mp.sqrt(1 + mp.mpf(ratio) ** 2)
    def axis(a):
        return [mp.mpf(a[0]), mp.mpf(a[1]) / gamma, mp.mpf(a[2]) / gamma]
    def kernel(a, b):
        va, vb = axis(a), axis(b)
        return -mp.fdot(va, vb) / mp.sqrt(mp.fdot(va, va) * mp.fdot(vb, vb))
    c = DEFAULT_CONFIG
    return (kernel(c.a, c.b) + kernel(c.a, c.b_prime)
            + kernel(c.a_prime, c.b) - kernel(c.a_prime, c.b_prime))
"""

#: |c - c_ref| per |p|/m of that beam through the public bell_average_mc;
#: null where the side raises on a degenerate axis.
MC_ANCHOR = ANCHOR_REFERENCE + """
from relbell import bell_average_mc
errors = {}
for ratio in RATIOS:
    try:
        est = bell_average_mc(DEFAULT_CONFIG, CorrelatedGaussian((ratio, 0.0, 0.0), 0.0), 1000, 0)
    except DegenerateObservableError:
        errors[repr(ratio)] = None
    else:
        errors[repr(ratio)] = float(abs(est.value - reference(ratio)))
print(json.dumps(errors))
"""

#: |threshold - |c_ref|| per |p|/m of that beam: the empirical threshold
#: of a 2000-pair run_protocol; null where the side raises.
PROTOCOL_ANCHOR = ANCHOR_REFERENCE + """
from relbell import ProtocolConfig, run_protocol
errors = {}
for ratio in RATIOS:
    config = ProtocolConfig(2000, CorrelatedGaussian((ratio, 0.0, 0.0), 0.0), seed=0)
    try:
        threshold = run_protocol(config).bell_corrected.threshold
    except DegenerateObservableError:
        errors[repr(ratio)] = None
    else:
        errors[repr(ratio)] = float(abs(threshold - abs(reference(ratio))))
print(json.dumps(errors))
"""


#: perfbench's own digest of the checkout's sources, run in the checkout.
SRC_DIGEST = """
import sys
sys.path.insert(0, "perfbench")
from run import source_digest
print(source_digest())
"""


#: The bytecode cache of the package's sources, relative to a checkout; the
#: script refuses to compare a checkout that holds one.
PYCACHE = Path("src/relbell/__pycache__")


def python(path: Path, argv: list[str]) -> str:
    """The stdout of Python run with ``argv`` in the checkout at ``path``,
    with ``PYTHONDONTWRITEBYTECODE=1``, so no run leaves bytecode of the
    checkout's sources for the next one to read."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *argv], cwd=path, env=env, capture_output=True,
                          text=True, check=True).stdout


def probe(path: Path, code: str) -> str:
    """The stdout of ``code`` run by Python in the checkout at ``path``."""
    return python(path, ["-c", code]).strip()


def git_rev(path: Path) -> str | None:
    done = subprocess.run(["git", "-C", str(path), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def perfbench(path: Path, args: list[str]) -> dict:
    """The result line of one perfbench run in the checkout at ``path``."""
    return json.loads(python(path, ["perfbench/run.py", *args]).strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def verdict(parent: list[float], change: list[float], sign: float, bound: float) -> str:
    """``within`` when the change's median is worse than the parent's by at
    most ``bound``, a share of the parent's median, and ``outside`` when it
    is worse by more.  ``unresolved`` when the parent's IQR over its median
    exceeds ``bound``, so its own spread hides a shift of that size, unless
    every change run beats every parent run.  ``sign`` is 1 where lower is
    better and -1 where higher is."""
    p = quartiles(parent)
    beats_all = max(sign * v for v in change) < min(sign * v for v in parent)
    if (p["q3"] - p["q1"]) / abs(p["median"]) > bound and not beats_all:
        return "unresolved"
    worse_by = sign * (statistics.median(change) - p["median"]) / abs(p["median"])
    return "within" if worse_by <= bound else "outside"


def summarize(runs: list[dict], spec: list[dict]) -> dict:
    summary = {}
    for metric in spec:
        name = metric["name"]
        parent = [r["parent"]["metrics"][name]["value"] for r in runs]
        change = [r["change"]["metrics"][name]["value"] for r in runs]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        p, c = quartiles(parent), quartiles(change)
        iqr = p["q3"] - p["q1"]
        summary[name] = {
            "better": metric["better"],
            "parent": p,
            "change": c,
            "change_over_parent": c["median"] / p["median"],
            "change_wins": sum(sign * (b - a) < 0 for a, b in zip(parent, change)),
            "pairs": len(runs),
            # None when the parent's quartiles coincide (peak_rss_mb is quantized)
            "median_gap_over_parent_iqr": abs(c["median"] - p["median"]) / iqr if iqr else None,
            "bound": metric["bound"],
            "parent_iqr_over_median": iqr / abs(p["median"]),
            "verdict": verdict(parent, change, sign, metric["bound"]),
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = str(bench["run_seconds"])
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    cached = [str(path / PYCACHE) for path in sides.values() if (path / PYCACHE).exists()]
    if cached:
        parser.exit(2, "bench_compare.py: remove the bytecode cache first, so both sides "
                       "compile their sources alike: " + ", ".join(cached) + "\n")
    import numpy

    record = {
        "provenance": {
            "parent_rev": git_rev(sides["parent"]),
            "change_rev": git_rev(sides["change"]),
            "parent_src_sha256": probe(sides["parent"], SRC_DIGEST),
            "change_src_sha256": probe(sides["change"], SRC_DIGEST),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "run_seconds": bench["run_seconds"],
            "pairs": PAIRS,
            "first_seed": FIRST_SEED,
            "bytecode": "every run and probe with PYTHONDONTWRITEBYTECODE=1, and "
                        "neither checkout held src/relbell/__pycache__, so both "
                        "sides compile their own sources",
        },
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for k in range(PAIRS):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            argv = ["--workload", workload, "--seed", str(FIRST_SEED + k), "--seconds", seconds]
            pair = {"seed": FIRST_SEED + k, "first": order[0]}
            for side in order:
                pair[side] = perfbench(sides[side], argv)
            runs.append(pair)
            print(f"{workload} pair {k}: " + ", ".join(
                f"{side} {pair[side]['metrics']['op_p50_s']['value']:.4f} s" for side in order),
                file=sys.stderr, flush=True)
        record["workloads"][workload] = {
            "summary": summarize(runs, bench["end_to_end"]),
            "failed": {side: sum(r[side]["failed"] for r in runs) for side in sides},
            "runs": runs,
        }

    record["traced"] = {}
    for side, path in sides.items():
        result = perfbench(path, ["--workload", "mc_threshold", "--seed", str(FIRST_SEED),
                                  "--seconds", seconds, "--trace", "1"])
        record["traced"][side] = {name: result["metrics"][name]["value"] for name in TRACED}
    for beam, key in (("crossed", "chunk_peak_bytes"), ("correlated", "correlated_chunk_peak_bytes")):
        record[key] = {side: int(probe(path, CHUNK_PEAK.format(beam=beam)))
                       for side, path in sides.items()}
    record["call_minflt"] = {
        side: {f"{beam}_w{workers}": float(probe(path, CALL_FAULTS.format(beam=beam, workers=workers)))
               for beam in ("correlated", "crossed") for workers in (1, 2)}
        for side, path in sides.items()
    }
    protocol_runs = {"attacked": ATTACK, "honest": None}
    peaks = {run: {side: [] for side in sides} for run in protocol_runs}
    for k in range(PEAK_PROBES):
        for run, eve in protocol_runs.items():
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                result = probe(sides[side], PROTOCOL_PEAK.format(eve=eve))
                peaks[run][side].append(json.loads(result))
    for run, key in (("attacked", "protocol_peak_bytes"), ("honest", "honest_protocol_peak_bytes")):
        record[key] = {"probes": PEAK_PROBES}
        for side, probes in peaks[run].items():
            values = [p["peak"] for p in probes]
            record[key][side] = {"median": statistics.median(values),
                                 "min": min(values), "max": max(values)}
    calls = {side: {"honest": [], "attacked": []} for side in sides}
    for k in range(PEAK_PROBES):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            for run, times in json.loads(probe(sides[side], PROTOCOL_CALL)).items():
                calls[side][run].extend(times)
    record["protocol_call_s"] = {
        "probes": PEAK_PROBES, "calls_per_probe": CALLS_PER_PROBE,
        **{side: {run: quartiles(times) for run, times in runs.items()}
           for side, runs in calls.items()},
    }
    failed_runs = {side: {"failing": [], "next": []} for side in sides}
    for k in range(PEAK_PROBES):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            for call, seconds in json.loads(probe(sides[side], FAILED_RUN)).items():
                failed_runs[side][call].append(seconds)
    record["failed_run_next_call_s"] = {
        "probes": PEAK_PROBES,
        **{side: {call: quartiles(times) for call, times in calls.items()}
           for side, calls in failed_runs.items()},
    }
    wide = {side: {"peak": [], "wall": []} for side in sides}
    for k in range(PEAK_PROBES):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            for key, value in json.loads(probe(sides[side], WIDE_POOL)).items():
                wide[side][key].append(value)
    record["wide_pool_protocol"] = {
        "probes": PEAK_PROBES, "pair_count": 20_000, "key_axes": 1000,
        **{side: {"peak_bytes": {"median": statistics.median(values["peak"]),
                                 "min": min(values["peak"]), "max": max(values["peak"])},
                  "wall_s": quartiles(values["wall"])}
           for side, values in wide.items()},
    }
    record["protocol_transcript_bytes"] = {
        side: {run: peaks[run][side][0]["transcript"] for run in protocol_runs} for side in sides
    }
    record["protocol_call_minflt"] = {
        side: float(probe(path, PROTOCOL_FAULTS)) for side, path in sides.items()
    }
    for key, code in (("mc_anchor_abs_err", MC_ANCHOR), ("protocol_anchor_abs_err", PROTOCOL_ANCHOR)):
        record[key] = {side: json.loads(probe(path, code)) for side, path in sides.items()}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
