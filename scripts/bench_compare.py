"""Compare two relbell checkouts on the perfbench workloads; write a BENCH_*.json.

    python3 scripts/bench_compare.py PARENT_DIR CHANGE_DIR --out BENCH_topic.json

PARENT_DIR and CHANGE_DIR are two checkouts (for example made with
``git archive``).  For each workload in BENCHMARK.json, pair ``k < PAIRS``
runs ``perfbench/run.py --workload W --seed FIRST_SEED+k`` in both at the
run length BENCHMARK.json sets, the parent first in even pairs and the
change first in odd ones, so a slow drift of the host loads both sides
alike.  The file
gets every run, the median and quartiles of each end-to-end metric, the
pairs each side won, one traced run per side, and the tracemalloc peak of
one 65536-draw crossed-beam Monte Carlo chunk.  Run it on an otherwise idle
machine: both sides share its cores with whatever else runs.
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

TRACED = (
    "correlator.kernel_ns_per_eval",
    "kinematics.beta_from_momentum_s",
    "bell.bell_average_mc_w1_s",
    "ekert.bell_test_corrected_s",
)

#: One Monte Carlo chunk of a crossed beam, measured with tracemalloc
#: through the public API, so both sides run the same probe.
CHUNK_PEAK = """
import sys, tracemalloc
sys.path.insert(0, "src")
from relbell import DEFAULT_CONFIG, JointGaussian, bell_average_mc
from relbell.kinematics import momentum_for_beta
dist = JointGaussian(momentum_for_beta((0.85, 0.0, 0.0)), 0.04,
                     momentum_for_beta((0.0, 0.85, 0.0)), 0.04)
tracemalloc.start()
bell_average_mc(DEFAULT_CONFIG, dist, 65536, 0, chunk_size=65536)
print(tracemalloc.get_traced_memory()[1])
"""


def git_rev(path: Path) -> str | None:
    done = subprocess.run(["git", "-C", str(path), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def perfbench(path: Path, args: list[str]) -> dict:
    """The result line of one perfbench run in the checkout at ``path``."""
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=path,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


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
    import numpy

    record = {
        "provenance": {
            "parent_rev": git_rev(sides["parent"]),
            "change_rev": git_rev(sides["change"]),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "run_seconds": bench["run_seconds"],
            "pairs": PAIRS,
            "first_seed": FIRST_SEED,
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
    record["chunk_peak_bytes"] = {
        side: int(subprocess.run([sys.executable, "-c", CHUNK_PEAK], cwd=path, capture_output=True,
                                 text=True, check=True).stdout)
        for side, path in sides.items()
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
