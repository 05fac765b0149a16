"""Compare two relbell checkouts on the perfbench workloads; write a BENCH_*.json.

    python3 scripts/bench_compare.py PARENT_DIR CHANGE_DIR --out BENCH_topic.json

PARENT_DIR and CHANGE_DIR are two checkouts, best made with
``git worktree add --detach DIR REV`` (or ``git clone`` and a checkout of
REV) so that ``git rev-parse`` names their revisions; a ``git archive``
checkout records a null revision.  For each workload in BENCHMARK.json,
pair ``k < PAIRS`` runs ``perfbench/run.py --workload W --seed
FIRST_SEED+k`` in both at the run length BENCHMARK.json sets, the parent
first in even pairs and the change first in odd ones, so a slow drift of
the host loads both sides alike.

The file holds exactly:

* ``provenance``: each side's revision and ``src_sha256`` (perfbench's
  digest of its ``src/relbell``, which names the compared code whatever
  the revision), the host's CPU count, the Python and numpy versions, the
  run length, ``PAIRS``, ``FIRST_SEED`` and the bytecode guard below;
* for each workload, ``summary``: for each BENCHMARK.json end-to-end
  metric, the quartiles of each side, the pairs the change won, the gap
  between the medians over the parent's IQR, the metric's bound with its
  :func:`verdict` and the :func:`gain` verdict, which a change that fails
  more operations than the parent never meets;
* ``failed``: the failed operations of each side, summed over the pairs;
* ``runs``: every run's perfbench result line, by pair.

Per-layer numbers are one ``perfbench/run.py --workload W --trace 1``
away; they explain a change but cannot justify one, so no trail holds
them.  Every run imports its side's sources afresh: Python runs with
``PYTHONDONTWRITEBYTECODE=1`` (:func:`python`), and the script refuses to
start while either checkout holds a ``src/relbell/__pycache__``, so
bytecode that an earlier run left in one checkout cannot make its import,
a part of ``setup_s``, faster than the other's.  numpy and the standard
library load from their installed bytecode, as in any run, so ``setup_s``
reads what perfbench reads on its own.  Run it on an otherwise idle
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


def wins(parent: list[float], change: list[float], sign: float) -> int:
    """The pairs whose change run beats its parent run; a tie counts for
    neither side.  ``sign`` is as for :func:`verdict`."""
    return sum(sign * (b - a) < 0 for a, b in zip(parent, change))


def gain(parent: list[float], change: list[float], sign: float, failed: dict) -> str:
    """``met`` when the change :func:`wins` at least nine tenths of the
    pairs, its median beats the parent's by more than the parent's IQR and
    it fails no more operations than the parent (``failed``, as
    :func:`failed_ops` counts them); else ``not met``.  A speed claim stands
    only on ``met``."""
    p = quartiles(parent)
    beats_by = sign * (p["median"] - statistics.median(change))
    met = (10 * wins(parent, change, sign) >= 9 * len(parent) and beats_by > p["q3"] - p["q1"]
           and failed["change"] <= failed["parent"])
    return "met" if met else "not met"


def failed_ops(runs: list[dict]) -> dict:
    """The failed operations of each side, summed over the pairs."""
    return {side: sum(r[side]["failed"] for r in runs) for side in ("parent", "change")}


def summarize(runs: list[dict], spec: list[dict]) -> dict:
    failed = failed_ops(runs)
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
            "change_wins": wins(parent, change, sign),
            "pairs": len(runs),
            # None when the parent's quartiles coincide (peak_rss_mb is quantized)
            "median_gap_over_parent_iqr": abs(c["median"] - p["median"]) / iqr if iqr else None,
            "bound": metric["bound"],
            "parent_iqr_over_median": iqr / abs(p["median"]),
            "verdict": verdict(parent, change, sign, metric["bound"]),
            "gain": gain(parent, change, sign, failed),
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
            "parent_src_sha256": python(sides["parent"], ["-c", SRC_DIGEST]).strip(),
            "change_src_sha256": python(sides["change"], ["-c", SRC_DIGEST]).strip(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "run_seconds": bench["run_seconds"],
            "pairs": PAIRS,
            "first_seed": FIRST_SEED,
            "bytecode": "every run with PYTHONDONTWRITEBYTECODE=1, and neither "
                        "checkout held src/relbell/__pycache__, so both sides "
                        "compile their own sources",
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
            "failed": failed_ops(runs),
            "runs": runs,
        }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
