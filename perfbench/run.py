"""relbell benchmark: time, check and count the ops of one workload.

    python3 perfbench/run.py --workload mc_threshold --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seconds 50    # each workload in turn
    python3 perfbench/run.py --self-test                    # the correctness gate

Workloads (see workloads.py):

* ``mc_threshold``: corrected thresholds by Monte Carlo; kernel and RNG work.
* ``protocol_run``: honest and intercept-resend protocol runs.
* ``export``: transcript and scan-table writing; string work.

One closed-loop client runs ops back to back for ``--seconds``; the
workload's inputs come from ``--seed`` alone.  Every op is checked, and a
failed op is counted, not fatal.  With ``--trace 0`` the last stdout line
holds the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced run (see tracing.py), and spans and cProfile output go
to ``perfbench/out/``.  The package is imported from ``src/`` of the
checkout this file sits in; without it the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-up is repeated this many times per run and its median reported.  The
#: first set-up builds the inputs the run uses; the others are spread evenly
#: over the timed run, between ops, so a burst of host load lasting a few
#: seconds slows only some of them.
SETUP_REPEATS = 15

#: A timing percentile is reported only with at least this many ops beyond it.
TAIL_OPS = 10

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import relbell, relbell.cli; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Wall time of importing relbell in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout)


def tail(times: list[float]) -> tuple[float, float]:
    """(time, percentile) of the highest percentile with TAIL_OPS ops beyond it."""
    ordered = sorted(times)
    if len(ordered) <= TAIL_OPS:
        return ordered[-1], 100.0
    rank = len(ordered) - TAIL_OPS
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def git_rev() -> str | None:
    """HEAD of the checkout's own repository; None outside a git checkout."""
    # the ceiling keeps git from searching the directories above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "relbell").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, **extra) -> dict:
    import numpy
    import relbell

    return {
        "git_rev": git_rev(),
        "src_sha256": source_digest(),
        "relbell": relbell.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **extra,
    }


def set_up(cls, seed: int):
    """One fresh set-up: (import seconds, input-build seconds, workload)."""
    imported = import_seconds()
    start = time.perf_counter()
    workload = cls(seed)
    return imported, time.perf_counter() - start, workload


def untraced_run(args, expected):
    import workloads as wl
    from gate import Gate, run_op

    cls = wl.CLASSES[args.workload]
    imported, built, workload = set_up(cls, args.seed)
    setups = [(imported, built)]

    gate = Gate(workload, args.seed, expected)
    times, items, failed, messages = [], 0, 0, []
    start = time.perf_counter()
    # op 0 warms up (thread pool, first-touch pages, lazy imports): it is
    # checked and counted, but not timed
    i = 0
    while i <= 1 or time.perf_counter() - start < args.seconds:
        elapsed, output, failures = run_op(workload, gate, i)
        if i == 0:
            start = time.perf_counter()
        else:
            times.append(elapsed)
        if failures:
            failed += 1
            messages += [f"op {i}: {f}" for f in failures]
        elif i > 0:
            items += workload.items(output)
        i += 1
        if time.perf_counter() - start >= len(setups) * args.seconds / SETUP_REPEATS:
            setups.append(set_up(cls, args.seed)[:2])
    while len(setups) < SETUP_REPEATS:
        setups.append(set_up(cls, args.seed)[:2])
    setup = statistics.median(imported + built for imported, built in setups)

    tail_s, percentile = tail(times)
    metrics = {
        "setup_s": (setup, "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_s, "s"),
        "items_per_s": (items / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "op_count": len(times),
        "tail_percentile": percentile,
        "failed_frac": failed / i,
        "setup_import_s": [imported for imported, _ in setups],
        "setup_inputs_s": [built for _, built in setups],
    }
    return i, failed, messages, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, extra


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is the workload's own."""
    import workloads as wl

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        print(done.stdout, end="", flush=True)
        if done.returncode != 0:
            print(f"error: {name} exited {done.returncode}", file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check the gate and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "relbell" / "__init__.py").is_file():
        print(f"error: no relbell package under {SRC}; run from a relbell checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import relbell

    if Path(relbell.__file__).resolve().parent != SRC / "relbell":
        print(f"error: relbell imported from {relbell.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import gate
    import workloads as wl

    if args.workload != "all" and args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of all, {', '.join(wl.WORKLOADS)}")
    if args.self_test:
        problems = gate.self_test()
        print("\n".join(problems) or "gate self-test passed", file=sys.stderr)
        return 1 if problems else 0
    if args.workload == "all":
        return run_all(args)

    expected = json.loads((HERE / "expected.json").read_text())
    OUT.mkdir(exist_ok=True)
    notes = {}
    if args.trace:
        from tracing import LAYER_METRICS, traced_run

        attempted, failed, messages, metrics = traced_run(
            args.workload, args.seed, args.seconds, expected, OUT)
        extra = {"op_count": attempted, "failed_frac": failed / attempted}
        notes["layers"] = {m[0]: {"measured_on": m[3], "should_move": m[4]} for m in LAYER_METRICS}
    else:
        attempted, failed, messages, metrics, extra = untraced_run(args, expected)

    info = provenance(args, **extra)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "provenance": info, "failures": messages[:50], **notes}, indent=1))
    for message in messages[:10]:
        print(f"failed: {message}", file=sys.stderr)
    print("provenance " + json.dumps(info))
    print(f"{'failed_frac':>34} {extra['failed_frac']:.6g} ratio")
    for name, metric in metrics.items():
        print(f"{name:>34} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
