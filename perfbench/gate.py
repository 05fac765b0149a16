"""Correctness gate: every op's output is checked, and a failure is counted.

Two kinds of check:

* checks that hold for every seed (sifted keys agree, the naive test flags
  the fast beam, the attack is caught, MC values sit within a few standard
  errors of a committed reference, serialized output round-trips);
* for the default seed, committed digests of everything a run drew or
  decided (momenta, bases, outcomes, attacked rows, key bits, output
  bytes, verdicts).

Values derived by floating-point arithmetic (thresholds, CHSH estimates,
scan columns) are compared with a relative tolerance of 1e-12: summing in
another order moves them by ~1e-14 and passes; a changed formula fails the
scan tables on every seed, and a changed basis, outcome, momentum or RNG
stream fails the default seed's digests.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import time

import numpy as np

from relbell import DEFAULT_CONFIG, TSIRELSON_BOUND, bell_average_mc, run_protocol
from relbell.cli import main as cli_main

import workloads as wl

RTOL = 1e-12
ATOL = 1e-14

#: An MC value must lie within this many combined standard errors of its
#: reference; a 10-sigma shift fails, a false alarm has odds below 1e-6.
MC_K = 5.0

#: Scan columns computed from the kinematics; the others are the input grid.
DERIVED_COLUMNS = frozenset({"c", "abs_c", "correlation", "reference"})

#: Rows of each committed table whose derived values are pinned one by one;
#: every row is pinned through the column sums (see column_sums).
TABLE_SAMPLES = 50

ROUND_FIELDS = (
    "momentum1", "momentum2", "alice_basis", "bob_basis", "alice_outcome",
    "bob_outcome", "attacked", "eve_basis", "eve_outcome",
)
CSV_HEADER = (
    "index,p1x,p1y,p1z,p2x,p2y,p2z,alice_basis,bob_basis,"
    "alice_outcome,bob_outcome,attacked,eve_basis,eve_outcome"
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _array_digest(arrays) -> str:
    """Digest of array values, independent of the integer dtype chosen."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        a = a.astype(np.float64 if a.dtype.kind == "f" else np.int64)
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def compare(got, want, where: str) -> list[str]:
    """Differences between two JSON-like values; floats within tolerance."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r}"]
        return [f for key in want for f in compare(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, (list, tuple)) or len(got) != len(want):
            return [f"{where}: {got!r} != {want!r}"]
        return [f for k, (g, w) in enumerate(zip(got, want)) for f in compare(g, w, f"{where}[{k}]")]
    if isinstance(want, float):
        if isinstance(got, float) and math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL):
            return []
        return [f"{where}: {got!r} != {want!r}"]
    return [] if got == want and type(got) is type(want) else [f"{where}: {got!r} != {want!r}"]


# ---------------------------------------------------------------------------
# mc_threshold

def check_mc(value: float, stderr: float, ref_mean: float, ref_stderr: float,
             stderr_target: float = wl.MC_STDERR_TARGET) -> list[str]:
    failures = []
    if not abs(value) <= TSIRELSON_BOUND:
        failures.append(f"|c| = {abs(value)!r} exceeds 2*sqrt(2)")
    if not stderr <= stderr_target:
        failures.append(f"standard error {stderr!r} above {stderr_target}")
    if not abs(value - ref_mean) <= MC_K * math.hypot(stderr, ref_stderr):
        failures.append(
            f"c = {value!r} is {abs(value - ref_mean) / math.hypot(stderr, ref_stderr):.1f} "
            f"standard errors from the reference {ref_mean!r}"
        )
    return failures


# ---------------------------------------------------------------------------
# protocol_run

def transcript_record(t) -> dict:
    """What a run drew and decided: exact digest plus the Bell results."""
    return {
        "digest": _array_digest(
            [getattr(t, f) for f in ROUND_FIELDS]
            + [t.sifted_indices, t.alice_key_bits, t.bob_key_bits]
        ),
        "naive": t.bell_naive.to_dict(),
        "corrected": t.bell_corrected.to_dict(),
    }


def check_protocol(honest, attacked, expected: dict | None = None) -> list[str]:
    failures = []
    if not np.array_equal(honest.alice_key_bits, honest.bob_key_bits):
        failures.append("honest sifted keys disagree")
    if honest.bell_naive.verdict != "eavesdropper":
        failures.append("naive test did not flag the fast honest beam")
    if attacked.bell_corrected.verdict != "eavesdropper":
        failures.append("corrected test missed the intercept-resend attack")
    if expected is not None:
        failures += compare(transcript_record(honest), expected["honest"], "honest")
        failures += compare(transcript_record(attacked), expected["attacked"], "attacked")
    return failures


# ---------------------------------------------------------------------------
# export

def check_transcript_json(text: str, t) -> list[str]:
    payload = json.loads(text)
    failures = [
        f"json rounds.{f} does not round-trip"
        for f in ROUND_FIELDS
        if not np.array_equal(np.asarray(payload["rounds"][f]), getattr(t, f))
    ]
    sifted = payload["sifted"]
    if not (
        np.array_equal(np.asarray(sifted["indices"]), t.sifted_indices)
        and sifted["alice_bits"] == "".join(map(str, t.alice_key_bits.tolist()))
        and sifted["bob_bits"] == "".join(map(str, t.bob_key_bits.tolist()))
    ):
        failures.append("json sifted key does not round-trip")
    failures += compare(payload["bell"]["naive"], t.bell_naive.to_dict(), "json bell.naive")
    failures += compare(payload["bell"]["corrected"], t.bell_corrected.to_dict(), "json bell.corrected")
    return failures


def check_transcript_csv(text: str, t) -> list[str]:
    lines = text.split("\n")
    if lines[-1] != "" or len(lines) - 1 != t.pair_count + 1:
        return [f"csv has {len(lines) - 1} lines, want {t.pair_count + 1}"]
    if lines[0] != CSV_HEADER:
        return [f"csv header {lines[0]!r}"]
    table = np.array([row.split(",") for row in lines[1:-1]], dtype=float)
    want = np.column_stack(
        [np.arange(t.pair_count), t.momentum1, t.momentum2]
        + [getattr(t, f) for f in ROUND_FIELDS[2:]]
    ).astype(float)
    return [] if np.array_equal(table, want) else ["csv does not round-trip"]


def parse_table_csv(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("table csv is not LF-terminated")
    return lines[0].split(","), np.array([row.split(",") for row in lines[1:-1]], dtype=float)


def table_record(header: list[str], matrix: np.ndarray) -> dict:
    """Exact digest of the grid columns, derived values at sampled rows."""
    grid = [k for k, name in enumerate(header) if name not in DERIVED_COLUMNS]
    derived = [k for k, name in enumerate(header) if name in DERIVED_COLUMNS]
    rows = np.unique(np.linspace(0, len(matrix) - 1, TABLE_SAMPLES).astype(int))
    return {
        "header": header,
        "rows": len(matrix),
        "grid_digest": _array_digest([matrix[:, grid]]),
        "samples": {str(r): matrix[r, derived].tolist() for r in rows},
    }


def column_sums(header: list[str], matrix: np.ndarray) -> dict:
    """[sum x, sum w*x, sum w*|x|] over every row of each derived column.

    The weights are fixed and lie in [1, 2), so changes that cancel in the
    plain sum show in the weighted one.
    """
    w = 1.0 + (np.arange(len(matrix)) * 0.6180339887498949) % 1.0
    return {
        name: [float(np.sum(x)), float(np.dot(w, x)), float(np.dot(w, np.abs(x)))]
        for name, x in zip(header, matrix.T)
        if name in DERIVED_COLUMNS
    }


def check_column_sums(got: dict, want: dict) -> list[str]:
    """Each sum within RTOL of sum w*|x|: a one-row change above ~1e-7 fails."""
    if set(got) != set(want):
        return [f"table sums cover {sorted(got)}, want {sorted(want)}"]
    return [
        f"table column {name} sums {got[name]!r} != {sums!r}"
        for name, sums in want.items()
        if any(abs(g - s) > RTOL * sums[2] + ATOL for g, s in zip(got[name], sums))
    ]


def check_table(csv_text: str, json_text: str, expected: dict) -> list[str]:
    header, matrix = parse_table_csv(csv_text)
    payload = json.loads(json_text)
    records = np.array([[r[c] for c in payload["columns"]] for r in payload["records"]], dtype=float)
    failures = []
    if payload["columns"] != header or not np.array_equal(records, matrix):
        failures.append("scan json and csv disagree")
    pinned = {k: v for k, v in expected.items() if k != "column_sums"}
    failures += compare(table_record(header, matrix), pinned, "table")
    failures += check_column_sums(column_sums(header, matrix), expected["column_sums"])
    if "c" in header:
        c = matrix[:, header.index("c")]
        if np.max(np.abs(c)) > TSIRELSON_BOUND + ATOL:
            failures.append("scan |c| exceeds 2*sqrt(2)")
        if not np.array_equal(matrix[:, header.index("abs_c")], np.abs(c)):
            failures.append("scan abs_c is not |c|")
    return failures


def export_record(json_text: str, csv_text: str) -> dict:
    """Default-seed pin: exact bytes, except the Bell block's derived floats."""
    head = '{"bell":'
    rest = json_text.index(',"config":')
    return {
        "csv_sha256": sha256(csv_text),
        "json_sha256_after_bell": sha256(json_text[rest:]),
        "bell": json.loads(json_text[len(head):rest]) if json_text.startswith(head) else None,
    }


# ---------------------------------------------------------------------------
# per-workload gates

class Gate:
    """Checks every op of one workload; ``check`` returns failure messages."""

    def __init__(self, workload, seed: int, expected: dict):
        self.workload = workload
        self.expected = expected
        self.pinned = expected["default_seed"] if seed == wl.DEFAULT_SEED else None
        self.verified: dict[str, str] = {}

    def check(self, i: int, output) -> list[str]:
        return getattr(self, f"_check_{self.workload.name}")(i, output)

    def _check_mc_threshold(self, i: int, estimates) -> list[str]:
        failures = []
        for (profile, k, _, _), est in zip(self.workload.ops[i % wl.MAX_OPS], estimates):
            ref = self.expected["mc_reference"][profile][k]
            failures += [
                f"{profile}[{k}]: {f}"
                for f in check_mc(est.value, est.standard_error, ref["mean"], ref["stderr"])
            ]
        return failures

    def _check_protocol_run(self, i: int, transcripts) -> list[str]:
        pinned = self.pinned and self.pinned["protocol_run"][i % wl.PROTOCOL_INPUTS]
        return check_protocol(*transcripts, pinned)

    def _check_export(self, i: int, out: dict) -> list[str]:
        # Every op writes the same transcript and cycles the same six tables;
        # an output byte-identical to one already verified needs no re-parse.
        t = self.workload.transcript
        figure = str(self.workload.figure(i))
        checks = (
            ("json", out["json"], lambda: check_transcript_json(out["json"], t)),
            ("csv", out["csv"], lambda: check_transcript_csv(out["csv"], t)),
            (f"table{figure}", out["scan_csv"] + out["scan_json"], lambda: check_table(
                out["scan_csv"], out["scan_json"], self.expected["tables"][figure])),
        )
        failures = [f"scan exit code {out[k]}" for k in ("scan_csv_exit", "scan_json_exit") if out[k] != 0]
        for key, text, run_check in checks:
            digest = sha256(text)
            if self.verified.get(key) == digest:
                continue
            found = run_check()
            if not found:
                self.verified[key] = digest
            failures += found
        if self.pinned:
            failures += compare(export_record(out["json"], out["csv"]), self.pinned["export"], "export")
        return failures


def run_op(workload, gate: Gate, i: int, recorder=None):
    """Time op ``i`` and check it: (seconds, output or None, failures).

    An op that raises, or whose output cannot be checked, is a failed op;
    the run goes on.
    """
    start = time.perf_counter()
    try:
        output = workload.run(i, recorder, i)
    except Exception as exc:  # noqa: BLE001 - counted in failed_frac
        return time.perf_counter() - start, None, [f"op raised {type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - start
    try:
        return elapsed, output, gate.check(i, output)
    except Exception as exc:  # noqa: BLE001 - malformed output fails the op
        return elapsed, output, [f"check raised {type(exc).__name__}: {exc}"]


# ---------------------------------------------------------------------------
# self-test

def _bump_digit(text: str, start: int) -> str:
    """Change the second decimal of the first number at or after ``start``."""
    k = text.index(".", start) + 2
    return text[:k] + str((int(text[k]) + 1) % 10) + text[k + 1:]


def self_test() -> list[str]:
    """Show at tiny sizes that the gate fails what it must and passes noise.

    Returns the cases the gate got wrong; an empty list means it works.
    """
    problems = []

    def expect(name: str, failures: list[str], should_fail: bool):
        if bool(failures) != should_fail:
            problems.append(f"{name}: gate {'passed' if should_fail else 'failed'} ({failures[:1]})")

    # protocol: pin a small run, then mutate it
    honest, attacked = (run_protocol(c) for c in wl.protocol_configs(wl.correlated_beam(0), 1, 65536))
    pinned = {"honest": transcript_record(honest), "attacked": transcript_record(attacked)}
    expect("pristine protocol", check_protocol(honest, attacked, pinned), False)
    for field, mutate in (
        ("alice_outcome", lambda a: a.__setitem__(3, -a[3])),
        ("bob_basis", lambda a: a.__setitem__(5, (a[5] + 1) % 3)),
        ("momentum2", lambda a: a.__setitem__((7, 0), np.nextafter(a[7, 0], np.inf))),
    ):
        array = getattr(attacked, field).copy()
        mutate(array)
        expect(f"changed {field}", check_protocol(
            honest, dataclasses.replace(attacked, **{field: array}), pinned), True)
    nudged = dataclasses.replace(
        attacked,
        bell_corrected=dataclasses.replace(
            attacked.bell_corrected, threshold=attacked.bell_corrected.threshold * (1 + 1e-15)
        ),
    )
    expect("1e-15 threshold perturbation", check_protocol(honest, nudged, pinned), False)

    # export: change one output byte of a transcript and of a table
    small = run_protocol(wl.protocol_configs(wl.correlated_beam(0), 2, 2000)[1])
    for fmt, check in (("json", check_transcript_json), ("csv", check_transcript_csv)):
        sink = io.StringIO()
        getattr(small, f"to_{fmt}")(sink)
        text = sink.getvalue()
        expect(f"pristine {fmt}", check(text, small), False)
        start = text.index('"momentum1"') if fmt == "json" else len(CSV_HEADER)
        expect(f"changed {fmt} byte", check(_bump_digit(text, start), small), True)
    tables = {}
    for fmt in ("csv", "json"):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            cli_main(["scan", "--figure", "1", "--resolution", "12", "--format", fmt])
        tables[fmt] = sink.getvalue()
    header, matrix = parse_table_csv(tables["csv"])
    record = {**table_record(header, matrix), "column_sums": column_sums(header, matrix)}
    expect("pristine table", check_table(tables["csv"], tables["json"], record), False)
    bumped = _bump_digit(tables["csv"], len(tables["csv"]) // 2)
    expect("changed table byte", check_table(bumped, tables["json"], record), True)
    # a change at a row that is not sampled, made in both formats alike
    row = next(r for r in range(len(matrix)) if str(r) not in record["samples"])
    lines = tables["csv"].split("\n")
    cells = lines[row + 1].split(",")
    payload = json.loads(tables["json"])
    c = float(cells[header.index("c")]) * (1 - 1e-6)
    for name, value in (("c", c), ("abs_c", abs(c))):
        cells[header.index(name)] = repr(value)
        payload["records"][row][name] = value
    lines[row + 1] = ",".join(cells)
    unsampled = check_table("\n".join(lines), json.dumps(payload), record)
    expect("changed unsampled table row", [f for f in unsampled if "sums" in f], True)
    noisy = dict(
        record,
        samples={k: [v * (1 + 1e-15) for v in vs] for k, vs in record["samples"].items()},
        column_sums={k: [v * (1 + 1e-15) for v in vs] for k, vs in record["column_sums"].items()},
    )
    expect("1e-15 table perturbation", check_table(tables["csv"], tables["json"], noisy), False)

    # mc: a value 10 standard errors off fails, a 1e-15 perturbation passes
    est = bell_average_mc(DEFAULT_CONFIG, wl.correlated_beam(0), 4096, 1)
    se = est.standard_error
    # committed references have 1/8 of an op's standard error
    expect("10-stderr MC shift", check_mc(est.value + 10 * se, se, est.value, se / 8, 1.0), True)
    expect("1e-15 MC perturbation", check_mc(est.value * (1 + 1e-15), se, est.value, se / 8, 1.0), False)
    return problems
