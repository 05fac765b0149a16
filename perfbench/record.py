"""Regenerate perfbench/expected.json, the gate's committed references.

    python3 perfbench/record.py        # MC references take a few minutes

Run it only after an intentional change to relbell's numbers or bytes, and
say in the change which references moved and by how much.

* ``mc_reference``: for each profile and beam azimuth, a Monte Carlo Bell
  average with REF_SAMPLES samples, so its standard error is 1/8 of an op's.
* ``tables``: the six scan tables at the benchmark's resolutions (they do
  not depend on the seed): grid digest, sampled rows and column sums.
* ``default_seed``: digests and Bell results of every protocol_run input
  and of the export op's transcript for the default seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from relbell import DEFAULT_CONFIG, bell_average_mc, run_protocol  # noqa: E402
from relbell.cli import main as cli_main  # noqa: E402

import gate  # noqa: E402
import workloads as wl  # noqa: E402

REF_SAMPLES = 2**24
#: Far from any per-op seed, which are drawn from [0, 2**63).
REF_SEED = 2**64 - 1


def mc_references() -> dict:
    refs = {}
    for profile, make in wl.PROFILES.items():
        refs[profile] = []
        for k, azimuth in enumerate(wl.AZIMUTHS_DEG):
            est = bell_average_mc(DEFAULT_CONFIG, make(k), REF_SAMPLES, REF_SEED, workers=2)
            refs[profile].append(
                {"azimuth_deg": azimuth, "mean": est.value, "stderr": est.standard_error,
                 "samples": REF_SAMPLES, "seed": REF_SEED}
            )
            print(f"{profile}[{k}] {est.value!r} +- {est.standard_error:.2e}", file=sys.stderr)
    return refs


def table_references() -> dict:
    tables = {}
    for figure in wl.SCAN_RESOLUTIONS:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            cli_main(wl.scan_argv(figure, "csv"))
        table = gate.parse_table_csv(sink.getvalue())
        tables[str(figure)] = {**gate.table_record(*table), "column_sums": gate.column_sums(*table)}
    return tables


def default_seed_references() -> dict:
    protocol = [
        dict(zip(("honest", "attacked"), (gate.transcript_record(run_protocol(c)) for c in configs)))
        for configs in wl.ProtocolRun(wl.DEFAULT_SEED).inputs
    ]
    out = wl.Export(wl.DEFAULT_SEED).run(0)
    return {"protocol_run": protocol, "export": gate.export_record(out["json"], out["csv"])}


def main() -> int:
    expected = {
        "mc_reference": mc_references(),
        "tables": table_references(),
        "default_seed": default_seed_references(),
    }
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
