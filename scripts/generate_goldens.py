"""Regenerate the committed golden scan tables.

Run from the repository root:

    python scripts/generate_goldens.py

The canonical resolutions are part of the regression contract; change
them only together with tests/test_bell.py.
"""

from pathlib import Path

from relbell import scan_figure
from relbell.cli import emit

RESOLUTIONS = {1: 41, 2: 41, 3: 21, 4: 41, 5: 201, 6: 201}


def main() -> None:
    out_dir = Path(__file__).resolve().parent.parent / "tests" / "golden"
    for figure, resolution in RESOLUTIONS.items():
        table = scan_figure(figure, resolution)
        path = out_dir / f"fig{figure}.csv"
        emit(table, "csv", str(path))
        print(f"wrote {path} ({len(table.rows)} rows)")


if __name__ == "__main__":
    main()
