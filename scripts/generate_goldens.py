"""Regenerate the committed golden scan tables.

Run from the repository root:

    python scripts/generate_goldens.py

Before each table is overwritten, the script prints how many of its cells
moved against the committed CSV and the largest absolute move, the
per-cell record that a regeneration must report.

The canonical resolutions are part of the regression contract; change
them only together with tests/test_bell.py.
"""

import io
from pathlib import Path

import numpy as np

from relbell import scan_figure
from relbell.cli import emit

RESOLUTIONS = {1: 41, 2: 41, 3: 21, 4: 41, 5: 201, 6: 201}


def _cells(text: str) -> tuple[list[str], np.ndarray]:
    """A CSV table's header and its cells as a float array."""
    header, *rows = text.splitlines()
    return header.split(","), np.array([[float(x) for x in row.split(",")] for row in rows])


def _moved(committed: str, table) -> str:
    """Moved cells and the largest absolute move of ``table`` against the
    ``committed`` CSV text."""
    buffer = io.StringIO()
    table.to_csv(buffer)
    old_header, old = _cells(committed)
    new_header, new = _cells(buffer.getvalue())
    if old_header != new_header or old.shape != new.shape:
        return "shape or columns changed"
    moved = old != new
    delta = float(np.abs(new - old).max()) if moved.any() else 0.0
    return f"{int(moved.sum())}/{moved.size} cells moved, max |delta| {delta!r}"


def main() -> None:
    out_dir = Path(__file__).resolve().parent.parent / "tests" / "golden"
    for figure, resolution in RESOLUTIONS.items():
        table = scan_figure(figure, resolution)
        path = out_dir / f"fig{figure}.csv"
        if path.exists():
            print(f"fig{figure}: {_moved(path.read_text(encoding='utf-8'), table)}")
        emit(table, "csv", str(path))
        print(f"wrote {path} ({len(table.rows)} rows)")


if __name__ == "__main__":
    main()
