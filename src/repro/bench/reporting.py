"""Result tables: render, compare against paper values, persist."""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field

try:
    import resource
except ImportError:  # pragma: no cover - Windows: no getrusage
    resource = None  # type: ignore[assignment]


def peak_rss_kb() -> int:
    """Peak resident set size of this process so far, in kilobytes.

    Cheap enough to sample after every bench row (a getrusage call), unlike
    ``tracemalloc`` which would distort the very throughput being measured.
    The value is a *process-wide high-water mark*, so within one sweep it is
    monotonic — a row shows the largest footprint reached up to and including
    that row.
    """
    if resource is None:  # pragma: no cover
        return 0
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes; macOS reports bytes.
    return int(usage // 1024) if sys.platform == "darwin" else int(usage)


@dataclass
class Table:
    """One experiment's output, in the paper's row/series structure."""

    experiment_id: str  # e.g. "fig9"
    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *cells) -> None:
        self.rows.append(list(cells))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    # ------------------------------------------------------------------
    def render(self) -> str:
        cells = [self.headers] + [
            [_format(cell) for cell in row] for row in self.rows
        ]
        widths = [
            max(len(row[i]) for row in cells) for i in range(len(self.headers))
        ]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append("  ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in cells[1:]:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def save(self, directory: str = "results") -> str:
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{self.experiment_id}.txt")
        with open(path, "w") as handle:
            handle.write(self.render() + "\n")
        return path

    # ------------------------------------------------------------------
    def column(self, header: str) -> list:
        """All values of one column (for benchmark assertions)."""
        index = self.headers.index(header)
        return [row[index] for row in self.rows]


def write_artifact(table: Table, json_path: str | None, rows: list[dict], **meta) -> None:
    """Save a sweep's raw rows as ``BENCH_*.json`` and note where on ``table``.

    The payload is ``{"experiment": table.experiment_id, **meta, "rows":
    rows}``.  A falsy ``json_path`` writes nothing.
    """
    if not json_path:
        return
    directory = os.path.dirname(json_path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    payload = {"experiment": table.experiment_id, **meta, "rows": rows}
    with open(json_path, "w") as handle:
        json.dump(payload, handle, indent=2)
    table.add_note(f"raw data saved to {json_path}")


def _format(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}" if abs(cell) < 10 else f"{cell:.1f}"
    return str(cell)


def median(values: list[float]) -> float:
    """Median of a non-empty list (0.0 for empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2


def mean(values: list[float]) -> float:
    if not values:
        return 0.0
    return sum(values) / len(values)
