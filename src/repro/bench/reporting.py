"""Rendering and persistence of benchmark results.

Every experiment returns a plain-data structure (a list of row dicts plus
metadata).  This module renders it as an aligned text table in the same
layout as the paper's artefact, and writes both the rendered text and the raw
JSON under ``benchmark_results/`` so EXPERIMENTS.md can reference stable
files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

#: Default output directory (repository root / benchmark_results).
RESULTS_DIR = Path(__file__).resolve().parents[3] / "benchmark_results"


def format_value(value: Any) -> str:
    """Generic cell renderer."""
    if value is None:
        return "-"
    if isinstance(value, float):
        if math.isnan(value):
            return "-"
        if abs(value) >= 1000 or (abs(value) < 0.01 and value != 0.0):
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)


def format_table(rows: Sequence[Dict[str, Any]], columns: Optional[List[str]] = None,
                 title: str = "") -> str:
    """Render rows as an aligned text table."""
    if not rows:
        return f"{title}\n(no rows)\n"
    columns = columns or list(rows[0].keys())
    rendered = [
        [format_value(row.get(column)) for column in columns] for row in rows
    ]
    widths = [
        max(len(column), *(len(line[index]) for line in rendered))
        for index, column in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(column.ljust(width) for column, width in zip(columns, widths))
    lines.append(header)
    lines.append("  ".join("-" * width for width in widths))
    for line in rendered:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(line, widths)))
    return "\n".join(lines) + "\n"


def save_results(name: str, payload: Dict[str, Any],
                 rendered: Optional[str] = None,
                 directory: Optional[Path] = None) -> Path:
    """Persist an experiment's raw payload (JSON) and rendered table (txt).

    ``NaN`` values are stored as ``null`` so the files stay valid strict JSON.
    """
    directory = Path(directory) if directory is not None else RESULTS_DIR
    directory.mkdir(parents=True, exist_ok=True)
    json_path = directory / f"{name}.json"
    with json_path.open("w", encoding="utf-8") as handle:
        json.dump(_sanitize(payload), handle, indent=2, default=_json_default)
    if rendered is not None:
        (directory / f"{name}.txt").write_text(rendered, encoding="utf-8")
    return json_path


def _sanitize(value: Any) -> Any:
    """Recursively replace NaN/inf floats with None for strict-JSON output."""
    if isinstance(value, dict):
        return {key: _sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _json_default(value: Any) -> Any:
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, float) and math.isnan(value):
        return None
    return str(value)
