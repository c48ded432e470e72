"""Report emission: stable-key JSON documents, aligned text tables, hashes."""

from __future__ import annotations

import hashlib
import json
from typing import List, Sequence

import numpy as np

from .modelio import read_json_object

ARTIFACT_VERSION = "0.1.0"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_fingerprint(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()[:16]


def data_fingerprint(values) -> str:
    arr = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


def write_json_report(report: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")


def load_json_report(path) -> dict:
    return read_json_object(path)


def format_table(headers: Sequence[str], rows: Sequence[Sequence], precision: int = 4) -> str:
    def fmt(cell):
        if isinstance(cell, float):
            return f"{cell:.{precision}f}"
        return str(cell)

    text_rows = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in text_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def compare_reports(a: dict, b: dict) -> List[str]:
    """Metric deltas (b - a) for numeric leaves present in both reports."""

    def walk(x, y, prefix, out):
        if isinstance(x, dict) and isinstance(y, dict):
            for key in sorted(set(x) & set(y)):
                walk(x[key], y[key], f"{prefix}{key}.", out)
        elif isinstance(x, (int, float)) and isinstance(y, (int, float)) \
                and not isinstance(x, bool) and not isinstance(y, bool):
            if x != y:
                out.append(f"{prefix[:-1]}: {x} -> {y} (delta {y - x:+.6g})")

    out: List[str] = []
    walk(a, b, "", out)
    return out
