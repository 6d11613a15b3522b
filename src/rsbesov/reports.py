"""Deterministic report writers: comma-separated tables and jsonl records."""

from __future__ import annotations

import json
import math
from pathlib import Path


def fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_table(path, header: list[str], rows, meta: dict | None = None) -> None:
    """CSV with one header line; optional leading '#'-comment meta lines."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        if meta:
            for k in sorted(meta):
                fh.write(f"# {k} = {fmt(meta[k])}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def _json_safe(record: dict) -> dict:
    """Non-finite floats spelled as the CSV writer does ("inf", "-inf", "nan")."""
    return {
        k: fmt(v) if isinstance(v, float) and not math.isfinite(v) else v
        for k, v in record.items()
    }


def _json_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, allow_nan=False) + "\n"


def write_jsonl(path, header: list[str], rows, meta: dict | None = None) -> None:
    """One strict-JSON object per line, the meta record first."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        if meta:
            fh.write(_json_line({"meta": _json_safe(meta)}))
        for row in rows:
            fh.write(_json_line(_json_safe(dict(zip(header, row)))))


def write_rows(path, header, rows, fmt_kind: str, meta=None) -> None:
    if fmt_kind == "csv":
        write_table(path, header, rows, meta)
    elif fmt_kind == "jsonl":
        write_jsonl(path, header, rows, meta)
    else:
        raise ValueError(f"unknown format {fmt_kind}")
