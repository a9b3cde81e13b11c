"""Deterministic text serialization for artifacts.

The command-line workflows promise byte-identical outputs for identical
configs and seeds.  Floats are spelled with ``repr``, the shortest string
that reads back to the same bits, which is what the stdlib JSON encoder
prints on every platform; artifacts hold finite numbers only.
"""
from __future__ import annotations

import json
import math
from typing import Any


def json_text(value: Any) -> str:
    return json.dumps(value, indent=2, allow_nan=False) + "\n"


def _cell(cell) -> str:
    if cell is None:
        return ""
    if isinstance(cell, float):
        if not math.isfinite(cell):
            raise ValueError("artifacts must contain finite numbers only")
        return repr(float(cell))
    return str(cell)


def csv_text(header: tuple[str, ...], rows: list[tuple]) -> str:
    lines = [",".join(header)] + [",".join(_cell(cell) for cell in row) for row in rows]
    return "\n".join(lines) + "\n"
