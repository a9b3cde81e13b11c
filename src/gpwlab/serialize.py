"""Deterministic text serialization for artifacts.

The command-line workflows promise byte-identical outputs for identical
configs and seeds.  Floats are spelled with ``repr``, the shortest string
that reads back to the same bits, which is what the stdlib JSON encoder
prints on every platform; artifacts hold finite numbers only.  Numbers
read back from a JSON file go through :func:`integer` and :func:`real`,
which take JSON numbers only: never a bool, a string or a truncated float.
"""
from __future__ import annotations

import json
import math
import reprlib
from typing import Any


def integer(value, name: str) -> int:
    """An int, or a float with an integral value; never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != int(value):
        raise ValueError(f"{name} must be an integer, got {reprlib.repr(value)}")
    return int(value)


def real(value, name: str) -> float:
    """An int or a float, as a float; never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {reprlib.repr(value)}")
    return float(value)


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
