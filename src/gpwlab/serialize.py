"""Deterministic text serialization for artifacts.

The command-line workflows promise byte-identical outputs for identical
configs and seeds.  Every JSON artifact is :func:`json_text`, the stdlib
encoder at ``indent=2``.  Floats are spelled with ``float.__repr__``, the
shortest string that reads back to the same bits, which is what that
encoder prints on every platform; artifacts hold finite numbers only.  The
basis file is the one large artifact: ``basis.family_text`` renders its
phase terms from cached per-monomial templates cut from this encoder's
own output, so its bytes are still exactly ``json_text`` of the records.

Numbers read back from a JSON file go through :func:`integer` and
:func:`real`, which take finite JSON numbers only: never a bool, a string,
a truncated float, or a value a float cannot hold (``1e999`` reads as
infinity, ``10**400`` as an int beyond float range).  :func:`integers` and
:func:`reals` apply the same rules to a whole list at once, for the phase
records of a basis file and for the exponents of every sparse polynomial;
:func:`integer` also takes numpy integers, which a library caller may pass
and JSON never yields.
"""
from __future__ import annotations

import json
import math
import reprlib
import sys
from typing import Any

import numpy as np


def _finite(value, name: str) -> None:
    """Refuse NaN, infinities and ints beyond float range, comparing exactly."""
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite number, got {reprlib.repr(value)}")


def integer(value, name: str) -> int:
    """An int, a numpy integer, or a float with an integral value; finite, never a bool."""
    number = isinstance(value, (int, float, np.integer)) and not isinstance(value, bool)
    if number:
        _finite(value, name)
    if not number or value != int(value):
        raise ValueError(f"{name} must be an integer, got {reprlib.repr(value)}")
    return int(value)


def real(value, name: str) -> float:
    """An int or a float, as a finite float; never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {reprlib.repr(value)}")
    _finite(value, name)
    return float(value)


def _numbers(values: list, rule, name: str) -> np.ndarray:
    """``values`` as one float array, each under ``rule``, which runs per value only
    when a bulk check fails: a type, an int past float range, a magnitude not
    below the largest float (the rule keeps that float itself)."""
    try:
        array = np.array(values, dtype=float) if set(map(type, values)) <= {int, float} else None
    except OverflowError:  # an int beyond float range
        array = None
    if array is None or not (np.abs(array) < sys.float_info.max).all():
        for value in values:
            rule(value, name)
        array = np.array(values, dtype=float)
    return array


def reals(values: list, name: str) -> np.ndarray:
    """:func:`real` of every entry, as one float array."""
    return _numbers(values, real, name)


def integers(values: list, name: str) -> np.ndarray:
    """:func:`integer` of every entry, as one float array of integral values."""
    array = _numbers(values, integer, name)
    integral = np.floor(array) == array
    if not integral.all():
        value = values[int(np.argmin(integral))]
        raise ValueError(f"{name} must be an integer, got {reprlib.repr(value)}")
    return array


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
