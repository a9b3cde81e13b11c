"""Layer tracing from outside the program.

The tracer replaces public gpwlab functions and polynomial methods with
wrappers that count calls and accumulate self time (busy time minus the
time of traced children).  Nothing in ``src/`` is edited: module-level
functions are patched under every name a gpwlab module looks them up
by (``gpwlab.basis.preimage`` is the same object as
``gpwlab.frame.preimage``), methods are patched on their class, and the
split closures are wrapped through ``dataclasses.replace`` on the split
returned by ``make_*_split``.  Spans are kept in memory and written out
once, at the end of the run; the polynomial kernel is too hot for one
span per call, so it is aggregated into counts and self time only.
"""
from __future__ import annotations

import itertools
import json
import pathlib
import sys
import time
from collections import Counter
from dataclasses import replace
from typing import Callable

from gpwlab import approx, basis, cli, frame, layers, operators, serialize
from gpwlab.polycore import GradedPoly, HomogeneousPoly

ARITH = ("__add__", "__sub__", "scaled", "truncate", "layer")

# Every per-layer metric, in the order BENCHMARK.json lists them.
TIMED = (
    "polycore.mul_truncated",
    "polycore.derive",
    "polycore.arith",
    "polycore.evaluate",
    "polycore.shifted",
    "operators.make_split",
    "layers.solve_layer",
    "frame.preimage",
    "frame.remainder",
    "frame.principal",
    "frame.verify_split",
    "basis.build_gpw",
    "basis.certificate_norm",
    "approx.taylor_truncation",
    "approx.svd",
    "approx.family_fit_error",
    "serialize.json_text",
    "cli.io",
)
# Boundaries aggregated without a span each (called up to ~10^5 times a repetition).
UNSPANNED = {
    "polycore.mul_truncated",
    "polycore.derive",
    "polycore.arith",
    "polycore.evaluate",
    "cli.io",
}


class _Delegate:
    """Stand-in module: named attributes overridden, everything else forwarded."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _degree_histogram(poly: GradedPoly) -> Counter:
    return Counter(sum(index) for index in poly.coeffs)


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`; one per process."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {name: [0, 0.0] for name in TIMED}
        self.counts: Counter = Counter()
        self.certificate_worst = 0.0
        self.spans: list[tuple] = []
        self.rep = 0
        self._stack: list[list] = []
        self._ids = itertools.count(1)
        self._seen_builds: set = set()
        self._undo: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def timed(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """Wrap fn: count the call, add its self time, record a span, run ``after``."""
        stat = self.stats[name]
        stack = self._stack
        spans = None if name in UNSPANNED else self.spans
        ids = self._ids
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else 0
            span_id = next(ids) if spans is not None else parent
            frame_ = [0.0, span_id]
            stack.append(frame_)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stat[0] += 1
                stat[1] += t1 - t0 - frame_[0]
                if spans is not None:
                    spans.append((span_id, parent, self.rep, name, t0, t1))
                if stack:
                    stack[-1][0] += t1 - t0
            if after is not None:
                after(args, kwargs, result)
                if stack:
                    # keep the hook's own cost out of the caller's self time
                    stack[-1][0] += clock() - t1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks that derive work counts from arguments and results ------------

    def _pairs(self, args, kwargs, result) -> None:
        left, right = args[0], args[1]
        bound = args[2] if len(args) > 2 else kwargs.get("bound")
        visited = len(left.coeffs) * len(right.coeffs)
        if bound is None:
            kept = visited
        else:
            hist_right = _degree_histogram(right)
            kept = sum(
                count_left * count_right
                for deg_left, count_left in _degree_histogram(left).items()
                for deg_right, count_right in hist_right.items()
                if deg_left + deg_right <= bound
            )
        self.counts["pairs_visited"] += visited
        self.counts["pairs_kept"] += kept

    def _monomials(self, args, kwargs, result) -> None:
        self.counts["solve_layer_monomials"] += len(result.coeffs)

    def _certificate(self, args, kwargs, result) -> None:
        self.certificate_worst = max(self.certificate_worst, float(result))

    def _json_bytes(self, args, kwargs, result) -> None:
        self.counts["json_bytes"] += len(result.encode())

    def _build(self, args, kwargs, result) -> None:
        """Redundancy key: (operator label, degree, target jet, direction, centre)."""
        split = args[0]
        key = (
            split.label,
            split.source_degree,
            tuple(sorted(split.rhs.coeffs.items())),
            tuple(result.direction),
            result.center,
        )
        self.counts["builds"] += 1
        if key in self._seen_builds:
            self.counts["redundant_builds"] += 1
        self._seen_builds.add(key)

    def start_repetition(self, rep: int) -> None:
        """Builds repeat only within one repetition of the workload."""
        self.rep = rep
        self._seen_builds.clear()

    def _traced_split(self, make: Callable) -> Callable:
        timed_make = self.timed("operators.make_split", make)

        def make_split(*args, **kwargs):
            split = timed_make(*args, **kwargs)
            return replace(
                split,
                principal=self.timed("frame.principal", split.principal),
                remainder=self.timed("frame.remainder", split.remainder),
            )

        return make_split

    # -- patching ----------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._undo.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, value)

    def _patch_everywhere(self, original, replacement) -> None:
        """Rebind every gpwlab module attribute that refers to ``original``."""
        for module_name, module in list(sys.modules.items()):
            if module_name != "gpwlab" and not module_name.startswith("gpwlab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        functions = (
            (layers.solve_layer, "layers.solve_layer", self._monomials),
            (frame.preimage, "frame.preimage", None),
            (frame.verify_split, "frame.verify_split", None),
            (basis.build_gpw, "basis.build_gpw", self._build),
            (basis.certificate_norm, "basis.certificate_norm", self._certificate),
            (approx.taylor_truncation, "approx.taylor_truncation", None),
            (approx.family_fit_error, "approx.family_fit_error", None),
            (serialize.json_text, "serialize.json_text", self._json_bytes),
        )
        for original, name, after in functions:
            self._patch_everywhere(original, self.timed(name, original, after))
        for make in (operators.make_helmholtz_split, operators.make_convected_split):
            self._patch_everywhere(make, self._traced_split(make))

        numpy = approx.np
        svd = self.timed("approx.svd", numpy.linalg.svd)
        self._set(approx, "np", _Delegate(numpy, linalg=_Delegate(numpy.linalg, svd=svd)))

        for command, fn in list(cli.COMMANDS.items()):
            self.stats.setdefault(f"cli.{command}", [0, 0.0])
            self._set(cli.COMMANDS, command, self.timed(f"cli.{command}", fn))
        for method in ("read_text", "write_text"):
            self._set(pathlib.Path, method, self.timed("cli.io", getattr(pathlib.Path, method)))

        methods = (
            ("mul_truncated", "polycore.mul_truncated", self._pairs),
            ("derive", "polycore.derive", None),
            ("evaluate", "polycore.evaluate", None),
            ("shifted", "polycore.shifted", None),
        )
        for method, name, after in methods:
            self._set(GradedPoly, method, self.timed(name, GradedPoly.__dict__[method], after))
        for cls in (GradedPoly, HomogeneousPoly):
            for name in ARITH:
                if name in cls.__dict__:
                    self._set(cls, name, self.timed("polycore.arith", cls.__dict__[name]))
            self._set(cls, "__post_init__", self.counted("polycore.alloc", cls.__post_init__))
        evaluate = self.counted("approx.basis_evals", basis.GpwFunction.__call__)
        self._set(basis.GpwFunction, "__call__", evaluate)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)

    # -- results -----------------------------------------------------------

    def per_layer(self, reps: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as (value, unit), counts and times per traced repetition."""
        out: dict[str, tuple[float, str]] = {}
        for name in TIMED:
            calls, self_s = self.stats[name]
            out[f"{name}.calls"] = (calls / reps, "count")
            out[f"{name}.self_s"] = (self_s / reps, "s")
        counts = self.counts
        out["polycore.mul_truncated.pair_keep_ratio"] = (
            counts["pairs_kept"] / counts["pairs_visited"] if counts["pairs_visited"] else 1.0,
            "ratio",
        )
        out["polycore.alloc.calls"] = (counts["polycore.alloc"] / reps, "count")
        out["layers.solve_layer.monomials"] = (counts["solve_layer_monomials"] / reps, "count")
        out["basis.build_gpw.redundant_ratio"] = (
            counts["redundant_builds"] / counts["builds"] if counts["builds"] else 0.0,
            "ratio",
        )
        out["basis.certificate_worst"] = (self.certificate_worst, "ratio")
        out["approx.basis_evals.calls"] = (counts["approx.basis_evals"] / reps, "count")
        out["serialize.json_text.bytes"] = (counts["json_bytes"] / reps, "bytes")
        return out

    def write(self, path: pathlib.Path, meta: dict) -> None:
        """Spans as [id, parent, repetition, name, start_s, end_s]; 0 is the root."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "meta": meta,
            "stats": {name: {"calls": c, "self_s": s} for name, (c, s) in self.stats.items()},
            "counts": dict(self.counts),
            "spans": [list(span) for span in self.spans],
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)

