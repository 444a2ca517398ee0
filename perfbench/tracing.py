"""In-memory span tracer that wraps ppdsp's public functions from outside.

The program's source is never edited: `install` replaces module attributes
with timing wrappers, at the names through which the callers look them up
(`harness.solve` resolves `emit_lp`, `run_adapter`, ... in its own module
namespace, and `enc_location.encode_location` through the module object).
`uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

# (module, attribute, layer name). A module attribute that a later version
# of the program no longer has is reported as absent, not an error.
WRAPPED = (
    ("ppdsp.instgen", "parse_tsplib", "instgen.parse_tsplib"),
    ("ppdsp.instgen", "generate_family", "instgen.generate_family"),
    ("ppdsp.enc_location", "encode_location", "enc_location.encode"),
    ("ppdsp.enc_location", "decode_location", "enc_location.decode"),
    ("ppdsp.enc_request", "encode_request", "enc_request.encode"),
    ("ppdsp.enc_request", "decode_request", "enc_request.decode"),
    ("ppdsp.mipir", "emit_lp", "mipir.emit_lp"),
    ("ppdsp.harness", "emit_lp", "mipir.emit_lp"),
    ("ppdsp.harness", "solve", "harness.solve"),
    ("ppdsp.harness", "oracle", "harness.oracle"),
    ("ppdsp.harness", "run_adapter", "harness.run_adapter"),
    ("ppdsp.harness", "parse_solution", "mipir.parse_solution"),
    ("ppdsp.harness", "objective_value", "mipir.objective_value"),
    ("ppdsp.harness", "request_raw_checks", "harness.request_raw_checks"),
    ("ppdsp.harness", "validate_solution", "core.validate_solution"),
    ("ppdsp.harness", "xi", "core.xi"),
    ("ppdsp.highs_solver", "parse_lp", "highs_solver.parse_lp"),
    ("ppdsp.highs_solver", "solve_lp_text", "highs_solver.solve_lp_text"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    absent: list[str] = field(default_factory=list)
    last_lp_text: Optional[str] = None
    _stack: list[int] = field(default_factory=list)
    _op: Optional[int] = None
    _next_op: int = 0
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, self._op)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self, name: str):
        """A top-level operation: its spans share one op id."""
        self._op, self._next_op = self._next_op, self._next_op + 1
        try:
            with self.span(name):
                yield
        finally:
            self._op = None

    def _wrapper(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if name == "mipir.emit_lp":  # kept for the in-process replay
                self.last_lp_text = result
            return result
        return traced

    def install(self) -> None:
        import importlib
        self.absent = []
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._patched.append((module, attr, fn))
            setattr(module, attr, self._wrapper(fn, name))

    def absent_layers(self) -> list[str]:
        """Layer names none of whose functions could be wrapped."""
        wrapped = {name for module, attr, name in WRAPPED
                   if f"{module}.{attr}" not in self.absent}
        return sorted({name for _, _, name in WRAPPED} - wrapped)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def totals(self, spans: list[Span]) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name over `spans`, which must
        hold whole subtrees. Self time is a span's duration minus that of
        its direct children (calls are sequential, so children never
        overlap)."""
        child_time: dict[int, float] = {}
        index_of = {id(s): i for i, s in enumerate(self.spans)}
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        for s in spans:
            duration = s.end - s.start
            total[s.name] = total.get(s.name, 0.0) + duration
            self_time[s.name] = (self_time.get(s.name, 0.0) + duration
                                 - child_time.get(index_of[id(s)], 0.0))
        return total, self_time

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds one wrapped call adds to the call it wraps, measured on
        a function that does nothing, outside the recorded spans."""
        def noop():
            return None
        traced = self._wrapper(noop, "trace.calibration")
        saved = len(self.spans)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        wrapped = time.perf_counter() - t0
        del self.spans[saved:]
        return max(0.0, wrapped - bare) / calls

    def dump(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.op] for s in self.spans]
