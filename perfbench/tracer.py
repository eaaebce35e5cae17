"""Spans and counts recorded from outside the program.

The traced run replaces each stage function with a pass-through wrapper at
the module attribute where its caller looks it up (``carleman.solver``
imports ``decompose`` by name, so the wrapper goes on
``carleman.solver.decompose``, not on ``carleman.triangular``). Nothing in
``src/`` changes. Each call records a span: name, start, end, parent span
and the id of the benchmark operation (one per library solve+verify, one
per CLI call). Spans stay in memory until the run ends.

A target that no longer exists, say after a refactor removes a dense
helper, is recorded as missing and the run goes on; its time then shows
up as self time of the caller's span. Counts are read from the objects
the stages return once the operation has ended, so reading them adds to
no span.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple


# -- readers: counts from returned objects ------------------------------------------


def _cells(rows):
    """Values of a dense (list) or sparse (dict) row-major matrix."""
    for row in rows:
        yield from (row.values() if isinstance(row, dict) else row)


def read_transition(matrix) -> Dict[str, float]:
    rows = matrix.rows
    n = len(rows)
    nnz = sum(1 for x in _cells(rows) if x != 0)
    return {"embedding.basis_n": n, "embedding.nnz_T": nnz,
            "embedding.density_T": nnz / (n * n)}


def read_spectral(spec) -> Dict[str, float]:
    bits = 0
    nnz = {}
    for key, rows in (("triangular.nnz_P", spec.modal),
                      ("triangular.nnz_Pinv", spec.modal_inv)):
        count = 0
        for x in _cells(rows):
            if x != 0:
                count += 1
                if isinstance(x, Fraction):
                    bits = max(bits, x.numerator.bit_length(),
                               x.denominator.bit_length())
        nnz[key] = count
    return dict(nnz, **{"triangular.max_bits": bits})


def read_solution(solution) -> Dict[str, float]:
    terms = sum(len(exp_sum.terms)
                for table in tuple(solution.tables) + tuple(solution.transformed)
                for exp_sum in table.values())
    return {"solver.expsum_terms": terms}


def read_report(report) -> Dict[str, float]:
    return {"solver.verify_rows": len(report.rows)}


def read_shift(result) -> Dict[str, float]:
    _offset, trail = result
    return {"systems.shift_candidates": len(trail),
            "systems.shift_chosen": sum(1 for c in trail if c.chosen)}


# Counts that describe one object keep their largest value in an operation;
# the others add up.
MAX_COUNTS = frozenset({
    "embedding.basis_n", "embedding.nnz_T", "embedding.density_T",
    "triangular.nnz_P", "triangular.nnz_Pinv", "triangular.max_bits"})

READER_KEYS = {
    read_transition: ("embedding.basis_n", "embedding.nnz_T",
                      "embedding.density_T"),
    read_spectral: ("triangular.nnz_P", "triangular.nnz_Pinv",
                    "triangular.max_bits"),
    read_solution: ("solver.expsum_terms",),
    read_report: ("solver.verify_rows",),
    read_shift: ("systems.shift_candidates", "systems.shift_chosen"),
}


# -- targets ------------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """``module``.``attr`` (attr may be ``Class.method``) becomes a wrapper.

    kind "span" records a span named ``name``; "count" only counts calls
    (for functions called too often to time one by one), and with
    ``within`` only the calls made while the innermost open span has that
    name; "probe" records no span and only hands the result to ``reader``.
    """

    module: str
    attr: str
    name: str
    kind: str = "span"
    reader: Optional[Callable] = None
    within: Optional[str] = None

    @property
    def path(self) -> str:
        return f"{self.module}.{self.attr}"


TARGETS = (
    Target("carleman", "parse_system", "parser.parse_system"),
    Target("carleman.cli", "parse_system", "parser.parse_system"),
    Target("carleman", "solve", "solver.solve"),
    Target("carleman.cli", "solve", "solver.solve"),
    Target("carleman", "verify", "solver.verify", reader=read_report),
    Target("carleman.cli", "verify", "solver.verify", reader=read_report),
    Target("carleman.cli", "main", "cli.main"),
    Target("carleman.solver", "resolve_transform", "solver.resolve_transform"),
    Target("carleman.cli", "resolve_transform", "solver.resolve_transform"),
    Target("carleman.solver", "resolve_shift", "solver.resolve_shift",
           kind="probe", reader=read_shift),
    Target("carleman.cli", "resolve_shift", "solver.resolve_shift",
           kind="probe", reader=read_shift),
    Target("carleman.solver", "fixed_points", "systems.fixed_points"),
    Target("carleman.solver", "check_shift_admissible",
           "systems.check_shift_admissible"),
    Target("carleman.solver", "apply_affine", "systems.apply_affine"),
    Target("carleman.systems", "apply_affine", "systems.apply_affine"),
    Target("carleman.solver", "triangularize_linear",
           "systems.triangularize_linear"),
    Target("carleman.solver", "build_transition", "embedding.build_transition",
           reader=read_transition),
    Target("carleman.cli", "build_transition", "embedding.build_transition",
           reader=read_transition),
    Target("carleman.solver", "decompose", "triangular.decompose",
           reader=read_spectral),
    Target("carleman.solver", "_assemble", "solver.assemble",
           reader=read_solution),
    Target("carleman.solver", "_oracle_step", "solver.oracle_step"),
    Target("carleman.poly", "Poly.compose", "poly.compose"),
    # the products that build T; the parser, verify's compose and the
    # pullback call it too
    Target("carleman.poly", "Poly.mul_truncated", "poly.mul_truncated",
           kind="count", within="embedding.build_transition"),
)


def _resolve(target: Target):
    """(owner, attribute name, current value), or None when gone."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *parents, last = target.attr.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, last, None)
    if not callable(original):
        return None
    return owner, last, original


class Tracer:
    """Wraps the targets, records spans and counts per operation."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans: List[list] = []       # [name, start, end, parent, op]
        self.counts: Dict[int, Dict[str, float]] = {}
        self.calls: Dict[str, int] = {t.path: 0 for t in self.targets}
        self.missing: List[str] = []
        self.unreadable: List[str] = []
        self._stack: List[int] = []
        self._pending: List[Tuple[Callable, object]] = []
        self._installed: List[Tuple[object, str, object]] = []
        self.op: Optional[int] = None

    # installation

    def install(self) -> None:
        for target in self.targets:
            found = _resolve(target)
            if found is None:
                self.missing.append(target.path)
                continue
            owner, attr, original = found
            setattr(owner, attr, self._wrap(target, original))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def idle(self) -> List[str]:
        """Installed targets that were never called."""
        return [t.path for t in self.targets
                if t.path not in self.missing and not self.calls[t.path]]

    # operations

    def begin_op(self, op: int) -> None:
        self.op = op
        self.counts.setdefault(op, {})

    def end_op(self) -> None:
        counts = self.counts[self.op]
        for reader, result in self._pending:
            try:
                values = reader(result)
            except (AttributeError, TypeError, ValueError, KeyError,
                    IndexError, ZeroDivisionError):
                for key in READER_KEYS.get(reader, ()):
                    if key not in self.unreadable:
                        self.unreadable.append(key)
                continue
            for key, value in values.items():
                if key in MAX_COUNTS:
                    counts[key] = max(counts.get(key, 0), value)
                else:
                    counts[key] = counts.get(key, 0) + value
        self._pending.clear()
        self.op = None

    # wrappers

    def _wrap(self, target: Target, fn):
        tracer, path, name = self, target.path, target.name
        reader = target.reader

        if target.kind == "count":
            within, spans, stack = target.within, self.spans, self._stack

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if within is None or (stack and spans[stack[-1]][0] == within):
                    tracer.calls[path] += 1
                return fn(*args, **kwargs)
            return counted

        if target.kind == "probe":
            @functools.wraps(fn)
            def probed(*args, **kwargs):
                tracer.calls[path] += 1
                result = fn(*args, **kwargs)
                tracer._pending.append((reader, result))
                return result
            return probed

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            tracer.calls[path] += 1
            stack = tracer._stack
            record = [name, 0.0, 0.0, stack[-1] if stack else None, tracer.op]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if reader is not None:
                tracer._pending.append((reader, result))
            return result
        return spanned


def self_times(spans) -> List[float]:
    """Duration of each span minus the time its child spans cover. One
    thread runs everything, so children never overlap and their cover is
    the sum of their durations."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent is not None:
            covered[parent] += end - start
    return [(end - start) - covered[i]
            for i, (_n, start, end, _p, _o) in enumerate(spans)]


def span_names(targets=TARGETS) -> List[str]:
    seen: List[str] = []
    for t in targets:
        if t.kind == "span" and t.name not in seen:
            seen.append(t.name)
    return seen


def missing_spans(missing_paths, targets=TARGETS) -> List[str]:
    """Span names whose every target is missing."""
    return [name for name in span_names(targets)
            if all(t.path in missing_paths
                   for t in targets if t.name == name and t.kind == "span")]


def count_calls(calls: Dict[str, int], name: str, targets=TARGETS) -> int:
    return sum(calls.get(t.path, 0) for t in targets if t.name == name)
