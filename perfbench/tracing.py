"""Per-layer spans and counts, recorded from outside the package.

``Tracer`` wraps the public functions of each layer at every ``montesinos``
module attribute they are called through, keeps one span per call in
memory, and takes each layer's self time from a span stack: a span's
duration minus the time its child spans cover. ``CallCounter`` wraps functions
that are called too often for a span (``Frac`` construction, diagram
edges) and only counts them. Both restore every attribute on exit.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "montesinos" or name.startswith("montesinos."))
    ]


class _Patches:
    """Replaces a function at every package module attribute bound to it,
    and puts the originals back on ``restore``."""

    def __init__(self):
        self._undo = []

    def replace(self, fn, replacement):
        found = False
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, fn))
                    found = True
        if not found:
            raise LookupError(f"{fn.__qualname__} is bound to no montesinos module attribute")

    def replace_attr(self, owner, attr, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc_info):
        self.restore()
        return False


class Tracer(_Patches):
    """Spans around the layer functions; use as a context manager."""

    def __init__(self):
        super().__init__()
        self.spans = []  # (op, parent span index or -1, name, start, end)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.op = -1
        self._stack = []  # [span index, seconds covered by child spans]

    def __enter__(self):
        from montesinos import cli, edgepaths, surfaces, systems

        def solve_outcome(result, counts):
            outcome = "rejected" if result is None else "accepted"
            counts["systems.solve_endpoints." + outcome] += 1

        def solve_error(exc, counts):
            if isinstance(exc, systems.DegenerateSystemError):
                counts["systems.solve_endpoints.degenerate"] += 1

        def seifert_error(exc, counts):
            if isinstance(exc, systems.SeifertReferenceError):
                counts["systems.find_seifert_system.refused"] += 1

        def system_types(result, counts):
            for system in result[0]:
                counts[f"systems.systems.type_{system.system_type}"] += 1

        def count_into(key):
            def record(result, counts):
                counts[key] += len(result)

            return record

        try:
            self._span("cli.main", cli.main)
            self._span(
                "systems.enumerate_systems",
                systems.enumerate_systems_with_diagnostics,
                on_result=system_types,
            )
            self._span(
                "systems.solve_endpoints",
                systems.solve_endpoints,
                on_result=solve_outcome,
                on_error=solve_error,
            )
            self._span("systems.find_seifert_system", systems.find_seifert_system, on_error=seifert_error)
            self._span(
                "edgepaths.enumerate_skeletons",
                edgepaths.enumerate_skeletons,
                on_result=count_into("edgepaths.skeletons"),
            )
            self._span("surfaces.build_reports", surfaces.build_reports, on_result=count_into("surfaces.reports"))
        except BaseException:
            self.restore()
            raise
        return self

    def _span(self, name, fn, on_result=None, on_error=None):
        spans, stack, self_s, counts = self.spans, self._stack, self.self_s, self.counts
        perf_counter = time.perf_counter
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            index = len(spans)
            spans.append(None)  # a tuple once the span ends, which the collector stops tracking
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(result, counts)
                return result
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc, counts)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                spans[index] = (self.op, parent, name, start, end)

        wrapper.__wrapped__ = fn
        self.replace(fn, wrapper)


class CallCounter(_Patches):
    """Counts ``Frac`` constructions and diagram edges; use as a context
    manager. Kept apart from ``Tracer`` because its cost per call would
    distort the self times."""

    def __init__(self):
        super().__init__()
        self.counts = defaultdict(int)

    def __enter__(self):
        from montesinos import farey
        from montesinos.rationals import Frac

        counts = self.counts
        frac_init = Frac.__init__
        diagram_edge = farey.diagram_edge

        def counted_init(self, num, den=1):
            counts["rationals.frac_new"] += 1
            frac_init(self, num, den)

        def counted_edge(right, left):
            counts["farey.diagram_edge.calls"] += 1
            return diagram_edge(right, left)

        try:
            self.replace_attr(Frac, "__init__", counted_init)
            self.replace(diagram_edge, counted_edge)
        except BaseException:
            self.restore()
            raise
        return self
