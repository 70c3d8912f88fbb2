"""Span tracing of the enriques layers from outside the package.

:class:`Tracer` wraps public functions at every module attribute that holds
them (``enriques.jump.geq``, ``enriques.adjacency.canonical_order`` ...), so
each call a module makes through its globals opens a span: name, start,
end, parent span and op id.  Generators get one span per resume.  Spans
stay in compact arrays until the run ends; :meth:`Tracer.layer_metrics`
turns them into busy and self times, and :meth:`Tracer.write_spans` saves
them.  A span's self time is its duration minus the time its child spans
cover; busy time counts only the outermost span of each name.
"""

from __future__ import annotations

import csv
import gzip
import inspect
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

# (module, function) pairs to wrap; the span name is "<module>.<function>"
# except where SPAN_NAMES renames it.
TRACED = (
    ("cli", "run"),
    ("jump", "verify_maximality"),
    ("jump", "lambda_lin"),
    ("jump", "construct_adjacent_diagram"),
    ("enumeration", "enumerate_minimal_diagrams"),
    ("adjacency", "geq"),
    ("adjacency", "class_representatives"),
    ("adjacency", "check_geq_witness"),
    ("diagram", "validate_axioms"),
    ("diagram", "canonical_order"),
    ("diagram", "minimalize"),
    ("diagram", "milnor_number"),
    ("quasihomogeneous", "check_Q_membership"),
    ("quasihomogeneous", "build_enriques_diagram"),
    ("quasihomogeneous", "minimal_diagram"),
    ("serialize", "diagram_to_json"),
    ("serialize", "diagram_from_json"),
)
SPAN_NAMES = {"enumeration.enumerate_minimal_diagrams": "enumeration"}
OP_SPAN = "op"
# functions whose repeat ratio (calls per distinct argument, compared by
# value) is measured
DISTINCT_ARGUMENT = ("diagram.validate_axioms", "diagram.canonical_order")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.yielded: list[int] = []
        self._depth: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_child = array("d")
        self.span_outermost = array("b")
        self._stack: list[int] = []
        self.op = -1
        self.active = False
        self.witnesses = 0
        self.examined = 0
        self.refuted = 0
        self.json_bytes = 0
        self.builds_in_membership = 0
        self.distinct: dict[str, set[Any]] = {name: set() for name in DISTINCT_ARGUMENT}
        self._restore: list[tuple[Any, str, Any]] = []
        self._op_name = self._name_id(OP_SPAN)

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.yielded.append(0)
        self._depth.append(0)
        return len(self.names) - 1

    # -- spans ------------------------------------------------------------

    def open(self, name: int) -> int:
        index = len(self.span_start)
        self.span_name.append(name)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_outermost.append(self._depth[name] == 0)
        self._depth[name] += 1
        self.span_child.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        end = perf_counter()
        self.span_end[index] = end
        self._stack.pop()
        self._depth[self.span_name[index]] -= 1
        parent = self.span_parent[index]
        if parent >= 0:
            self.span_child[parent] += end - self.span_start[index]

    def begin_op(self, op: int) -> int:
        self.op = op
        self.active = True
        return self.open(self._op_name)

    def end_op(self, span: int) -> None:
        self.close(span)
        self.active = False

    # -- wrapping ---------------------------------------------------------

    def install(self, package: Any) -> None:
        """Wrap every TRACED function wherever a package module binds it."""
        prefix = package.__name__
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == prefix or name.startswith(prefix + ".")
        ]
        for module_name, function in TRACED:
            original = getattr(sys.modules[f"{prefix}.{module_name}"], function)
            name = f"{module_name}.{function}"
            wrapper = self._wrap(original, SPAN_NAMES.get(name, name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        tracer = self
        nid = self._name_id(name)
        observe = self._observer(name)
        if inspect.isgeneratorfunction(fn):

            def generator(*args: Any, **kwargs: Any) -> Any:
                inner = fn(*args, **kwargs)
                if not tracer.active:
                    return (yield from inner)
                tracer.calls[nid] += 1
                try:
                    while True:
                        span = tracer.open(nid)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer.close(span)
                        tracer.yielded[nid] += 1
                        yield item
                finally:
                    inner.close()

            return generator

        def function(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[nid] += 1
            span = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if observe is not None:
                observe(args, result)
            return result

        return function

    def _observer(self, name: str) -> Callable[[tuple, Any], None] | None:
        """Counters read off a call's arguments or result."""
        if name in self.distinct:
            seen = self.distinct[name]
            return lambda args, result: seen.add(args[0])
        if name == "adjacency.geq":

            def geq(args: tuple, result: Any) -> None:
                self.witnesses += result is not None

            return geq
        if name == "jump.verify_maximality":

            def verify(args: tuple, result: Any) -> None:
                self.examined += result.examined
                self.refuted += result.refuted

            return verify
        if name == "serialize.diagram_to_json":

            def to_json(args: tuple, result: Any) -> None:
                self.json_bytes += len(result.encode())

            return to_json
        if name == "quasihomogeneous.build_enriques_diagram":
            membership = self.names.index("quasihomogeneous.check_Q_membership")

            def build(args: tuple, result: Any) -> None:
                self.builds_in_membership += self._depth[membership] > 0

            return build
        return None

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-name calls, yields, busy and self seconds, plus derived counters."""
        count = len(self.names)
        busy = [0.0] * count
        own = [0.0] * count
        start, end, child = self.span_start, self.span_end, self.span_child
        for i, (nid, outermost) in enumerate(zip(self.span_name, self.span_outermost)):
            duration = end[i] - start[i]
            if outermost:
                busy[nid] += duration
            own[nid] += duration - child[i]
        metrics: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            metrics[f"{name}.calls"] = self.calls[nid]
            metrics[f"{name}.yielded"] = self.yielded[nid]
            metrics[f"{name}.busy_s"] = busy[nid]
            metrics[f"{name}.self_s"] = own[nid]
        for name, seen in self.distinct.items():
            metrics[f"{name}.repeat_ratio"] = _ratio(metrics[f"{name}.calls"], len(seen))
        geq_calls = metrics["adjacency.geq.calls"]
        metrics["adjacency.geq.witness_ratio"] = _ratio(self.witnesses, geq_calls)
        metrics["adjacency.geq.calls_per_examined"] = _ratio(geq_calls, self.examined)
        metrics["jump.examined"] = self.examined
        metrics["jump.refuted"] = self.refuted
        metrics["jump.examined_per_yielded"] = _ratio(
            self.examined, metrics["enumeration.yielded"]
        )
        metrics["quasihomogeneous.check_Q_membership.builds_per_call"] = _ratio(
            self.builds_in_membership, metrics["quasihomogeneous.check_Q_membership.calls"]
        )
        metrics["serialize.json_bytes"] = self.json_bytes
        return metrics

    def write_spans(self, path: Path) -> None:
        """Spans as gzipped CSV: id, name, start and end (s), parent id, op id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", compresslevel=1, newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("span", "name", "start_s", "end_s", "parent", "op"))
            for i, nid in enumerate(self.span_name):
                writer.writerow(
                    (
                        i,
                        self.names[nid],
                        f"{self.span_start[i] - origin:.7f}",
                        f"{self.span_end[i] - origin:.7f}",
                        self.span_parent[i],
                        self.span_op[i],
                    )
                )


def _ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, or 0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0
