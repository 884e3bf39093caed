"""In-memory span recording around calls into the fillperm layers.

A span is (name, start, end, parent).  Spans live in flat arrays until
the process ends, then `summarize` reduces them to per-name busy time
and call counts plus per-layer busy and self time.  The layer of a span
is the first dotted component of its name (`zpiece.splice` -> `zpiece`).

`api` wraps the public functions the benchmark calls, and the
cross-module references through which one layer calls another, so that
nested spans show which layer the time was spent in.  Wrapping happens in
the caller module's namespace (`fillperm.enumeration.FillingPermutation`,
not the class itself), so every constructor call from that module is
seen while `isinstance` and the class identity stay untouched.
"""

from __future__ import annotations

import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace
from typing import Callable

class Tracer:
    """Append-only span store; single-threaded, one per process."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._open: list[int] = []

    def _begin(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(self.clock())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        try:
            yield
        finally:
            self._finish(idx)

    def wrap(self, name: str | Callable[..., str], fn: Callable) -> Callable:
        """`fn` with a span around every call; `name` may be computed
        from the call's arguments."""
        begin, finish = self._begin, self._finish
        static = isinstance(name, str)

        def traced(*args, **kwargs):
            idx = begin(name if static else name(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                finish(idx)

        return traced

    def spans(self) -> list[tuple[str, float, float, int]]:
        return [(self.names[self.name[i]], self.start[i], self.end[i],
                 self.parent[i]) for i in range(len(self.start))]


def summarize(spans: list[tuple[str, float, float, int]]) -> dict[str, float]:
    """Reduce (name, start, end, parent index) records to metrics.

    Per span name: `<name>.s` total duration and `<name>.calls`.  Per
    layer: `<layer>.busy.s`, the summed duration of the layer's
    outermost spans (a span whose parent is in the same layer is already
    inside that time), and `<layer>.self.s`, each span's duration minus
    the durations of its direct children, summed over the layer.
    Children never overlap each other: the program is single-threaded
    in the traced process.
    """
    out: dict[str, float] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        layer = name.split(".", 1)[0]
        out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + dur
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{layer}.self.s"] = out.get(f"{layer}.self.s", 0.0) + dur - child_time[i]
        if parent < 0 or spans[parent][0].split(".", 1)[0] != layer:
            out[f"{layer}.busy.s"] = out.get(f"{layer}.busy.s", 0.0) + dur
    return out


def _bounds_name(*args, **kwargs) -> str:
    return f"enumeration.bounds_report.j{kwargs.get('jobs', 1)}"


def _search_name(genus, intersections, *args, **kwargs) -> str:
    return f"gluing.search_patterns.{genus}_{intersections}"


# (module or class path, attribute, span name) for every wrapped call.
# Public entry points the benchmark calls are wrapped where they are
# defined; the rest are one layer's references to another.
TARGETS = (
    ("fillperm.cli", "enumerate_filling", "enumeration.enumerate_filling"),
    ("fillperm.cli", "classify_solutions", "enumeration.classify_solutions"),
    ("fillperm.cli", "bounds_report", _bounds_name),
    ("fillperm.cli", "twisting_closure", "filling.twisting_closure"),
    ("fillperm.enumeration", "twisting_closure", "filling.twisting_closure"),
    ("fillperm.enumeration", "FillingPermutation", "filling.FillingPermutation"),
    ("fillperm.diagram", "FillingPermutation", "filling.FillingPermutation"),
    ("fillperm.zpiece", "FillingPermutation", "filling.FillingPermutation"),
    ("fillperm.zpiece", "enumerate_filling", "enumeration.enumerate_filling"),
    ("fillperm.zpiece", "diagram_of", "diagram.diagram_of"),
    ("fillperm.zpiece", "splice", "zpiece.splice"),
    ("fillperm.perms:Permutation", "conjugate_by", "perms.conjugate_by"),
    ("fillperm.diagram:PairDiagram", "to_filling_permutation",
     "diagram.to_filling_permutation"),
)

# Names the benchmark calls directly: (module, attribute, span name).
API = (
    ("fillperm.enumeration", "enumerate_filling", "enumeration.enumerate_filling"),
    ("fillperm.filling", "reconstruct", "filling.reconstruct"),
    ("fillperm.diagram", "diagram_of", "diagram.diagram_of"),
    ("fillperm.gluing", "from_filling", "gluing.from_filling"),
    ("fillperm.gluing", "t1", "gluing.t1"),
    ("fillperm.gluing", "pattern_of_diagram", "gluing.pattern_of_diagram"),
    ("fillperm.gluing", "euler_genus", "gluing.euler_genus"),
    ("fillperm.gluing", "search_patterns", _search_name),
    ("fillperm.zpiece", "derive_template", "zpiece.derive_template"),
    ("fillperm.zpiece", "splice", "zpiece.splice"),
    ("fillperm.zpiece", "build_from_sequence", "zpiece.build_from_sequence"),
    ("fillperm.zpiece", "detect_zpieces", "zpiece.detect_zpieces"),
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def api(tracer: Tracer | None = None):
    """The benchmark's view of the library, and a function that undoes
    the instrumentation.

    Without a tracer the namespace holds the library's own functions and
    nothing is patched.
    """
    raw = {attr: getattr(_owner(mod), attr) for mod, attr, _ in API}
    if tracer is None:
        return SimpleNamespace(**raw), lambda: None
    saved = []
    for path, attr, name in TARGETS:
        owner = _owner(path)
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original))
    ns = {attr: tracer.wrap(name, raw[attr]) for _, attr, name in API}

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return SimpleNamespace(**ns), restore
