"""Span tracing of divfilt's layers from outside the library.

:class:`Tracer` wraps the public functions of every divfilt module (and a
few hot methods) so that each call records a span ``(name, start_ns,
end_ns, parent, request)``.  The library itself is not edited: the wrapper
replaces the function on its module *and* on every other ``divfilt.*``
module that imported the same object (``multiplicity.gamma`` is
``envelope.gamma``), so calls between layers are caught.

The field operations of ``QuadNumber`` run tens of thousands of times per
request, so they are counted, not spanned.  Spans stay in memory; the
caller writes them out when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Optional

LAYERS = (
    "qfield",
    "surfaces",
    "model",
    "envelope",
    "multiplicity",
    "intervals",
    "filt_examples",
    "verify",
    "cli",
)

# Methods spanned in addition to each module's public functions.
SPANNED_METHODS = {
    "surfaces": {"SurfaceClass": ("pair",), "SurfaceLattice": ("cone_contains",)},
    "model": {"ThreefoldModel": ("triple", "validate")},
    "filt_examples": {"LengthSequence": ("length",)},
}

# Methods only counted: spanning them would dominate the run.
COUNTED_METHODS = {
    "qfield": {"QuadNumber": ("__add__", "__mul__", "sign", "inverse")},
}


def _public_callables(module) -> Iterable[tuple[str, object]]:
    for attr, value in vars(module).items():
        if attr.startswith("_") or isinstance(value, type) or not callable(value):
            continue
        if getattr(value, "__module__", None) == module.__name__:
            yield attr, value


class Tracer:
    """Records spans and call counts for the divfilt layers it is installed on."""

    def __init__(self, workdir: Optional[Path] = None) -> None:
        self.spans: list = []
        # span lists of traced child processes, each with its own indices
        self.child_spans: list[list] = []
        self.counts: Counter = Counter()
        # (request, kind, value) facts read from arguments and results
        self.events: list = []
        self.request: object = None
        self.workdir = workdir
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, name: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns

        def traced(*args, **kwargs):
            counts[name] += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)
            if observe is not None:
                observe(self, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation -----------------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer of the already-imported ``divfilt`` package."""
        import divfilt  # noqa: F401  (the layers must be loaded to be wrapped)

        modules = {
            name: module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "divfilt" or name.startswith("divfilt."))
        }
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            module = modules[f"divfilt.{layer}"]
            for attr, fn in _public_callables(module):
                observe = OBSERVERS.get(f"{layer}.{attr}")
                replacements[id(fn)] = self._spanned(f"{layer}.{attr}", fn, observe)
            for table, make in ((SPANNED_METHODS, "span"), (COUNTED_METHODS, "count")):
                for cls_name, methods in table.get(layer, {}).items():
                    cls = getattr(module, cls_name)
                    for method in methods:
                        fn = vars(cls)[method]
                        name = f"{layer}.{cls_name}.{method}"
                        wrapper = (
                            self._spanned(name, fn, None)
                            if make == "span"
                            else self._counted(name, fn)
                        )
                        # aliases such as __radd__ = __add__ share the wrapper
                        for alias, value in list(vars(cls).items()):
                            if value is fn:
                                self._set(cls, alias, wrapper)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None and getattr(wrapper, "__wrapped__", None) is value:
                    self._set(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- persistence ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "child_spans": self.child_spans,
            "counts": dict(self.counts),
            "events": self.events,
        }

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle)

    def child_trace_path(self) -> Path:
        return self.workdir / f"child-{len(self.child_spans)}.json"

    def absorb_file(self, path: Path) -> None:
        """Merge a traced child's dump, relabelled as the current request."""
        with open(path) as handle:
            child = json.load(handle)
        path.unlink()
        self.child_spans.append(
            [(name, start, end, parent, self.request) for name, start, end, parent, _ in child["spans"]]
        )
        self.counts.update(child["counts"])
        self.events.extend((self.request, kind, value) for _, kind, value in child["events"])


def _observe_gamma(tracer: Tracer, args: tuple, result) -> None:
    tracer.events.append((tracer.request, "gamma_input", str(args[1])))


def _observe_minkowski(tracer: Tracer, args: tuple, result) -> None:
    method = result.checks[-1].method
    tracer.events.append((tracer.request, "cube_root_exact", method.startswith("exact")))


OBSERVERS = {
    "envelope.gamma": _observe_gamma,
    "multiplicity.minkowski_check": _observe_minkowski,
}


# ---------------------------------------------------------------------------
# analysis


def self_times(spans: list) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent, request in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent, request) in enumerate(spans):
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def self_time_by(spans: list, key: Callable[[str], str] = lambda name: name) -> dict:
    """``group -> [total self ns, entries]`` with spans grouped by ``key(name)``.

    An entry is a span whose parent is outside its group, so a recursive
    or layer-internal call is not counted twice.
    """
    totals: dict[str, list[int]] = {}
    for (name, start, end, parent, request), own in zip(spans, self_times(spans)):
        group = key(name)
        slot = totals.setdefault(group, [0, 0])
        slot[0] += own
        if parent < 0 or key(spans[parent][0]) != group:
            slot[1] += 1
    return totals


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
