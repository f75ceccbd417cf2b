"""In-memory span recording and reversible wrapping of library callables.

The benchmark attributes time to layers without editing the library: a
:class:`Patcher` swaps public functions and methods for thin wrappers
that record into a :class:`Recorder`, and puts the original objects back
when the traced run ends.

Three wrapper kinds keep the overhead proportional to what is needed:

``span``
    One record per call: ``(name, start, end, parent, run_id)``.  Used at
    layer boundaries that run at most a few thousand times per run.
``leaf``
    Hot inner calls (millions per serving run).  Only a count and a total
    are kept, and the duration is charged to the enclosing span as child
    time, so self-time accounting stays exact without one record per call.
``count``
    Calls counted, no clock read; their time stays in the caller's span.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

_clock = time.perf_counter


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int = -1
    run_id: str = ""
    #: Time spent in ``leaf`` calls made directly inside this span.
    leaf_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Recorder:
    """Spans, leaf totals and counters of one traced run."""

    spans: list[Span] = field(default_factory=list)
    #: name -> [calls, seconds] for ``leaf`` wrappers.
    leaves: dict[str, list[float]] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    #: name -> layer, for every span or leaf name seen.
    layers: dict[str, str] = field(default_factory=dict)
    run_id: str = ""
    #: Seconds of leaf calls made outside any span.
    orphan_leaf_s: float = 0.0
    _stack: list[int] = field(default_factory=list)

    # ------------------------------------------------------------ recording
    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, layer, _clock(), parent=parent, run_id=self.run_id))
        index = len(self.spans) - 1
        self._stack.append(index)
        self.layers[name] = layer
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = _clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span stack corrupted: closed {index}, top was {popped}")

    def leaf(self, name: str, layer: str, seconds: float) -> None:
        entry = self.leaves.get(name)
        if entry is None:
            entry = self.leaves[name] = [0, 0.0]
            self.layers[name] = layer
        entry[0] += 1
        entry[1] += seconds
        if self._stack:
            self.spans[self._stack[-1]].leaf_s += seconds
        else:
            self.orphan_leaf_s += seconds

    # ------------------------------------------------------------- analysis
    def totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, inclusive seconds), spans and leaves together.

        A span nested in a span of the same name (a callback that calls
        itself) adds a call but no time, which its outer span already has.
        """
        out: dict[str, tuple[int, float]] = {}
        for sp in self.spans:
            calls, secs = out.get(sp.name, (0, 0.0))
            if not self._inside(sp, sp.name):
                secs += sp.duration
            out[sp.name] = (calls + 1, secs)
        for name, (calls, secs) in self.leaves.items():
            out[name] = (int(calls), float(secs))
        return out

    def _inside(self, sp: Span, name: str) -> bool:
        parent = sp.parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def self_times(self) -> dict[str, float]:
        """layer -> self seconds: span time minus the time of child spans
        and leaf calls, plus the leaf time itself."""
        child: list[float] = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent >= 0:
                child[sp.parent] += sp.duration
        out: dict[str, float] = {}
        for sp, kids in zip(self.spans, child):
            out[sp.layer] = out.get(sp.layer, 0.0) + sp.duration - kids - sp.leaf_s
        for name, (_, secs) in self.leaves.items():
            layer = self.layers[name]
            out[layer] = out.get(layer, 0.0) + secs
        return out

    def covered(self) -> float:
        """Seconds covered by top-level spans, plus leaf calls made outside
        any span."""
        return sum(sp.duration for sp in self.spans if sp.parent < 0) + self.orphan_leaf_s

    def to_json(self) -> dict[str, Any]:
        return {
            "spans": [
                [sp.name, sp.layer, sp.start, sp.end, sp.parent, sp.run_id]
                for sp in self.spans
            ],
            "leaves": {k: [int(v[0]), v[1]] for k, v in self.leaves.items()},
            "counts": dict(self.counts),
        }


class Patcher:
    """Installs wrappers on attributes and restores the originals.

    Every replaced attribute is remembered as ``(owner, name, original)``
    where *original* is the raw object from the owner's ``__dict__``
    (so staticmethods come back as staticmethods).
    """

    def __init__(self, recorder: Recorder) -> None:
        self.rec = recorder
        self._saved: list[tuple[Any, str, Any]] = []

    @property
    def installed(self) -> list[tuple[Any, str, Any]]:
        return list(self._saved)

    # ---------------------------------------------------------- wrappers
    def span_fn(
        self,
        fn: Callable[..., Any],
        name: str,
        layer: str,
        on_return: Callable[[Any, tuple, dict], None] | None = None,
    ) -> Callable[..., Any]:
        rec = self.rec

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = rec.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(index)
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        return wrapper

    def leaf_fn(self, fn: Callable[..., Any], name: str, layer: str) -> Callable[..., Any]:
        leaf = self.rec.leaf

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                leaf(name, layer, _clock() - t0)

        return wrapper

    def count_fn(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        counts = self.rec.counts

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------- installation
    def replace(self, owner: Any, attr: str, make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        """Replace ``owner.attr`` by ``make(original_function)``."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, staticmethod):
            new: Any = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def replace_everywhere(
        self, fn: Callable[..., Any], make: Callable[[Callable[..., Any]], Callable[..., Any]]
    ) -> None:
        """Rebind a module-level function in every ``repro`` module that
        imported it by name (``from x import fn`` copies the reference)."""
        wrapped = make(fn)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "repro" or modname.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._saved.append((module, attr, fn))
                    setattr(module, attr, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
