"""In-memory span tracer, self-time arithmetic and trace exporters.

Spans are recorded around calls into the program from the benchmark's
own files (see :mod:`perfbench.layers`); nothing inside ``src/`` is
touched.  Each span keeps its name, start, end, parent and the
identifiers of the episode and slot it belongs to.  Spans stay in
memory and are written out once, when the run ends, as plain JSON and
as Chrome trace-event JSON (opens in Perfetto or chrome://tracing).
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for a root span
    episode: int
    slot: int  # request identifier: the stream slot, -1 outside slots


class _Open:
    """Context manager for one span; closes it even when the body raises."""

    __slots__ = ("tracer", "name")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        tracer = self.tracer
        parent = tracer._open[-1] if tracer._open else -1
        tracer._open.append(len(tracer.spans))
        tracer.spans.append(Span(
            self.name, tracer.clock(), float("nan"), parent,
            tracer.episode, tracer.slot,
        ))

    def __exit__(self, *exc: Any) -> bool:
        tracer = self.tracer
        tracer.spans[tracer._open.pop()].end = tracer.clock()
        return False


class Tracer:
    """Collects spans and counters for one benchmark run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.episode = 0
        self.slot = -1
        self._open: List[int] = []

    def span(self, name: str) -> _Open:
        return _Open(self, name)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def wrap(
        self,
        fn: Callable,
        name: Any,
        after: Optional[Callable[[Any], None]] = None,
    ) -> Callable:
        """Return ``fn`` recording one span per call.

        ``name`` is a string or a function of the call's arguments;
        ``after`` sees each return value (for counters).
        """
        naming = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            label = naming(*args, **kwargs) if naming else name
            with self.span(label):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        return traced


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(
                (span.start, span.end)
            )
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out


@contextmanager
def patched(owner: Any, attr: str, replacement: Any) -> Iterator[None]:
    """Set ``owner.attr`` for the duration of the block, then restore it.

    On a class, only an attribute defined on that class itself may be
    patched, so restoring can never leave a shadowing copy behind.
    """
    if isinstance(owner, type):
        if attr not in vars(owner):
            raise AttributeError(
                f"{owner.__name__}.{attr} is inherited; patch the class "
                "that defines it"
            )
        original = vars(owner)[attr]
    else:
        original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextmanager
def registry_patched(
    registry: Any, name: str, wrap: Callable
) -> Iterator[None]:
    """Replace one registry entry by ``wrap(entry)``, then restore it."""
    original = registry.get(name)
    registry.register(name, wrap(original), override=True)
    try:
        yield
    finally:
        registry.register(name, original, override=True)


def write_traces(tracer: Tracer, stem: Path) -> Tuple[Path, Path]:
    """Write ``<stem>.spans.json`` and ``<stem>.chrome.json``."""
    stem.parent.mkdir(parents=True, exist_ok=True)
    plain = stem.with_name(stem.name + ".spans.json")
    chrome = stem.with_name(stem.name + ".chrome.json")
    with open(plain, "w", encoding="utf-8") as handle:
        json.dump({
            "spans": [asdict(span) for span in tracer.spans],
            "counts": dict(tracer.counts),
        }, handle)
    origin = min((span.start for span in tracer.spans), default=0.0)
    events = [{
        "name": span.name,
        "ph": "X",
        "ts": (span.start - origin) * 1e6,
        "dur": (span.end - span.start) * 1e6,
        "pid": 1,
        "tid": span.episode,
        "args": {"index": index, "parent": span.parent, "slot": span.slot},
    } for index, span in enumerate(tracer.spans)]
    with open(chrome, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return plain, chrome
