"""In-memory spans around module-level functions, installed from outside.

The tracer replaces a function at every module attribute that holds it
(``gaugecool.dynamics.trotter_step`` and the name ``cli`` imported from it),
so calls between the program's modules nest: a ``cool_vertex`` span opened
inside ``cooling_sweep`` records that span as its parent.  Spans stay in
memory until the caller writes them out; ``restore`` puts every replaced
attribute back.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from types import ModuleType
from typing import Callable, Iterable


class Tracer:
    """Records (id, name, start, end, parent, step) for each call it wraps.

    ``step`` is the id shared by the spans of one Trotter step: it advances
    when a span opened with ``new_step=True`` starts, and set-up spans that
    come before the first step carry step 0.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.step = 0
        self._open: list[int] = []
        self._patches: list[tuple[ModuleType, str, object]] = []

    @contextmanager
    def span(self, name: str, new_step: bool = False):
        if new_step:
            self.step += 1
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "step": self.step,
            "start": self.clock(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = self.clock()
            self._open.pop()

    def wrap(
        self,
        modules: Iterable[ModuleType],
        owner: ModuleType,
        attr: str,
        name: str | Callable[..., str],
        new_step: bool = False,
        annotate: Callable[[object], dict] | None = None,
    ) -> None:
        """Replace ``owner.attr`` wherever one of ``modules`` binds it.

        ``name`` is the span name, or a function of the call's arguments that
        returns it.  ``annotate`` maps the return value to extra span fields.
        """
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label, new_step) as rec:
                result = original(*args, **kwargs)
                if annotate is not None:
                    rec.update(annotate(result))
                return result

        for module in modules:
            for key in [k for k, v in vars(module).items() if v is original]:
                self._patches.append((module, key, original))
                setattr(module, key, traced)

    def restore(self) -> None:
        """Put back every attribute ``wrap`` replaced, newest first."""
        while self._patches:
            module, key, original = self._patches.pop()
            setattr(module, key, original)


def self_times(spans: Iterable[dict]) -> dict[str, tuple[float, int]]:
    """Per span name: (total self seconds, calls).

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    """
    spans = list(spans)
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    totals: dict[str, tuple[float, int]] = {}
    for s in spans:
        own = s["end"] - s["start"] - child[s["id"]]
        seconds, calls = totals.get(s["name"], (0.0, 0))
        totals[s["name"]] = (seconds + own, calls + 1)
    return totals
