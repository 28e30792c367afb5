"""Spans around the program's public layer functions, for traced runs.

:func:`install` replaces a module or class attribute with a wrapper
that records ``(name, start, end, parent, request, attrs)`` in memory;
nothing is written until :func:`dump`.  Parents come from a per-thread
stack, so a span's children are the wrapped calls it made; the request
id is the id of the outermost span on that stack, so every span caused
by one entry call shares it.  Times are ``time.perf_counter`` seconds
(``CLOCK_MONOTONIC`` on Linux), comparable across processes on one host.

The program itself is not edited: the benchmark patches attributes in
its own process (the study child) or in its own server launcher.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from pathlib import Path
from typing import Callable

#: name, start, end, parent id, request id, attrs
SPANS: list[list] = []
_LOCAL = threading.local()


def _stack() -> list[int]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


def wrap(name: str, fn: Callable, annotate: Callable | None = None) -> Callable:
    """``fn`` recording one span per call; ``annotate(args, kwargs,
    result)`` may return attrs for the span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = _stack()
        parent = stack[-1] if stack else -1
        index = len(SPANS)
        span = [name, time.perf_counter(), None, parent, stack[0] if stack else index, None]
        SPANS.append(span)
        stack.append(index)
        try:
            result = fn(*args, **kwargs)
            if annotate is not None:
                span[5] = annotate(args, kwargs, result)
            return result
        finally:
            stack.pop()
            span[2] = time.perf_counter()

    return wrapper


def install(owner: object, attr: str, name: str, annotate: Callable | None = None) -> None:
    """Wrap ``owner.attr`` in place (classmethods stay classmethods)."""
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(wrap(name, raw.__func__, annotate)))
    else:
        setattr(owner, attr, wrap(name, getattr(owner, attr), annotate))


def install_engine() -> None:
    """Spans around the columnar engine: capture, per-cell pricing, the
    batched timing calls, and whole-batch pricing."""
    from repro.engine import study_vec

    install(
        study_vec, "capture_program", "study_vec.capture_program",
        lambda a, k, r: {"app": r.app, "events": int(len(r.ev_atom)), "atoms": len(r.atoms)},
    )
    install(study_vec, "price_cell", "study_vec.price_cell")
    install(study_vec, "price_specs", "study_vec.price_specs",
            lambda a, k, r: {"cells": len(r)})
    for attr in ("time_gpu_kernel_batch", "time_cpu_kernel_batch"):
        install(study_vec, attr, f"timing_vec.{attr}", lambda a, k, r: {"atoms": len(r)})


def install_study() -> None:
    """Engine spans plus ``execute_with_engine`` as ``run_study`` calls it."""
    from repro.core import study

    install_engine()
    install(study, "execute_with_engine", "exec.execute_with_engine")
    install(study, "run_study", "core.study.run_study")


def install_serve() -> None:
    """Engine spans plus the serve protocol and the result store."""
    from repro.serve import protocol, store

    install_engine()
    install(protocol.PredictRequest, "from_json", "protocol.parse")
    install(protocol.BatchRequest, "from_json", "protocol.parse")
    install(protocol, "predict_response", "protocol.respond")
    install(protocol, "batch_response", "protocol.respond")
    install(store.ResultStore, "put", "store.put",
            lambda a, k, r: {"written": bool(r)})
    install(store.ResultStore, "get", "store.get")


def dump(path: str | Path, extra: dict | None = None) -> None:
    doc = {"spans": SPANS, **(extra or {})}
    Path(path).write_text(json.dumps(doc))


# -- analysis ------------------------------------------------------------


def _selected(
    spans: list[list], window: tuple[float, float] | None
) -> list[tuple[int, list]]:
    """``(id, span)`` of finished spans, only those that began inside
    ``window`` when one is given.  Ids stay positions in ``spans``."""
    return [
        (index, s) for index, s in enumerate(spans)
        if s[2] is not None and (window is None or window[0] <= s[1] <= window[1])
    ]


def self_times(
    spans: list[list], window: tuple[float, float] | None = None
) -> dict[str, float]:
    """Seconds per span name, minus the time of each span's children."""
    chosen = _selected(spans, window)
    child_time: dict[int, float] = {}
    for _index, s in chosen:
        if s[3] >= 0:
            child_time[s[3]] = child_time.get(s[3], 0.0) + (s[2] - s[1])
    totals: dict[str, float] = {}
    for index, s in chosen:
        own = (s[2] - s[1]) - child_time.get(index, 0.0)
        totals[s[0]] = totals.get(s[0], 0.0) + own
    return totals


def layer_metrics(
    spans: list[list],
    apps: tuple[str, ...],
    window: tuple[float, float] | None = None,
) -> dict[str, float]:
    """Per-layer figures from one process's spans, optionally only the
    spans that began inside ``window``."""
    names = {index: s[0] for index, s in enumerate(spans)}
    chosen = _selected(spans, window)
    spans = [s for _index, s in chosen]

    def total(name: str) -> float:
        return sum(s[2] - s[1] for s in spans if s[0] == name)

    captures = [s for s in spans if s[0] == "study_vec.capture_program"]
    out: dict[str, float] = {
        "study_vec.capture_s": total("study_vec.capture_program"),
        "study_vec.captures": len(captures),
        "study_vec.events": sum((s[5] or {}).get("events", 0) for s in captures),
        "study_vec.atoms": sum((s[5] or {}).get("atoms", 0) for s in captures),
    }
    for app in apps:
        mine = [s for s in captures if (s[5] or {}).get("app") == app]
        out[f"study_vec.capture_s.{app}"] = sum(s[2] - s[1] for s in mine)
        out[f"study_vec.events.{app}"] = sum(s[5]["events"] for s in mine)
    timing = [s for s in spans if s[0].startswith("timing_vec.")]
    out.update({
        "study_vec.price_s": total("study_vec.price_cell"),
        "study_vec.cells_priced": sum(1 for s in spans if s[0] == "study_vec.price_cell"),
        "timing_vec.s": sum(s[2] - s[1] for s in timing),
        "timing_vec.atoms_priced": sum((s[5] or {}).get("atoms", 0) for s in timing),
        "exec.s": total("exec.execute_with_engine"),
    })
    run = total("core.study.run_study")
    out["study.assemble_s"] = max(0.0, run - out["exec.s"]) if run else 0.0
    # Top-level protocol calls only: a batch parse nests one per cell.
    for key, name in (("protocol.parse_us", "protocol.parse"),
                      ("protocol.respond_us", "protocol.respond")):
        top = [s for s in spans if s[0] == name and names.get(s[3]) != name]
        out[key] = 1e6 * sum(s[2] - s[1] for s in top) / len(top) if top else 0.0
    puts = [s for s in spans if s[0] == "store.put"]
    out["store.put_s"] = sum(s[2] - s[1] for s in puts)
    out["store.writes"] = sum(1 for s in puts if (s[5] or {}).get("written"))
    out["store.lookups"] = sum(1 for s in spans if s[0] == "store.get")
    return out
