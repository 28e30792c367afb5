"""One cold paper-scale study in a fresh interpreter.

Run by the ``study-paper-cold`` workload, one process per repetition,
with ``src`` on ``PYTHONPATH``::

    python3 perfbench/study_child.py --apps CoMD,LULESH,... \\
        --platforms dgpu,apu --precisions double,single [--trace] [--alloc]

Prints one JSON object: when the imports finished (``time.monotonic``,
so the parent can time process start to ready) and the CPU time they
took, the study's wall and CPU time, peak RSS, the digest of every
entry, and with ``--trace`` the per-layer figures from spans around the
engine's public functions.  ``--alloc``
adds the peak bytes allocated during any one capture (tracemalloc; slow,
so it is a separate repetition).
"""

from __future__ import annotations

import argparse
import json
import time

import numpy  # noqa: F401  (part of the set-up being timed)
from repro.apps import ALL_APPS
from repro.core import study
from repro.engine import memo

READY = time.monotonic()
READY_CPU = time.process_time()

import helpers  # noqa: E402  (after the timed imports)
import layer_spans  # noqa: E402


def _alloc_probe() -> list[float]:
    """Track the tracemalloc peak inside every capture, in MB."""
    import tracemalloc

    from repro.engine import study_vec

    peaks: list[float] = []
    capture = study_vec.capture_program

    def probed(spec):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return capture(spec)
        finally:
            peaks.append((tracemalloc.get_traced_memory()[1] - before) / 2**20)

    study_vec.capture_program = probed
    tracemalloc.start()
    return peaks


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--apps", required=True)
    parser.add_argument("--platforms", required=True)
    parser.add_argument("--precisions", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--alloc", action="store_true")
    args = parser.parse_args()

    by_name = {app.name: app for app in ALL_APPS}
    apps = tuple(by_name[name] for name in args.apps.split(","))
    precisions = tuple(
        next(p for p in study.Precision if p.value == value)
        for value in args.precisions.split(",")
    )
    if args.trace:
        layer_spans.install_study()
    peaks = _alloc_probe() if args.alloc else None

    started = time.perf_counter()
    started_cpu = time.process_time()
    result = study.run_study(
        apps,
        platforms=tuple(args.platforms.split(",")),
        precisions=precisions,
        paper_scale=True,
        engine="vector",
        max_workers=1,
    )
    wall = time.perf_counter() - started
    cpu = time.process_time() - started_cpu

    rows = [
        {
            "app": e.app, "model": e.model, "platform_key": e.platform_key,
            "precision": e.precision.value, "seconds": e.seconds,
            "kernel_seconds": e.kernel_seconds,
            "baseline_seconds": e.baseline_seconds, "joules": e.joules,
        }
        for e in result.entries
    ]
    doc = {
        "ready_monotonic": READY,
        "setup_cpu_s": READY_CPU,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": helpers.vm_hwm_mb(),
        "entries": len(rows),
        "complete": result.complete,
        "digest": helpers.study_digest(rows),
    }
    if args.trace:
        kernel = memo.KERNEL_CACHE.snapshot()
        plan = memo.PLAN_CACHE.snapshot()
        doc["layers"] = layer_spans.layer_metrics(
            layer_spans.SPANS, tuple(app.name for app in ALL_APPS)
        )
        doc["layers"].update({
            "memo.kernel_hits": kernel.hits,
            "memo.kernel_misses": kernel.misses,
            "memo.plan_hits": plan.hits,
            "memo.plan_misses": plan.misses,
            "memo.kernel_entries": len(memo.KERNEL_CACHE),
        })
        doc["self_s"] = layer_spans.self_times(layer_spans.SPANS)
    if peaks is not None:
        doc["capture_alloc_peak_mb"] = max(peaks, default=0.0)
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
