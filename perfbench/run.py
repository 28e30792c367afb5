"""The repo benchmark: one command, three workloads, every metric.

From the repository root::

    python3 perfbench/run.py --workload study-paper-cold --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics (no spans anywhere);
``--trace 1`` is a separate run that reports the per-layer metrics from
spans around each layer's public functions plus the program's own
counters.  The last line of standard output is the result as one JSON
object (``correct``, ``attempted``, ``failed``, ``metrics``); the lines
before it print every metric by name with its unit, and the run's
provenance (machine fingerprint, seed, sample counts, checks).

Workloads, metrics and the layer map are described in
``perfbench/README.md`` and ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

import helpers

END_TO_END = {
    "setup_s": "s",
    "cpu_ms_per_cell": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "study_vec.capture_s": "s",
    **{f"study_vec.capture_s.{app}": "s" for app in helpers.COLD_APPS},
    "study_vec.captures": "count",
    "study_vec.events": "count",
    **{f"study_vec.events.{app}": "count" for app in helpers.COLD_APPS},
    "study_vec.atoms": "count",
    "study_vec.capture_alloc_peak_mb": "MB",
    "study_vec.price_s": "s",
    "study_vec.cells_priced": "count",
    "timing_vec.s": "s",
    "timing_vec.atoms_priced": "count",
    "memo.kernel_hits": "count",
    "memo.kernel_misses": "count",
    "memo.plan_hits": "count",
    "memo.plan_misses": "count",
    "memo.kernel_entries": "count",
    "exec.s": "s",
    "study.assemble_s": "s",
    "protocol.parse_us": "us",
    "protocol.respond_us": "us",
    "batcher.batch_wait_ms": "ms",
    "batcher.queue_wait_ms": "ms",
    "batcher.batch_size.mean": "count",
    "batcher.cache_hit_ratio": "ratio",
    "batcher.cache_lookups": "count",
    "batcher.columnar_specs": "count",
    "batcher.engine_runs": "count",
    "server.engine_ms": "ms",
    "server.serialize_ms": "ms",
    "server.requests": "count",
    "server.shed": "count",
    "tracing.overhead_share": "ratio",
    "store.put_s": "s",
    "store.writes": "count",
    "store.bytes_per_entry": "bytes",
    "store.lookups": "count",
    "gen.lag_p99_ms": "ms",
    "gen.sent": "count",
    "gen.failed": "count",
    "bench.trace_overhead_share": "ratio",
}


class Context:
    """What a workload needs: its inputs, a scratch directory inside the
    checkout, the child environment, and places to put provenance."""

    def __init__(self, root: Path, args: argparse.Namespace) -> None:
        self.root = root
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.work = root / ".perfbench_work" / str(os.getpid())
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.env["PYTHONUNBUFFERED"] = "1"
        self.details: dict = {}
        self.notes: list[str] = []
        self.processes: list = []
        # On two or more CPUs the generator (this process) and the
        # program under test each get a CPU of their own: unpinned, the
        # scheduler moves them onto one CPU now and then, which swung
        # one-second throughput by a third on a shared two-core machine.
        cpus = sorted(os.sched_getaffinity(0))
        self.generator_cpus = set(cpus[:1]) if len(cpus) > 1 else set(cpus)
        self.program_cpus = set(cpus[-1:]) if len(cpus) > 1 else set(cpus)

    def pin_program(self) -> None:
        """``preexec_fn`` of every spawned program process."""
        os.sched_setaffinity(0, self.program_cpus)

    def note(self, text: str) -> None:
        self.notes.append(text)
        print(f"note: {text}", file=sys.stderr)


def _workloads() -> dict:
    import workload_serve
    import workload_study

    return {
        "study-paper-cold": workload_study.run,
        "serve-predict-warm": workload_serve.predict_warm,
        "serve-batch-cold": workload_serve.batch_cold,
    }


WORKLOAD_NAMES = ("study-paper-cold", "serve-predict-warm", "serve-batch-cold")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the repository root (no src/repro here)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import numpy

    ctx = Context(root, args)
    fingerprint = helpers.fingerprint(root, args.seed, numpy.__version__)
    os.sched_setaffinity(0, ctx.generator_cpus)
    ctx.work.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    try:
        outcome = _workloads()[args.workload](ctx)
    finally:
        for process in ctx.processes:
            process.stop()
        shutil.rmtree(ctx.work, ignore_errors=True)
        try:
            ctx.work.parent.rmdir()
        except OSError:
            pass

    units = PER_LAYER if ctx.trace else END_TO_END
    measured = outcome["metrics"]
    missing = [name for name in END_TO_END if name not in measured] if not ctx.trace else []
    metrics = {
        name: {"value": float(measured.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    correct = outcome["failed"] == 0 and not missing and not ctx.notes
    provenance = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": ctx.seconds,
        "run_wall_s": time.monotonic() - started,
        "fingerprint": fingerprint,
        "affinity": {
            "generator": sorted(ctx.generator_cpus), "program": sorted(ctx.program_cpus),
        },
        "error_rate": outcome["failed"] / max(1, outcome["attempted"]),
        "details": ctx.details,
        "notes": ctx.notes,
    }
    print("provenance " + json.dumps(provenance, default=str))
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
