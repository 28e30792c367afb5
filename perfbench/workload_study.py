"""``study-paper-cold``: the 80-run paper-scale study, cold, end to end.

Each repetition is a fresh interpreter (:mod:`study_child`) running
``run_study(ALL_APPS, paper_scale=True, engine="vector", max_workers=1)``
with empty memo caches — what ``repro study --paper-scale`` users wait
for.  The seed picks the order of platforms and precisions.  Apps stay
in the paper's order: the study's peak RSS depends on which app runs
while XSBench's capture holds its large arrays (627-1009 MB across app
orders), and a seed must not move a gated metric by that much.
Every repetition's entries must match the scalar oracle's digest in
``reference_study.json``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import helpers

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference_study.json"
PLATFORMS = ("apu", "dgpu")
PRECISIONS = ("single", "double")
#: Runs in the plan: baseline + three models per (app, platform, precision).
RUNS_PER_CELL = 4


def _child_argv(ctx, apps, platforms, precisions, *flags: str) -> list[str]:
    return [
        sys.executable, str(HERE / "study_child.py"),
        "--apps", ",".join(apps), "--platforms", ",".join(platforms),
        "--precisions", ",".join(precisions), *flags,
    ]


def _repetition(ctx, argv: list[str]) -> dict | None:
    """One fresh-process study; ``None`` if the process failed."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            argv, cwd=ctx.root, env=ctx.env, capture_output=True, text=True,
            timeout=170, preexec_fn=ctx.pin_program,
        )
    except subprocess.TimeoutExpired:
        ctx.note("study child timed out")
        return None
    if proc.returncode != 0:
        ctx.note(f"study child exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
        return None
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["setup_s"] = doc["ready_monotonic"] - spawned
    return doc


def run(ctx) -> dict:
    from repro.apps import ALL_APPS

    reference = json.loads(REFERENCE.read_text())
    apps = [app.name for app in ALL_APPS]
    platforms = helpers.seeded_permutation(ctx.seed, PLATFORMS, "study-platforms")
    precisions = helpers.seeded_permutation(ctx.seed, PRECISIONS, "study-precisions")
    cells = len(apps) * len(platforms) * len(precisions) * RUNS_PER_CELL
    ctx.details["order"] = {"apps": apps, "platforms": platforms, "precisions": precisions}

    def correct(doc: dict | None) -> bool:
        return (
            doc is not None and doc["complete"]
            and doc["entries"] == reference["entries"]
            and doc["digest"] == reference["digest"]
        )

    argv = _child_argv(ctx, apps, platforms, precisions)
    if ctx.trace:
        return _traced(ctx, argv, correct)

    reps: list[dict | None] = []
    started = time.monotonic()
    while not reps or time.monotonic() - started < ctx.seconds:
        reps.append(_repetition(ctx, argv))
    good = [doc for doc in reps if correct(doc)]
    failed = len(reps) - len(good)
    if not good:
        return {"attempted": len(reps), "failed": failed, "metrics": {}}
    walls = [doc["wall_s"] for doc in good]
    ctx.details["repetitions"] = [
        {k: doc[k] for k in ("setup_s", "setup_cpu_s", "wall_s", "cpu_s", "peak_rss_mb")}
        for doc in good
    ]
    ctx.details["wall_s"] = helpers.median(walls)
    ctx.details["cells_per_s"] = cells / helpers.median(walls)
    ctx.details["setup_wall_s"] = helpers.median(doc["setup_s"] for doc in good)
    ctx.details["latency"] = {
        "unit": "one whole study", "n": len(walls), "max_ms": 1e3 * max(walls),
        "tail": "none: fewer than 11 samples, so no percentile has ten beyond it",
    }
    return {
        "attempted": len(reps),
        "failed": failed,
        "metrics": {
            "setup_s": helpers.median(doc["setup_cpu_s"] for doc in good),
            "cpu_ms_per_cell": 1e3 * helpers.median(doc["cpu_s"] for doc in good) / cells,
            "peak_rss_mb": helpers.median(doc["peak_rss_mb"] for doc in good),
        },
    }


def _traced(ctx, argv: list[str], correct) -> dict:
    """Untraced, traced and allocation-tracked repetitions, one each."""
    plain = _repetition(ctx, argv)
    traced = _repetition(ctx, argv + ["--trace"])
    alloc = _repetition(ctx, argv + ["--alloc"])
    reps = [plain, traced, alloc]
    failed = sum(1 for doc in reps if not correct(doc))
    if traced is None or not correct(traced):
        return {"attempted": 3, "failed": failed, "metrics": {}}
    layers = dict(traced["layers"])
    layers["study_vec.capture_alloc_peak_mb"] = (
        alloc["capture_alloc_peak_mb"] if alloc is not None else 0.0
    )
    if plain is not None:
        layers["bench.trace_overhead_share"] = traced["wall_s"] / plain["wall_s"] - 1.0
    ctx.details["self_s"] = traced["self_s"]
    ctx.details["checks"] = {
        "capture_share_of_wall": layers["study_vec.capture_s"] / traced["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "untraced_wall_s": plain["wall_s"] if plain is not None else None,
    }
    return {"attempted": 3, "failed": failed, "metrics": layers}
