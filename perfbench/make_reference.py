"""Regenerate the study reference with the scalar oracle.

The ``study-paper-cold`` workload checks every entry of its vector-engine
study against ``reference_study.json``, made once by the scalar engine
(the differential oracle) at paper scale.  Regenerate only when the
program's numbers change on purpose; from the repository root::

    PYTHONPATH=src python3 perfbench/make_reference.py

It takes minutes: the scalar engine simulates every port.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.apps import ALL_APPS
from repro.core.study import run_study

import helpers

OUT = Path(__file__).with_name("reference_study.json")


def main() -> None:
    started = time.perf_counter()
    result = run_study(ALL_APPS, paper_scale=True, engine="scalar", max_workers=1)
    rows = [
        {
            "app": e.app, "model": e.model, "platform_key": e.platform_key,
            "precision": e.precision.value, "seconds": e.seconds,
            "kernel_seconds": e.kernel_seconds,
            "baseline_seconds": e.baseline_seconds, "joules": e.joules,
        }
        for e in result.entries
    ]
    if not result.complete:
        raise SystemExit(f"scalar study incomplete: {result.failures}")
    doc = {
        "engine": "scalar",
        "paper_scale": True,
        "entries": len(rows),
        "digest": helpers.study_digest(rows),
        "lines": sorted(helpers.entry_line(row) for row in rows),
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {OUT} ({len(rows)} entries, {time.perf_counter() - started:.1f} s)")


if __name__ == "__main__":
    main()
