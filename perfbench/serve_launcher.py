"""The benchmark's own server launcher, for traced runs.

Untraced serve runs spawn ``python -m repro.cli serve`` itself.  Runs
that need what the CLI does not offer start the same
:class:`repro.serve.Server` here, with the CLI's defaults::

    python3 perfbench/serve_launcher.py [--store DIR] [--no-tracing] [--spans OUT]

``--no-tracing`` serves with ``ServeConfig(tracing=False)`` (the
tracing-overhead pair).  ``--spans OUT`` wraps the engine, protocol and
store functions in spans (:mod:`layer_spans`), records a memo-counter
snapshot on each ``SIGUSR1``, and writes everything to ``OUT`` after the
``SIGTERM`` drain.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import time

from repro.engine import memo
from repro.serve import ServeConfig, Server

import layer_spans


def memo_snapshot() -> dict:
    kernel = memo.KERNEL_CACHE.snapshot()
    plan = memo.PLAN_CACHE.snapshot()
    return {
        "t": time.perf_counter(),
        "memo.kernel_hits": kernel.hits,
        "memo.kernel_misses": kernel.misses,
        "memo.plan_hits": plan.hits,
        "memo.plan_misses": plan.misses,
        "memo.kernel_entries": len(memo.KERNEL_CACHE),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--store", default=None)
    parser.add_argument("--no-tracing", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    if args.spans:
        layer_spans.install_serve()
    config = ServeConfig(port=0, store_path=args.store, tracing=not args.no_tracing)
    snapshots: list[dict] = []

    async def serve() -> None:
        server = Server(config)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        loop.add_signal_handler(signal.SIGUSR1, lambda: snapshots.append(memo_snapshot()))
        await server.start()
        print(f"serving on {server.url}", flush=True)
        await stop.wait()
        await server.shutdown()

    asyncio.run(serve())
    if args.spans:
        layer_spans.dump(args.spans, {"memo": snapshots})


if __name__ == "__main__":
    main()
