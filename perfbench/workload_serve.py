"""``serve-predict-warm`` and ``serve-batch-cold``: a spawned server
driven over HTTP by one generator process with two connections.

Untraced runs spawn ``python -m repro.cli serve`` at its defaults.
Traced runs start the same server through :mod:`serve_launcher`, which
records spans around the engine, protocol and store functions.
"""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import helpers
import httpgen
import layer_spans

HERE = Path(__file__).resolve().parent

#: Server spawns per run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Connections of every loop (the box has two cores: server + generator).
CLIENTS = 2
#: Share of ``--seconds`` given to the predict closed loop; the open loop
#: gets the rest.  Throughput is the median of one-second windows.
CLOSED_SHARE = 0.6
#: Requests in flight per connection in the predict closed loop.  With
#: one, the server idles while each answer travels back and the next
#: request arrives, so "capacity" measured wake-up latency between two
#: processes: it swung by a quarter from second to second on a shared
#: machine.  Eight keep the server busy, so it measures the server.
PIPELINE_DEPTH = 8
RATE_WINDOW_S = 1.0
#: Fixed open-loop rate for ``serve-predict-warm``: about a sixth of the
#: closed-loop capacity measured when the benchmark was written, and
#: under half of the lowest capacity seen while other tenants slowed the
#: machine.  (800/s, nearer 40%, queued into 50 ms medians then.)
OPEN_RATE = 400.0
#: Tail percentiles recorded per workload, fixed so a faster server does
#: not change which percentile is reported: p99 overall and per window of
#: ``OPEN_WINDOW_S`` (1000 requests, 10 beyond) on the open loop, p90 of
#: the cold batches (hundreds of requests).
PREDICT_TAIL_Q = 99.0
OPEN_WINDOW_S = 2.5
BATCH_TAIL_Q = 90.0
BATCH_CELLS = 32
#: ``wall_s`` job of the cold workload: 256 fresh cells.
JOB_CELLS = 256
#: The cold window sends a fixed ``COLD_BATCHES_PER_S × --seconds``
#: batches (stopping early only at ``--seconds``): the server's memory
#: grows with the cells it holds, so equal work keeps ``peak_rss_mb``
#: comparable.  The rate is about half the one measured when the
#: benchmark was written, so the count, not the clock, ends a run.
COLD_BATCHES_PER_S = 20.0
#: Cold cells re-priced in-process after the window.
CHECK_SAMPLE = 256
#: Traced runs measure several servers; each window gets this share of
#: ``--seconds`` so a traced run stays within a minute or so.
TRACED_SHARE = 0.5
#: Rounds of the tracing on/off pair, and seconds per leg.
PAIR_ROUNDS = 3
PAIR_LEG_S = 2.0


class ServerProcess:
    """A spawned server, ready when ``/readyz`` answers 200."""

    def __init__(self, ctx, argv: list[str], name: str) -> None:
        self.ctx, self.argv, self.name = ctx, argv, name
        self.out = ctx.work / f"{name}.out"
        self.err = ctx.work / f"{name}.err"
        self.proc: subprocess.Popen | None = None
        self.url = ""
        #: CPU seconds the server had used when it first answered ready.
        self.ready_cpu_s = 0.0

    def start(self) -> float:
        """Spawn and wait until ready; returns spawn-to-ready seconds."""
        spawned = time.monotonic()
        with self.out.open("wb") as out, self.err.open("wb") as err:
            self.proc = subprocess.Popen(
                self.argv, cwd=self.ctx.root, env=self.ctx.env, stdout=out, stderr=err,
                preexec_fn=self.ctx.pin_program,
            )
        self.ctx.processes.append(self)
        deadline = spawned + 120.0
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"{self.name} exited {self.proc.returncode}: "
                    f"{self.err.read_text(errors='replace')[-400:]}"
                )
            if not self.url:
                found = re.search(r"serving on (http://\S+)", self.out.read_text(errors="replace"))
                if found:
                    self.url = found.group(1)
            if self.url:
                try:
                    status, _ = httpgen.fetch(self.url, path="/readyz", timeout_s=5.0)
                except OSError:
                    status = 0
                if status == 200:
                    ready = time.monotonic() - spawned
                    self.ready_cpu_s = helpers.cpu_s(self.proc.pid)
                    return ready
            time.sleep(0.005)
        raise RuntimeError(f"{self.name} not ready within 120 s")

    def metrics(self) -> list:
        status, body = httpgen.fetch(self.url, path="/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return helpers.parse_prometheus(body.decode())

    def cpu_s(self) -> float:
        return helpers.cpu_s(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return helpers.vm_hwm_mb(self.proc.pid)

    def signal(self, sig: int) -> None:
        self.proc.send_signal(sig)

    def stop(self) -> int:
        """SIGTERM drain; killed if it does not end within 60 s."""
        if self.proc is None or self.proc.poll() is not None:
            return self.proc.returncode if self.proc is not None else 0
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait()


def cli_server(ctx, name: str, store: Path | None = None) -> ServerProcess:
    argv = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
    if store is not None:
        argv += ["--store", str(store)]
    return ServerProcess(ctx, argv, name)


def launched_server(
    ctx, name: str, store: Path | None = None, tracing: bool = True,
    spans: Path | None = None,
) -> ServerProcess:
    argv = [sys.executable, str(HERE / "serve_launcher.py")]
    if store is not None:
        argv += ["--store", str(store)]
    if not tracing:
        argv.append("--no-tracing")
    if spans is not None:
        argv += ["--spans", str(spans)]
    return ServerProcess(ctx, argv, name)


def measure_setup(ctx, make) -> tuple[float, ServerProcess]:
    """Spawn ``SETUP_REPS`` servers one after another and keep the last;
    returns the median CPU seconds a server used to get ready (the
    spawn-to-``/readyz`` wall times go to ``provenance``)."""
    walls, cpus = [], []
    for rep in range(SETUP_REPS):
        server = make(rep)
        walls.append(server.start())
        cpus.append(server.ready_cpu_s)
        if rep < SETUP_REPS - 1:
            server.stop()
    ctx.details["setup_wall_s"] = walls
    ctx.details["setup_cpu_s"] = cpus
    return helpers.median(cpus), server


def post(server: ServerProcess, path: str, doc: dict) -> tuple[int, dict | None]:
    status, body = httpgen.fetch(server.url, "POST", path, json.dumps(doc).encode())
    try:
        return status, json.loads(body)
    except ValueError:
        return status, None


def segment_ms(before: list, after: list, segment: str) -> float:
    """Mean milliseconds per observation of one trace segment."""
    name = "repro_serve_segment_seconds"
    total = (helpers.metric_total(after, f"{name}_sum", segment=segment)
             - helpers.metric_total(before, f"{name}_sum", segment=segment))
    count = (helpers.metric_total(after, f"{name}_count", segment=segment)
             - helpers.metric_total(before, f"{name}_count", segment=segment))
    return 1e3 * total / count if count else 0.0


def metric_layers(before: list, after: list) -> dict[str, float]:
    """Per-layer figures from ``/metrics`` deltas over the window."""

    def delta(name: str, **labels: str) -> float:
        return (helpers.metric_total(after, name, **labels)
                - helpers.metric_total(before, name, **labels))

    hits = delta("repro_serve_result_cache_lookups_total", outcome="hit")
    misses = delta("repro_serve_result_cache_lookups_total", outcome="miss")
    batches = delta("repro_serve_batch_size_count")
    return {
        "batcher.batch_wait_ms": segment_ms(before, after, "batch_wait"),
        "batcher.queue_wait_ms": segment_ms(before, after, "queue_wait"),
        "batcher.batch_size.mean": delta("repro_serve_batch_size_sum") / batches if batches else 0.0,
        "batcher.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "batcher.cache_lookups": hits + misses,
        "batcher.columnar_specs": delta("repro_serve_columnar_specs_total"),
        "batcher.engine_runs": delta("repro_serve_engine_runs_total"),
        "server.engine_ms": segment_ms(before, after, "engine"),
        "server.serialize_ms": segment_ms(before, after, "serialize"),
        "server.requests": delta("repro_serve_requests_total", route="predict")
        + delta("repro_serve_requests_total", route="batch"),
        "server.shed": delta("repro_serve_shed_total"),
        "store.writes": delta("repro_store_writes_total"),
        "store.lookups": delta("repro_store_lookups_total"),
    }


def span_layers(dump_path: Path, window: tuple[float, float]) -> dict[str, float]:
    """Span-derived figures of the window, plus memo-counter deltas
    between the launcher's first two ``SIGUSR1`` snapshots."""
    from repro.apps import ALL_APPS

    doc = json.loads(dump_path.read_text())
    out = layer_spans.layer_metrics(
        doc["spans"], tuple(app.name for app in ALL_APPS), window
    )
    for metric in ("store.writes", "store.lookups"):
        out.pop(metric)  # the server's own counters are used instead
    if len(doc["memo"]) >= 2:
        first, last = doc["memo"][0], doc["memo"][-1]
        for key in ("memo.kernel_hits", "memo.kernel_misses", "memo.plan_hits",
                    "memo.plan_misses"):
            out[key] = last[key] - first[key]
        out["memo.kernel_entries"] = last["memo.kernel_entries"]
    return out


def store_bytes_per_entry(store: Path) -> float:
    sizes = [path.stat().st_size for path in (store / "objects").rglob("*.json")]
    return sum(sizes) / len(sizes) if sizes else 0.0


def record_latency(samples: list, tail_q: float, ctx, window_s: float | None = None) -> None:
    """Median latency and a fixed tail percentile, into ``provenance``.

    Open-loop samples are timed from when they were due.  With
    ``window_s`` the tail is also taken per window: on a shared machine
    other tenants stall this one for 10-50 ms several times a minute,
    which moved the open loop's p99 from 1.2 to 24 ms between identical
    runs."""
    def latency(s) -> float:
        return 1e3 * (s.done - s.due)

    summary = helpers.summarize([latency(s) for s in samples], tail_q)
    if window_s is not None:
        start = min(s.due for s in samples)
        windows: dict[int, list[float]] = {}
        for s in samples:
            windows.setdefault(int((s.due - start) // window_s), []).append(latency(s))
        tails = [helpers.summarize(v, tail_q) for _k, v in sorted(windows.items())]
        summary["window_s"] = window_s
        summary["window_p50s"] = [t["p50"] for t in tails]
        summary["window_tails"] = [t["tail"] for t in tails]
    ctx.details["latency"] = summary


def gen_layers(loops: list[httpgen.LoopResult], open_loop: httpgen.LoopResult | None) -> dict:
    out = {
        "gen.sent": sum(loop.attempted for loop in loops),
        "gen.failed": sum(loop.failed for loop in loops),
        "gen.lag_p99_ms": 0.0,
    }
    if open_loop is not None and open_loop.samples:
        lags = [1e3 * (s.sent - s.due) for s in open_loop.samples]
        out["gen.lag_p99_ms"] = helpers.percentile(lags, 99.0)
    return out


# -- serve-predict-warm -------------------------------------------------


class WarmPredict:
    """The 210 preset cells, their request bodies and oracle answers,
    and the answer bytes every timed response must repeat."""

    def __init__(self, ctx) -> None:
        from repro.serve.warmup import preset_specs

        self.specs = preset_specs(("bench",))
        self.cells = [
            {"app": s.app, "model": s.model, "platform": s.platform,
             "precision": s.precision.value}
            for s in self.specs
        ]
        host = "127.0.0.1"
        self.payloads = [
            httpgen.encode(host, "POST", "/v1/predict", json.dumps(cell).encode())
            for cell in self.cells
        ]
        self.order = helpers.seeded_permutation(ctx.seed, range(len(self.cells)), "predict-closed")
        self.open_order = helpers.seeded_permutation(ctx.seed, range(len(self.cells)), "predict-open")
        self.expected_bytes: list[bytes | None] = [None] * len(self.cells)
        self.oracle: list[dict] = []

    def compute_oracle(self) -> None:
        """Each cell's answer priced in this process, the way the server
        prices it: columnar where eligible, else the retry ladder."""
        from repro.core.metrics import speedup
        from repro.engine.study_vec import price_specs, vector_eligible
        from repro.exec.faults import RunError
        from repro.exec.retry import RetryPolicy, run_with_retry

        results = {}
        vector = [s for s in self.specs if vector_eligible(s)]
        for spec, result in zip(vector, price_specs(vector)):
            results[spec.content_key()] = result
        for spec in self.specs:
            if not vector_eligible(spec):
                payload = run_with_retry(spec, RetryPolicy(max_attempts=2))
                if isinstance(payload, RunError):
                    raise RuntimeError(f"oracle failed on {spec.label}")
                results[spec.content_key()] = payload.result
        baselines = {
            (s.app, s.platform, s.precision): results[s.content_key()]
            for s in self.specs if s.model == "OpenMP"
        }
        for spec in self.specs:
            r = results[spec.content_key()]
            base = baselines[(spec.app, spec.platform, spec.precision)].seconds
            self.oracle.append({
                "seconds": r.seconds,
                "kernel_seconds": r.kernel_seconds,
                "baseline_seconds": base,
                "speedup": speedup(base, r.seconds),
                "kernel_speedup": speedup(base, r.kernel_seconds),
                "joules": r.joules,
                "edp": r.joules * r.seconds,
            })

    def check(self, index: int, status: int, body: bytes, warm: bool) -> bool:
        if status != 200:
            return False
        doc = json.loads(body)
        cell = self.cells[index]
        if any(doc["request"][k] != v for k, v in cell.items()):
            return False
        if any(doc[k] != v for k, v in self.oracle[index].items()):
            return False
        return not warm or doc["provenance"] == {"baseline": "cache", "model": "cache"}

    def prime(self, server: ServerProcess) -> bool:
        """Price every cell on the server with one ``/v1/batch``."""
        status, doc = post(server, "/v1/batch", {"cells": self.cells})
        return status == 200 and doc is not None and doc.get("count") == len(self.cells)

    def verify(self, server: ServerProcess, record: bool) -> int:
        """Predict every cell once in seeded order; returns failures."""
        conn = httpgen.Connection("127.0.0.1", int(server.url.rsplit(":", 1)[1]))
        failures = 0
        try:
            for index in self.order:
                try:
                    status, body = conn.request(self.payloads[index])
                    ok = self.check(index, status, body, warm=record)
                except (OSError, ValueError, KeyError):
                    ok, body = False, b""
                if not ok:
                    failures += 1
                elif record:
                    self.expected_bytes[index] = body
        finally:
            conn.close()
        return failures

    def closed_job(self):
        import itertools

        counter = itertools.count()

        def job(_client: int, _j: int):
            index = self.order[next(counter) % len(self.order)]
            expected = self.expected_bytes[index]
            return self.payloads[index], lambda st, body: st == 200 and body == expected

        return job

    def open_job(self):
        def job(i: int):
            index = self.open_order[i % len(self.open_order)]
            expected = self.expected_bytes[index]
            return self.payloads[index], lambda st, body: st == 200 and body == expected

        return job


def _prime_and_verify(ctx, warm: WarmPredict, servers: list[ServerProcess]) -> tuple[int, int]:
    """Prime every server while the oracle is computed here, then verify
    each server's answers.  Returns ``(attempted, failed)``."""
    primed: dict[str, bool] = {}
    threads = [
        threading.Thread(target=lambda s=s: primed.__setitem__(s.name, warm.prime(s)))
        for s in servers
    ]
    for thread in threads:
        thread.start()
    if not warm.oracle:
        warm.compute_oracle()
    for thread in threads:
        thread.join()
    attempted = failed = 0
    for server in servers:
        attempted += 1 + 2 * len(warm.cells)
        failed += 0 if primed.get(server.name, False) else 1
        failed += warm.verify(server, record=False)
        failed += warm.verify(server, record=True)
    return attempted, failed


def predict_warm(ctx) -> dict:
    warm = WarmPredict(ctx)
    if ctx.trace:
        return _predict_traced(ctx, warm)
    setup, server = measure_setup(ctx, lambda rep: cli_server(ctx, f"predict-{rep}"))
    attempted, failed = _prime_and_verify(ctx, warm, [server])
    # Unmeasured warm-up of the request path, then the two loops.
    httpgen.closed_loop(server.url, CLIENTS, 1.0, warm.closed_job(), PIPELINE_DEPTH)
    before = server.metrics()
    cpu_before = server.cpu_s()
    closed = httpgen.closed_loop(
        server.url, CLIENTS, CLOSED_SHARE * ctx.seconds, warm.closed_job(), PIPELINE_DEPTH)
    cpu = server.cpu_s() - cpu_before
    opened = httpgen.open_loop(
        server.url, CLIENTS, OPEN_RATE, (1 - CLOSED_SHARE) * ctx.seconds, warm.open_job())
    after = server.metrics()
    rss = server.peak_rss_mb()
    server.stop()
    ctx.details["checks"] = {
        "window_engine_runs": metric_layers(before, after)["batcher.engine_runs"],
        "open_rate": OPEN_RATE,
        "open_lag_p99_ms": gen_layers([opened], opened)["gen.lag_p99_ms"],
    }
    done = [s.done for s in closed.ok]
    rates = helpers.window_rates(done, closed.started, closed.ended, RATE_WINDOW_S)
    ctx.details["capacity_windows"] = rates
    ctx.details["cells_per_s"] = helpers.median(rates)
    ctx.details["wall_s"] = helpers.median(helpers.chunk_spans(done, closed.started, len(warm.cells)))
    record_latency(opened.samples, PREDICT_TAIL_Q, ctx, OPEN_WINDOW_S)
    return {
        "attempted": attempted + closed.attempted + opened.attempted,
        "failed": failed + closed.failed + opened.failed,
        "metrics": {
            "setup_s": setup,
            "cpu_ms_per_cell": 1e3 * cpu / len(closed.ok),
            "peak_rss_mb": rss,
        },
    }


def _capacity(server: ServerProcess, warm: WarmPredict, seconds: float) -> tuple[float, httpgen.LoopResult]:
    loop = httpgen.closed_loop(server.url, CLIENTS, seconds, warm.closed_job(), PIPELINE_DEPTH)
    return len(loop.ok) / (loop.ended - loop.started), loop


def _predict_traced(ctx, warm: WarmPredict) -> dict:
    spans = ctx.work / "predict-spans.json"
    traced = launched_server(ctx, "predict-traced", spans=spans)
    traced.start()
    attempted, failed = _prime_and_verify(ctx, warm, [traced])
    httpgen.closed_loop(traced.url, CLIENTS, 1.0, warm.closed_job(), PIPELINE_DEPTH)
    before = traced.metrics()
    traced.signal(signal.SIGUSR1)
    seconds = TRACED_SHARE * ctx.seconds
    closed = httpgen.closed_loop(
        traced.url, CLIENTS, CLOSED_SHARE * seconds, warm.closed_job(), PIPELINE_DEPTH)
    opened = httpgen.open_loop(
        traced.url, CLIENTS, OPEN_RATE, (1 - CLOSED_SHARE) * seconds, warm.open_job())
    traced.signal(signal.SIGUSR1)
    after = traced.metrics()
    traced_capacity = len(closed.ok) / (closed.ended - closed.started)
    traced.stop()
    layers = metric_layers(before, after)
    layers.update(span_layers(spans, (closed.started, opened.ended)))
    layers.update(gen_layers([closed, opened], opened))

    # Paired closed loops: server tracing on vs ServeConfig(tracing=False).
    on = launched_server(ctx, "predict-tracing-on")
    off = launched_server(ctx, "predict-tracing-off", tracing=False)
    on.start()
    off.start()
    pair_attempted, pair_failed = _prime_and_verify(ctx, warm, [on, off])
    attempted += pair_attempted
    failed += pair_failed
    capacities: dict[str, list[float]] = {"on": [], "off": []}
    loops = [closed, opened]
    for round_ in range(PAIR_ROUNDS):
        legs = [("on", on), ("off", off)] if round_ % 2 == 0 else [("off", off), ("on", on)]
        for label, server in legs:
            capacity, loop = _capacity(server, warm, PAIR_LEG_S)
            capacities[label].append(capacity)
            loops.append(loop)
    on.stop()
    off.stop()
    on_median = helpers.median(capacities["on"])
    layers["tracing.overhead_share"] = 1.0 - on_median / helpers.median(capacities["off"])
    layers["bench.trace_overhead_share"] = 1.0 - traced_capacity / on_median
    ctx.details["checks"] = {
        "window_captures": layers["study_vec.captures"],
        "window_engine_runs": layers["batcher.engine_runs"],
        "capacity_rps": {"traced": traced_capacity, **capacities},
    }
    return {
        "attempted": attempted + sum(loop.attempted for loop in loops),
        "failed": failed + sum(loop.failed for loop in loops),
        "metrics": layers,
    }


# -- serve-batch-cold ---------------------------------------------------


class ColdBatches:
    """Seeded distinct cells, partitioned across the two clients
    (client ``c`` sends batches ``c, c + 2, c + 4, ...``), with every
    answer kept for the after-window check."""

    def __init__(self, ctx, seconds: float) -> None:
        from repro.hardware.device import platform_for

        self.batches = round(COLD_BATCHES_PER_S * seconds)
        gpu = platform_for("dgpu").gpu
        self.cells = helpers.ColdCells(
            ctx.seed,
            (gpu.core_clock.min_mhz, gpu.core_clock.max_mhz),
            (gpu.memory_clock.min_mhz, gpu.memory_clock.max_mhz),
            BATCH_CELLS,
        )
        self.answers: dict[tuple, tuple[int, dict]] = {}
        self.sent: list[int] = []

    def check(self, k: int, status: int, body: bytes) -> bool:
        if status != 200:
            return False
        doc = json.loads(body)
        cells = self.cells.batch(k)
        if doc["count"] != len(cells):
            return False
        for cell, answer in zip(cells, doc["results"]):
            if any(answer[key] != value for key, value in cell.items()):
                return False
            if answer["provenance"] != "computed":
                return False  # a repeat: the mix is meant to be all cold
            self.answers[helpers.cell_key(cell)] = (k, answer)
        return True

    def job(self, client: int, j: int):
        k = client + CLIENTS * j
        if k >= self.batches:
            return None
        self.sent.append(k)
        body = json.dumps({"cells": self.cells.batch(k)}).encode()
        payload = httpgen.encode("127.0.0.1", "POST", "/v1/batch", body)
        return payload, lambda status, answer: self.check(k, status, answer)

    def verify(self, ctx) -> set[int]:
        """Re-price a seeded sample of answered cells in this process;
        returns the batches holding a mismatch."""
        import random

        from repro.engine.study_vec import price_specs
        from repro.serve.protocol import PredictRequest

        keys = sorted(self.answers)
        sample = random.Random(f"cold-check:{ctx.seed}").sample(
            keys, min(CHECK_SAMPLE, len(keys))
        )
        cells = [dict(key) for key in sample]
        results = price_specs([PredictRequest.from_json(cell).spec() for cell in cells])
        bad = set()
        for key, result in zip(sample, results):
            k, answer = self.answers[key]
            expected = {
                "seconds": result.seconds, "kernel_seconds": result.kernel_seconds,
                "joules": result.joules, "edp": result.joules * result.seconds,
            }
            if any(answer[f] != v for f, v in expected.items()):
                bad.add(k)
        ctx.details["checked_cells"] = len(sample)
        return bad


def _cold_window(ctx, server: ServerProcess, store: Path | None, seconds: float):
    batches = ColdBatches(ctx, seconds)
    before = server.metrics()
    cpu_before = server.cpu_s()
    loop = httpgen.closed_loop(server.url, CLIENTS, seconds, batches.job)
    ctx.details["window_cpu_s"] = server.cpu_s() - cpu_before
    after = server.metrics()
    rss = server.peak_rss_mb()
    failed_batches = {s.index * CLIENTS + s.client for s in loop.samples if not s.ok}
    failed_batches |= batches.verify(ctx)
    layers = metric_layers(before, after)
    sent_cells = BATCH_CELLS * len(batches.sent)
    ctx.details["checks"] = {
        "cells_sent": sent_cells,
        "distinct_cells_answered": len(batches.answers),
        "store_writes": layers["store.writes"],
        "window_engine_runs": layers["batcher.engine_runs"],
    }
    if store is not None:
        ctx.details["checks"]["store_writes_match"] = layers["store.writes"] == sent_cells
        ctx.details["checks"]["store_filesystem"] = helpers.filesystem_type(store)
    return loop, failed_batches, layers, rss


def batch_cold(ctx) -> dict:
    """Untraced runs serve without ``--store``: the only place the
    benchmark may write is the checkout's own disk, where ``fsync``
    latency, set by other tenants, swung cold throughput twofold between
    identical runs.  The traced run adds a store to measure that layer."""
    if ctx.trace:
        return _batch_traced(ctx)
    setup, server = measure_setup(ctx, lambda rep: cli_server(ctx, f"batch-{rep}"))
    loop, failed_batches, _layers, rss = _cold_window(ctx, server, None, ctx.seconds)
    server.stop()
    ok = [s for s in loop.samples if (s.index * CLIENTS + s.client) not in failed_batches]
    done = [s.done for s in ok]
    rates = [BATCH_CELLS * r for r in helpers.window_rates(
        done, loop.started, loop.ended, RATE_WINDOW_S)]
    ctx.details["cells_per_s"] = helpers.median(rates)
    ctx.details["wall_s"] = helpers.median(
        helpers.chunk_spans(done, loop.started, JOB_CELLS // BATCH_CELLS))
    record_latency(ok, BATCH_TAIL_Q, ctx)
    return {
        "attempted": loop.attempted,
        "failed": len(failed_batches),
        "metrics": {
            "setup_s": setup,
            "cpu_ms_per_cell": 1e3 * ctx.details["window_cpu_s"] / (BATCH_CELLS * len(ok)),
            "peak_rss_mb": rss,
        },
    }


def _batch_traced(ctx) -> dict:
    """A traced window through the launcher, then an untraced one of the
    same length for the benchmark's own tracing overhead."""
    spans = ctx.work / "batch-spans.json"
    store = ctx.work / "store-traced"
    traced = launched_server(ctx, "batch-traced", store=store, spans=spans)
    traced.start()
    traced.signal(signal.SIGUSR1)
    seconds = TRACED_SHARE * ctx.seconds
    loop, failed_batches, layers, _rss = _cold_window(ctx, traced, store, seconds)
    traced.signal(signal.SIGUSR1)
    time.sleep(0.1)  # let the launcher take the snapshot before the drain
    traced.stop()
    layers.update(span_layers(spans, (loop.started, loop.ended)))
    layers["store.bytes_per_entry"] = store_bytes_per_entry(store)
    layers.update(gen_layers([loop], None))
    checks = ctx.details["checks"]

    plain_store = ctx.work / "store-plain"
    plain = cli_server(ctx, "batch-plain", store=plain_store)
    plain.start()
    plain_loop, plain_failed, _l, _r = _cold_window(ctx, plain, plain_store, seconds)
    plain.stop()
    ctx.details["checks"] = checks
    rate = lambda lp: len(lp.ok) / (lp.ended - lp.started)  # noqa: E731
    layers["bench.trace_overhead_share"] = 1.0 - rate(loop) / rate(plain_loop)
    engine = {k: layers[k] for k in ("study_vec.capture_s", "study_vec.price_s", "store.put_s")}
    checks["engine_side_s"] = engine
    return {
        "attempted": loop.attempted + plain_loop.attempted,
        "failed": len(failed_batches) + len(plain_failed),
        "metrics": layers,
    }
