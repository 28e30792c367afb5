"""Tests of the benchmark's own helpers (no program needed).

From the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import socket
import threading
from pathlib import Path

import pytest

import helpers
import httpgen
import layer_spans


# -- the percentile rule -------------------------------------------------


def test_nearest_rank_picks_an_observed_sample():
    samples = list(range(1, 101))  # 1..100
    assert helpers.percentile(samples, 50) == 50
    assert helpers.percentile(samples, 99) == 99
    assert helpers.percentile(samples, 100) == 100
    assert helpers.percentile([7.0], 99) == 7.0


@pytest.mark.parametrize(
    "n, q, beyond",
    [(1000, 99.0, 10), (999, 99.0, 9), (200, 95.0, 10), (199, 95.0, 9), (100, 90.0, 10)],
)
def test_samples_beyond_a_percentile(n, q, beyond):
    assert helpers.beyond(n, q) == beyond


@pytest.mark.parametrize(
    "n, expected",
    [(10000, 99.9), (9999, 99.0), (1000, 99.0), (999, 95.0), (200, 95.0),
     (199, 90.0), (100, 90.0), (99, 75.0), (20, 50.0), (19, None), (3, None)],
)
def test_highest_percentile_keeps_ten_beyond(n, expected):
    assert helpers.highest_supported(n) == expected


def test_summarize_flags_an_unsupported_tail():
    summary = helpers.summarize([float(i) for i in range(150)], 95.0)
    assert summary["n"] == 150
    assert summary["tail_beyond"] == 7
    assert summary["tail_supported"] is False
    assert summary["highest_supported_q"] == 90.0
    supported = helpers.summarize([float(i) for i in range(400)], 95.0)
    assert supported["tail_supported"] is True


def test_chunk_spans_times_whole_jobs_only():
    done = [3.0, 1.0, 2.0, 4.0, 6.0]
    assert helpers.chunk_spans(done, 0.0, 2) == [2.0, 2.0]


def test_window_rates_count_whole_windows_only():
    done = [0.1, 0.2, 0.7, 1.2, 1.9, 2.5]
    assert helpers.window_rates(done, 0.0, 2.6, 1.0) == [3.0, 2.0]
    assert helpers.window_rates(done, 0.0, 0.5, 1.0) == []


# -- the output digest ---------------------------------------------------


def _row(**overrides):
    row = {
        "app": "CoMD", "model": "OpenCL", "platform_key": "dgpu", "precision": "single",
        "seconds": 0.1, "kernel_seconds": 0.05, "baseline_seconds": 0.3, "joules": 12.5,
    }
    row.update(overrides)
    return row


def test_digest_ignores_entry_order():
    a, b = _row(), _row(model="OpenACC", seconds=0.2)
    assert helpers.study_digest([a, b]) == helpers.study_digest([b, a])


@pytest.mark.parametrize("field", helpers.DIGEST_FLOATS)
def test_digest_sees_a_one_ulp_change_in_every_float(field):
    import math

    base = _row()
    nudged = _row(**{field: math.nextafter(base[field], math.inf)})
    assert helpers.study_digest([base]) != helpers.study_digest([nudged])


@pytest.mark.parametrize("field", helpers.DIGEST_KEYS)
def test_digest_sees_every_key_field(field):
    assert helpers.study_digest([_row()]) != helpers.study_digest([_row(**{field: "x"})])


def test_committed_reference_digest_matches_its_lines():
    doc = json.loads((Path(helpers.__file__).parent / "reference_study.json").read_text())
    assert len(doc["lines"]) == doc["entries"] == 60
    assert hashlib.sha256("\n".join(doc["lines"]).encode()).hexdigest() == doc["digest"]


# -- seeded cell generation ----------------------------------------------

CORE, MEMORY = (200.0, 1050.0), (480.0, 1500.0)


def test_same_seed_same_cells():
    one = helpers.ColdCells(7, CORE, MEMORY)
    two = helpers.ColdCells(7, CORE, MEMORY)
    assert [one.batch(k) for k in range(20)] == [two.batch(k) for k in range(20)]
    assert helpers.ColdCells(8, CORE, MEMORY).batch(0) != one.batch(0)


def test_batch_depends_only_on_seed_and_index():
    ordered = helpers.ColdCells(3, CORE, MEMORY)
    expected = [ordered.batch(k) for k in range(6)]
    jumped = helpers.ColdCells(3, CORE, MEMORY)
    assert jumped.batch(5) == expected[5]
    assert [jumped.batch(k) for k in range(6)] == expected


def test_cold_mix_has_no_duplicates_and_valid_clocks():
    cells = helpers.ColdCells(1, CORE, MEMORY)
    seen = set()
    for k in range(300):
        batch = cells.batch(k)
        assert len(batch) == 32
        for cell in batch:
            key = helpers.cell_key(cell)
            assert key not in seen
            seen.add(key)
            assert isinstance(cell["core_mhz"], int) and isinstance(cell["memory_mhz"], int)
            assert CORE[0] <= cell["core_mhz"] <= CORE[1]
            assert MEMORY[0] <= cell["memory_mhz"] <= MEMORY[1]
            assert cell["platform"] == "dgpu"
            assert cell["app"] in helpers.COLD_APPS
            assert cell["model"] in helpers.COLD_MODELS
            assert cell["precision"] in helpers.COLD_PRECISIONS
    assert len(seen) == 300 * 32


def test_cold_mix_is_the_same_for_every_seed():
    def mix(seed):
        cells = helpers.ColdCells(seed, CORE, MEMORY)
        return [(c["app"], c["model"], c["precision"]) for k in range(15) for c in cells.batch(k)]

    assert mix(1) == mix(2)
    assert set(mix(1)) == set(helpers.ColdCells.COMBOS)
    assert len(helpers.ColdCells.COMBOS) == 30


def test_seeded_permutation_is_stable():
    items = list(range(50))
    assert helpers.seeded_permutation(4, items, "x") == helpers.seeded_permutation(4, items, "x")
    assert sorted(helpers.seeded_permutation(4, items, "x")) == items
    assert helpers.seeded_permutation(4, items, "x") != helpers.seeded_permutation(5, items, "x")


# -- failure counting ----------------------------------------------------


class _Server:
    """A loopback server answering each request with ``reply(n)``
    (``None`` drops the connection instead)."""

    def __init__(self, reply):
        self.reply = reply
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        self.count = 0
        self._stop = False
        threading.Thread(target=self._accept, daemon=True).start()

    @property
    def url(self):
        return f"http://127.0.0.1:{self.port}"

    def _accept(self):
        while not self._stop:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn):
        buf = b""
        with conn:
            while True:
                while b"\r\n\r\n" not in buf:
                    chunk = conn.recv(65536)
                    if not chunk:
                        return
                    buf += chunk
                head, _, rest = buf.partition(b"\r\n\r\n")
                length = 0
                for line in head.split(b"\r\n")[1:]:
                    name, _, value = line.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                while len(rest) < length:
                    rest += conn.recv(65536)
                buf = rest[length:]
                self.count += 1
                answer = self.reply(self.count)
                if answer is None:
                    return  # drop the connection mid-exchange
                status, body = answer
                conn.sendall(
                    f"HTTP/1.1 {status} X\r\nContent-Length: {len(body)}\r\n"
                    "Connection: keep-alive\r\n\r\n".encode() + body
                )

    def close(self):
        self._stop = True
        self.sock.close()


def _job(url):
    payload = httpgen.encode("127.0.0.1", "POST", "/x", b"{}")
    return lambda _c, _j: (payload, lambda status, body: status == 200 and body == b"ok")


def test_dropped_connections_count_as_failed():
    server = _Server(lambda n: None if n % 2 else (200, b"ok"))
    try:
        result = httpgen.closed_loop(server.url, 2, 0.3, _job(server.url))
    finally:
        server.close()
    assert result.attempted > 4
    assert 0 < result.failed < result.attempted
    assert result.failed == result.attempted - len(result.ok)


def test_refused_connections_count_as_failed():
    probe = socket.create_server(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    result = httpgen.closed_loop(f"http://127.0.0.1:{port}", 2, 0.1, _job(""))
    assert result.attempted > 0 and result.failed == result.attempted


def test_bad_status_and_wrong_body_count_as_failed():
    server = _Server(lambda n: (500, b"ok") if n % 3 == 0 else (200, b"ok" if n % 3 == 1 else b"no"))
    try:
        result = httpgen.closed_loop(server.url, 1, 0.3, _job(server.url))
    finally:
        server.close()
    assert result.attempted >= 3
    ok = sum(1 for s in result.samples if s.index % 3 == 0)
    assert len(result.ok) == ok
    assert result.failed == result.attempted - ok


def test_open_loop_sends_its_schedule_and_times_from_due():
    server = _Server(lambda n: (200, b"ok"))
    try:
        result = httpgen.open_loop(server.url, 2, 200.0, 0.5, lambda i: _job("")(0, i))
    finally:
        server.close()
    assert result.attempted == 100 and result.failed == 0
    assert sorted(s.index for s in result.samples) == list(range(100))
    for s in result.samples:
        assert s.due == pytest.approx(result.started + s.index / 200.0)
        assert s.sent >= s.due and s.done >= s.sent


def test_closed_loop_stops_when_the_job_runs_out():
    server = _Server(lambda n: (200, b"ok"))
    payload = httpgen.encode("127.0.0.1", "POST", "/x", b"{}")
    try:
        result = httpgen.closed_loop(
            server.url, 2, 30.0,
            lambda c, j: (payload, lambda st, b: st == 200) if j < 5 else None,
        )
    finally:
        server.close()
    assert result.attempted == 10 and result.failed == 0
    assert sorted((s.client, s.index) for s in result.samples) == [
        (c, j) for c in range(2) for j in range(5)
    ]


def test_pipelined_closed_loop_keeps_depth_in_flight_and_counts_drops():
    server = _Server(lambda n: None if n == 7 else (200, b"ok"))
    try:
        result = httpgen.closed_loop(server.url, 1, 0.3, _job(server.url), depth=4)
    finally:
        server.close()
    # The seventh request's connection drops with up to three more in
    # flight behind it: all of them fail; every other answer is fine.
    assert 1 <= result.failed <= 4
    assert len(result.ok) == result.attempted - result.failed > 10
    assert sorted(s.index for s in result.samples) == list(range(result.attempted))


# -- Prometheus text -----------------------------------------------------


def test_parse_prometheus_sums_matching_series():
    text = "\n".join([
        "# HELP repro_x_total x",
        'repro_x_total{route="predict",status="200"} 5',
        'repro_x_total{route="batch",status="200"} 2',
        'repro_h_seconds_sum{segment="engine"} 0.5 # {trace_id="ab"} 0.1 1.0',
        "repro_plain 3.5",
    ])
    samples = helpers.parse_prometheus(text)
    assert helpers.metric_total(samples, "repro_x_total") == 7
    assert helpers.metric_total(samples, "repro_x_total", route="batch") == 2
    assert helpers.metric_total(samples, "repro_h_seconds_sum", segment="engine") == 0.5
    assert helpers.metric_total(samples, "repro_plain") == 3.5
    assert helpers.metric_total(samples, "repro_missing") == 0


# -- spans ---------------------------------------------------------------


def test_spans_nest_and_self_time_subtracts_children(monkeypatch):
    monkeypatch.setattr(layer_spans, "SPANS", [])

    class Owner:
        @classmethod
        def parse(cls, value):
            return value

        @staticmethod
        def outer(x):
            return Owner.parse(x) + Owner.parse(x)

    layer_spans.install(Owner, "parse", "inner")
    layer_spans.install(Owner, "outer", "outer")
    assert Owner.outer(2) == 4
    spans = layer_spans.SPANS
    assert [s[0] for s in spans] == ["outer", "inner", "inner"]
    assert spans[1][3] == spans[2][3] == 0  # parent
    assert {s[4] for s in spans} == {0}  # one request id
    totals = layer_spans.self_times(spans)
    outer = spans[0][2] - spans[0][1]
    inner = sum(s[2] - s[1] for s in spans[1:])
    assert totals["outer"] == pytest.approx(outer - inner)
    assert totals["inner"] == pytest.approx(inner)


def test_layer_metrics_window_and_top_level_protocol_calls():
    spans = [
        ["protocol.parse", 1.0, 1.4, -1, 0, None],
        ["protocol.parse", 1.1, 1.2, 0, 0, None],  # nested: not a request
        ["study_vec.capture_program", 2.0, 3.0, -1, 2, {"app": "CoMD", "events": 5, "atoms": 2}],
        ["study_vec.capture_program", 9.0, 9.5, -1, 3, {"app": "CoMD", "events": 7, "atoms": 1}],
        ["store.put", 2.5, 2.75, -1, 4, {"written": True}],
    ]
    out = layer_spans.layer_metrics(spans, ("CoMD",), window=(0.0, 5.0))
    assert out["protocol.parse_us"] == pytest.approx(0.4e6)
    assert out["study_vec.captures"] == 1
    assert out["study_vec.events.CoMD"] == 5
    assert out["study_vec.capture_s.CoMD"] == pytest.approx(1.0)
    assert out["store.put_s"] == pytest.approx(0.25)
    assert out["store.writes"] == 1
    assert layer_spans.layer_metrics(spans, ("CoMD",))["study_vec.captures"] == 2
