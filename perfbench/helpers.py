"""Pure helpers of the repo benchmark: statistics, digests, seeded
inputs and the run fingerprint.

Nothing here imports ``repro``; the workloads pass in whatever program
facts (device clock ranges, preset cells) the helpers need, so the
helpers can be unit-tested without the program.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from typing import Iterable, Sequence

#: Percentiles the tail rule may pick from, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: The tail rule: a percentile is reported only if at least this many
#: samples lie beyond it.
MIN_BEYOND = 10


# -- statistics ---------------------------------------------------------


def rank(n: int, q: float) -> int:
    """1-based nearest-rank position of percentile ``q`` among ``n``."""
    if n <= 0:
        raise ValueError("no samples")
    # Rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in floats.
    return min(n, max(1, math.ceil(round(q * n / 100.0, 9))))


def beyond(n: int, q: float) -> int:
    """Samples strictly beyond the nearest-rank ``q`` percentile."""
    return n - rank(n, q)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (an observed sample, never interpolated)."""
    ordered = sorted(samples)
    return ordered[rank(len(ordered), q) - 1]


def highest_supported(n: int, ceiling: float = 100.0) -> float | None:
    """The highest ladder percentile, at most ``ceiling``, that keeps
    at least :data:`MIN_BEYOND` samples beyond it; ``None`` if even the
    median does not."""
    for q in PERCENTILE_LADDER:
        if q <= ceiling and beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def summarize(samples: Sequence[float], tail_q: float) -> dict:
    """Median and one fixed tail percentile, with the sample counts
    that back them.  ``tail_supported`` says whether the tail met the
    ten-beyond rule; the workloads fix ``tail_q`` so that it does."""
    n = len(samples)
    return {
        "n": n,
        "p50": percentile(samples, 50.0),
        "tail_q": tail_q,
        "tail": percentile(samples, tail_q),
        "tail_beyond": beyond(n, tail_q),
        "tail_supported": beyond(n, tail_q) >= MIN_BEYOND,
        "highest_supported_q": highest_supported(n),
    }


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def chunk_spans(completions: Sequence[float], start: float, size: int) -> list[float]:
    """Durations of consecutive ``size``-completion jobs.

    ``completions`` are completion times (any order); the first job
    starts at ``start``.  A trailing partial job is dropped.
    """
    ordered = sorted(completions)
    spans = []
    previous = start
    for end_index in range(size - 1, len(ordered), size):
        spans.append(ordered[end_index] - previous)
        previous = ordered[end_index]
    return spans


def window_rates(
    completions: Sequence[float], start: float, end: float, window_s: float
) -> list[float]:
    """Completions per second in each whole ``window_s`` window of
    ``[start, end)``; a trailing partial window is dropped."""
    windows = int((end - start) // window_s)
    counts = [0] * windows
    for t in completions:
        k = int((t - start) // window_s)
        if 0 <= k < windows:
            counts[k] += 1
    return [c / window_s for c in counts]


# -- output digests -----------------------------------------------------

#: Fields of a study entry that the digest covers, floats as hex.
DIGEST_FLOATS = ("seconds", "kernel_seconds", "baseline_seconds", "joules")
DIGEST_KEYS = ("app", "model", "platform_key", "precision")


def entry_line(row: dict) -> str:
    """One entry as an exact text line (floats as ``float.hex``)."""
    return "|".join(
        [str(row[k]) for k in DIGEST_KEYS]
        + [float(row[f]).hex() for f in DIGEST_FLOATS]
    )


def study_digest(rows: Iterable[dict]) -> str:
    """Order-independent sha256 over every entry's exact values."""
    lines = sorted(entry_line(row) for row in rows)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# -- seeded inputs ------------------------------------------------------


def seeded_permutation(seed: int, items: Sequence, salt: str) -> list:
    """``items`` in an order drawn from ``seed`` (stable across runs)."""
    order = list(items)
    random.Random(f"{salt}:{seed}").shuffle(order)
    return order


#: The cold batch mix: dGPU cells of every app under the three
#: compared GPU models in both precisions, with drawn clocks.  (Also
#: the apps of the per-app capture metrics.)
COLD_APPS = ("read-benchmark", "LULESH", "CoMD", "XSBench", "miniFE")
COLD_MODELS = ("OpenCL", "C++ AMP", "OpenACC")
COLD_PRECISIONS = ("single", "double")


class ColdCells:
    """A seeded, never-repeating stream of ``/v1/batch`` cells.

    Cell ``i`` is combination ``i mod 30`` of app × model × precision,
    so every seed sends the same mix (the server's time and memory per
    cell differ by app); the seed draws both clocks, whole MHz inside
    the given legal ranges.  Cells are distinct across the stream, and
    batch ``k`` depends only on the seed and ``k``.  Thread-safe,
    generated on demand.
    """

    COMBOS = tuple(
        (app, model, precision)
        for app in COLD_APPS for model in COLD_MODELS for precision in COLD_PRECISIONS
    )

    def __init__(
        self,
        seed: int,
        core_range: tuple[float, float],
        memory_range: tuple[float, float],
        batch_cells: int = 32,
    ) -> None:
        self.batch_cells = batch_cells
        self._core = (math.ceil(core_range[0]), math.floor(core_range[1]))
        self._memory = (math.ceil(memory_range[0]), math.floor(memory_range[1]))
        self._rng = random.Random(f"cold:{seed}")
        self._seen: set[tuple] = set()
        self._batches: list[list[dict]] = []
        self._count = 0
        self._lock = threading.Lock()

    def _draw(self) -> dict:
        app, model, precision = self.COMBOS[self._count % len(self.COMBOS)]
        self._count += 1
        while True:
            core = self._rng.randint(*self._core)
            memory = self._rng.randint(*self._memory)
            if (app, model, precision, core, memory) not in self._seen:
                self._seen.add((app, model, precision, core, memory))
                return {
                    "app": app, "model": model, "platform": "dgpu",
                    "precision": precision, "core_mhz": core, "memory_mhz": memory,
                }

    def batch(self, k: int) -> list[dict]:
        with self._lock:
            while len(self._batches) <= k:
                self._batches.append([self._draw() for _ in range(self.batch_cells)])
            return self._batches[k]


def cell_key(cell: dict) -> tuple:
    """Hashable identity of a request cell."""
    return tuple(sorted(cell.items()))


# -- fingerprint --------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def source_digest(root: Path) -> str:
    """sha256 over the program's sources (``src/**/*.py``), so a
    result names the code it measured even outside git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def filesystem_type(path: Path) -> str:
    """Type of the mount holding ``path`` (``ext4``, ``tmpfs``, ...)."""
    target = str(Path(path).resolve())
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        point = fields[1]
        inside = target == point or target.startswith(point.rstrip("/") + "/")
        if inside and len(point) > len(best):
            best, kind = point, fields[2]
    return kind


def fingerprint(root: Path, seed: int, numpy_version: str) -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count() or 0
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
        "seed": seed,
        "platform": sys.platform,
    }


def cpu_s(pid: int | str = "self") -> float:
    """CPU seconds a live process's threads have run (``schedstat``,
    nanoseconds; threads that already exited are not counted).

    Unlike wall time this leaves out time the machine's hypervisor gave
    the CPU to other tenants (steal), which on a shared two-core machine
    moved wall-clock throughput by half between identical runs."""
    total = 0
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            total += int((task / "schedstat").read_text().split()[0])
        except (OSError, ValueError, IndexError):
            pass  # the thread ended while we looked
    return total / 1e9


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- Prometheus text ----------------------------------------------------

_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> list[tuple[str, dict, float]]:
    """``(name, labels, value)`` per sample line; exemplars dropped."""
    samples = []
    for line in text.splitlines():
        line = line.split(" # ", 1)[0].strip()
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        name, _, labels = series.partition("{")
        samples.append((name, dict(_LABEL.findall(labels)), float(value)))
    return samples


def metric_total(samples: list[tuple[str, dict, float]], name: str, **labels: str) -> float:
    """Sum of every sample of ``name`` whose labels include ``labels``."""
    return sum(
        value for sample_name, sample_labels, value in samples
        if sample_name == name
        and all(sample_labels.get(k) == v for k, v in labels.items())
    )
