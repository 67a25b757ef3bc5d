"""In-memory spans, a process-tree memory sampler and a Ray Data warning
counter, all kept by the benchmark process itself."""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from contextlib import contextmanager


class Tracer:
    """Spans recorded around calls into the engine. Disabled, ``span`` does
    nothing but yield, so an untraced run pays one generator per call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield attrs
            return
        sid = len(self.spans)
        rec = {"id": sid, "parent": self._stack[-1] if self._stack else None,
               "name": name, "start": time.perf_counter() - self._t0,
               "end": None, "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield attrs
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter() - self._t0

    def self_time(self) -> dict[str, float]:
        """Seconds per span name, minus time covered by child spans."""
        out: dict[str, float] = {}
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        for s, c in zip(self.spans, child):
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - c
        return out

    def write(self, path: str, extra: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({**extra, "self_time_s": self.self_time(),
                       "spans": self.spans}, f, indent=1, default=str)


def _tree_pss_kb(root: int) -> int:
    """Summed Pss (kB) of ``root`` and all its descendants, from
    /proc/<pid>/smaps_rollup. Pss splits each shared page (the object
    store's, shared libraries') among the processes that map it, so the sum
    counts every resident page once, where summed VmRSS counts a shared
    page once per process."""
    children: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(d))
    total, todo = 0, [root]
    while todo:
        pid = todo.pop()
        todo.extend(children.get(pid, ()))
        try:
            with open(f"/proc/{pid}/smaps_rollup") as f:
                for line in f:
                    if line.startswith("Pss:"):
                        total += int(line.split()[1])
                        break
        except OSError:
            continue
    return total


class MemorySampler:
    """Samples the summed Pss of this process tree (the benchmark and the
    Ray processes it started) on a background thread; keeps the peak."""

    def __init__(self, interval: float = 0.5):
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        root = os.getpid()
        while not self._stop.is_set():
            self.peak_kb = max(self.peak_kb, _tree_pss_kb(root))
            self._stop.wait(self.interval)

    def __enter__(self) -> "MemorySampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0


class DriftCounter(logging.Handler):
    """Counts Ray Data's "RefBundle with a different schema" warnings,
    which the streaming executor logs in the process running the
    pipeline (this one)."""

    LOGGER = "ray.data._internal.execution.streaming_executor_state"

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if "RefBundle with a different schema" in record.getMessage():
            self.count += 1

    def __enter__(self) -> "DriftCounter":
        log = logging.getLogger(self.LOGGER)
        if not log.isEnabledFor(logging.WARNING):
            log.setLevel(logging.WARNING)
        log.addHandler(self)
        return self

    def __exit__(self, *exc) -> None:
        logging.getLogger(self.LOGGER).removeHandler(self)
