"""One benchmark run, in the fresh process ``run.py`` starts.

Order of work: generate the inputs and check their digests, fold them
with the reference, then set up (start Ray, warm the engine up) and
measure whole rounds until the run's seconds are spent. Every round
checks the lake it produced. The last line of standard output is the
run's JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
import traceback

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import reference as refm  # noqa: E402
from trace import DriftCounter, MemorySampler, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    LOOKUP_REPEATS, N_LOOKUP_DELETED, N_LOOKUP_PRESENT, N_LOOKUP_UNSEEN,
    NUM_CPUS, RETAIN_SNAPSHOTS, WARMUP, WORKLOADS, Workload)

now = time.perf_counter
median = statistics.median

# The benchmark's own dead-letter rules, matching reference.VALID.
DLQ_RULES = [
    lambda t: pc.is_in(t["op"], value_set=pa.array(["I", "U", "D"])),
    lambda t: pc.and_(pc.is_valid(t["repo"]), pc.is_valid(t["path"])),
    lambda t: pc.or_(pc.equal(t["op"], "D"), pc.is_valid(t["content"])),
]


def storage_files(lake: str) -> dict[str, int]:
    """{path: bytes} of every file of the lake, transient exchange aside."""
    out = {}
    for d, dirs, files in os.walk(lake):
        dirs[:] = [x for x in dirs if x != "_exchange"]
        for f in files:
            p = os.path.join(d, f)
            try:
                out[p] = os.path.getsize(p)
            except FileNotFoundError:
                pass
    return out


class Context:
    """Inputs, reference folds and lookup keys of one workload and seed."""

    def __init__(self, w: Workload, seed: int, work: str):
        self.w, self.seed, self.work = w, seed, work
        fx = os.path.join(work, f"inputs-{w.name}")
        info = inputs.make_inputs(fx, w, seed)
        self.fixture, self.base, self.binlog = fx, info["base"], info["binlog_dir"]
        base, events = refm.load_inputs(fx)
        self.n_rows = events.num_rows
        self.max_lsn = int(pc.max(events["lsn"]).as_py())
        self.ref = refm.Reference(base, events)
        t0 = now()
        self.final = self.ref.fold(self.max_lsn)
        self.fold_s = now() - t0
        self.tt_lsn = min(w.time_travel_epoch * w.epoch_size, self.max_lsn)
        self.final_tt = self.ref.fold(self.tt_lsn)
        self.invalid = self.ref.invalid_lsns()
        self.content = base.column("content")
        rng = np.random.default_rng(seed + 1_000_003)
        live = sorted(zip(self.final["repo"], self.final["path"]))
        gone = sorted(self.ref.seen_keys() - set(live))
        pick = lambda keys, n: [keys[i] for i in sorted(  # noqa: E731
            rng.choice(len(keys), size=min(n, len(keys)), replace=False))]
        self.present = pick(live, N_LOOKUP_PRESENT)
        self.deleted = pick(gone, N_LOOKUP_DELETED)
        self.unseen = [("lakebench/unseen", f"never/{seed}/{i}")
                       for i in range(N_LOOKUP_UNSEEN)]
        self.keys = self.present + self.deleted + self.unseen


def check_inputs(w: Workload, seed: int, ctx: Context, work: str) -> list[str]:
    """Compare input digests with the ones recorded in the README: the
    pinned-seed canary always, the run's own inputs when recorded."""
    rec = inputs.recorded_digests()
    problems = []
    canary = os.path.join(work, f"canary-{w.name}")
    inputs.make_inputs(canary, w, inputs.CANARY_SEED, div=inputs.CANARY_DIV)
    got = inputs.value_digest(canary)
    shutil.rmtree(canary, ignore_errors=True)
    want = rec.get((w.name, "canary"))
    if want != got:
        problems.append(f"canary input digest {got} != recorded {want}")
    want = rec.get((w.name, str(seed)))
    if want is not None and want != inputs.value_digest(ctx.fixture):
        problems.append(f"seed {seed} input digest differs from the README")
    return problems


def to_arrow(ds) -> pa.Table:
    import ray

    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    if not tables:
        return pa.table({})
    return pa.concat_tables(tables, promote_options="permissive")


class Round:
    """One pass of a workload's operations on a fresh lake."""

    def __init__(self, ctx: Context, i: int, tr: Tracer):
        self.ctx, self.w, self.tr = ctx, ctx.w, tr
        self.lake = os.path.join(ctx.work, f"lake-{ctx.w.name}-{i}")
        self.m: dict[str, float] = {}       # end-to-end values
        self.layer: dict[str, float] = {}   # per-layer values (traced only)
        self.problems: list[str] = []
        self.attempted = self.w.calls_per_round
        self.done = 0
        self._listing: dict[str, int] = {}
        self._files_per_epoch: list[float] = []
        self._bytes_per_epoch: list[float] = []
        self._load_s: list[float] = []
        self._probe = {"read_s": 0.0, "read_rows": 0, "read_bytes": 0,
                       "ddl_s": 0.0, "hash_s": 0.0, "dlq_s": 0.0,
                       "dlq_rows": 0, "rows": 0}

    # ---- traced-only probes, around the engine's own modules ------------
    def probe_epoch(self, k: int) -> None:
        from thor_ray.pipelines.cdc import APPLY_COLS
        from thor_ray.sources import binlog as binlog_src
        from thor_ray.stages import chain, smt

        w, tr, p = self.w, self.tr, self._probe
        lo, hi = (k - 1) * w.epoch_size, min(k * w.epoch_size, self.ctx.max_lsn)
        with tr.span("binlog.read_epoch", epoch=k):
            t0 = now()
            t = to_arrow(binlog_src.read_epoch(self.ctx.binlog, lo, hi,
                                               columns=APPLY_COLS))
            p["read_s"] += now() - t0
        p["read_rows"] += t.num_rows
        p["read_bytes"] += t.nbytes
        with tr.span("binlog.read_ddl_events", epoch=k):
            t0 = now()
            binlog_src.read_ddl_events(self.ctx.binlog, lo, hi)
            p["ddl_s"] += now() - t0
        p["rows"] += t.num_rows
        with tr.span("stages.stable_hash", epoch=k):
            t0 = now()
            smt.stable_hash(t, ["repo", "path"])
            p["hash_s"] += now() - t0
        stage = chain.dlq_stage(self.lake + "-probe-dlq", DLQ_RULES,
                                tag=f"probe{k}-")
        with tr.span("stages.dlq_stage", epoch=k):
            t0 = now()
            valid = stage(t)
            p["dlq_s"] += now() - t0
        p["dlq_rows"] += t.num_rows - valid.num_rows

    def after_commit(self, n_epochs: int) -> None:
        from thor_ray.state import load_manifests

        with self.tr.span("state.load_manifests"):
            t0 = now()
            load_manifests(self.lake)
            self._load_s.append(now() - t0)
        with self.tr.span("state.list_storage"):
            files = storage_files(self.lake)
        new = [f for f in files if f not in self._listing]
        self._files_per_epoch.append(len(new) / n_epochs)
        self._bytes_per_epoch.append(sum(files[f] for f in new) / n_epochs)
        self._listing = files

    # ---- the round --------------------------------------------------------
    def run(self) -> None:
        from thor_ray.pipelines.cdc import CdcConfig, CdcPipeline
        from thor_ray.sources import binlog as binlog_src
        from thor_ray.sources.lake import lake_lookup, read_lake, read_lake_at

        ctx, w, tr, m = self.ctx, self.w, self.tr, self.m
        shutil.rmtree(self.lake, ignore_errors=True)
        pipe = CdcPipeline(CdcConfig(
            lake_dir=self.lake, binlog_dir=ctx.binlog,
            num_partitions=w.num_partitions, epoch_size=w.epoch_size,
            shuffle="spill", write_mode="delta",
            retain_snapshots=RETAIN_SNAPSHOTS))
        with tr.span("cdc.bootstrap"):
            t0 = now()
            pipe.bootstrap(ctx.base)
            m["bootstrap_s"] = now() - t0
        self.done += 1
        if tr.enabled:
            with tr.span("binlog.max_lsn"):
                binlog_src.max_lsn(ctx.binlog)
            self._listing = storage_files(self.lake)
        # the wall of every committing run(until_lsn=...) call: one call
        # of all epochs, or one call per epoch
        epochs = range(1, w.n_epochs + 1)
        calls = [(ctx.max_lsn, epochs)] if w.one_call else [
            (k * w.epoch_size, [k]) for k in epochs]
        walls = []
        for until, committed in calls:
            if tr.enabled:
                for k in committed:
                    self.probe_epoch(k)
            with tr.span("cdc.run", epochs=len(committed)):
                t0 = now()
                pipe.run(until_lsn=until)
                walls.append(now() - t0)
            self.done += 1
            if tr.enabled:
                self.after_commit(len(committed))
        if len(pipe.reports) != w.n_epochs:
            self.problems.append(f"{len(pipe.reports)} epochs committed, "
                                 f"expected {w.n_epochs}")
        m["replay_events_per_s"] = ctx.n_rows / sum(walls)
        self.run_walls = walls
        if tr.enabled:
            self.layer_state(pipe)

        with tr.span("lake.scan"):
            t0 = now()
            scan = read_lake(self.lake, keep_internal=True).to_pandas()
            scan_s = now() - t0
        self.done += 1
        m["scan_rows_per_s"] = len(scan) / scan_s
        with tr.span("lake.read_lake_at", epoch=w.time_travel_epoch):
            t0 = now()
            tt = read_lake_at(self.lake, w.time_travel_epoch).to_pandas()
            m["time_travel_scan_s"] = now() - t0
        self.done += 1
        secs = []
        for _ in range(LOOKUP_REPEATS):
            stats: dict = {}
            with tr.span("lake.lookup", keys=len(ctx.keys)):
                t0 = now()
                found = lake_lookup(self.lake, ctx.keys, stats=stats)
                secs.append(now() - t0)
            self.done += 1
            self.problems += refm.check_lookup(found, ctx.final, ctx.present)
        self.lookup_secs = secs
        lookup_s = median(secs)
        m["lookup_keys_per_s"] = len(ctx.keys) / lookup_s
        m["lake_bytes"] = float(sum(storage_files(self.lake).values()))
        if tr.enabled:
            self.layer["lake.scan_s"] = scan_s
            self.layer["lake.time_travel_s"] = m["time_travel_scan_s"]
            self.layer["lake.lookup_s"] = lookup_s
            self.layer["lake.lookup_files_read"] = stats.get("files_read", 0)
            self.layer["lake.lookup_files_total"] = stats.get("files_total", 0)

        self.problems += refm.check_table(scan, ctx.final, "scan",
                                          check_sha=True)
        self.problems += refm.check_table(tt, ctx.final_tt, "time travel",
                                          check_sha=False)
        self.problems += refm.check_dlq(self.lake, ctx.invalid)

    def layer_state(self, pipe) -> None:
        """Per-layer values read from the engine's reports, manifests and
        lineage once the replay has committed."""
        from thor_ray.sources.lake import read_lineage
        from thor_ray.state import load_manifests

        reps, L, p = pipe.reports, self.layer, self._probe
        L["binlog.read_s"] = p["read_s"]
        L["binlog.read_rows"] = p["read_rows"]
        L["binlog.read_bytes"] = p["read_bytes"]
        L["binlog.ddl_scan_s"] = p["ddl_s"]
        L["stages.route_rows_per_s"] = p["rows"] / p["hash_s"]
        L["stages.dlq_split_rows_per_s"] = p["rows"] / p["dlq_s"]
        L["stages.dlq_rows"] = p["dlq_rows"]
        for ph in ("apply", "commit", "ddl"):
            L[f"cdc.phase_{ph}_s"] = median(r.phase_sec[ph] for r in reps)
        L["cdc.epoch_p50_s"] = median(r.wall_sec for r in reps)
        L["cdc.events_applied"] = sum(
            r.n_applied[k] for r in reps for k in ("I", "U", "D"))
        L["cdc.dup_dropped"] = sum(r.n_applied["dup"] for r in reps)
        parts = read_lineage(self.lake, kind="partition")
        per_pid = parts.groupby("pid")["events"].sum()
        L["cdc.partition_skew"] = float(per_pid.max()) / max(
            float(per_pid.median()), 1.0)
        L["state.load_manifests_s"] = median(self._load_s)
        L["state.files_written_per_epoch"] = median(self._files_per_epoch)
        L["state.bytes_written_per_epoch"] = median(self._bytes_per_epoch)
        L["state.run_length_max"] = max(
            len(m.files) for m in load_manifests(self.lake).values())
        L["state.manifest_files"] = sum(len(fs) for _, _, fs in os.walk(
            os.path.join(self.lake, "_manifests")))

    def cleanup(self) -> None:
        shutil.rmtree(self.lake, ignore_errors=True)
        shutil.rmtree(self.lake + "-probe-dlq", ignore_errors=True)


def host_ceilings(ctx: Context, work: str) -> dict[str, float]:
    """Host rates measured in the same run: memcpy, one-core hashlib
    sha256, pyarrow parquet write, and the reference fold."""
    import hashlib

    out = {}
    src = np.frombuffer(np.random.default_rng(0).bytes(64 << 20), np.uint8)
    dst = np.empty_like(src)
    t0 = now()
    for _ in range(8):
        np.copyto(dst, src)
    out["host.memcpy_gb_per_s"] = 8 * src.nbytes / (now() - t0) / 1e9
    rows = [v for v in ctx.content.to_pylist() if v is not None]
    sha = hashlib.sha256
    t0 = now()
    for v in rows:
        sha(v.encode()).hexdigest()
    out["host.sha256_rows_per_s"] = len(rows) / (now() - t0)
    base = pq.read_table(ctx.base)
    path = os.path.join(work, "ceiling.parquet")
    secs = []
    for _ in range(3):
        t0 = now()
        pq.write_table(base, path)
        secs.append(now() - t0)
    os.remove(path)
    out["host.parquet_write_mb_per_s"] = base.nbytes / 1e6 / median(secs)
    out["host.reference_fold_events_per_s"] = ctx.n_rows / ctx.fold_s
    return out


def ray_temp_dir(root: str) -> str | None:
    # Ray's socket paths must stay under the 107-byte unix limit; a long
    # checkout path falls back to Ray's default temp dir.
    d = os.path.join(root, ".lakebench", "ray")
    return d if len(d) <= 40 else None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--trace-out", required=True)
    a = ap.parse_args()
    w = WORKLOADS[a.workload]
    os.makedirs(a.work, exist_ok=True)

    t0 = now()
    ctx = Context(w, a.seed, a.work)
    problems = check_inputs(w, a.seed, ctx, a.work)
    warm = Context(WARMUP, a.seed, a.work)
    print(f"inputs and reference: {now() - t0:.2f} s", file=sys.stderr)

    import ray
    from ray.data import DataContext

    tr = Tracer(enabled=bool(a.trace))
    rounds: list[Round] = []
    attempted = failed = 0
    try:
        t0 = now()
        ray.init(num_cpus=NUM_CPUS, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=512 << 20,
                 _temp_dir=ray_temp_dir(os.getcwd()))
        DataContext.get_current().enable_progress_bars = False
        r = Round(warm, 0, Tracer(False))
        r.run()
        r.cleanup()
        setup_s = now() - t0
        print(f"set-up: {setup_s:.2f} s", file=sys.stderr, flush=True)
        problems += [f"warm-up {p}" for p in r.problems]
        # the inputs and reference folds live for the whole run: keep the
        # collector from rescanning them between timed calls
        gc.collect()
        gc.freeze()

        with MemorySampler() as mem, DriftCounter() as drift:
            t_start, durs = now(), []
            while True:
                r = Round(ctx, len(rounds) + 1, tr)
                t0 = now()
                try:
                    with tr.span("round", n=len(rounds) + 1):
                        r.run()
                except Exception:
                    traceback.print_exc()
                    failed += r.attempted - r.done
                    problems.append(f"round {len(rounds) + 1} raised")
                finally:
                    r.cleanup()
                attempted += r.attempted
                durs.append(now() - t0)
                print(f"round {len(rounds) + 1}: {durs[-1]:.2f} s "
                      + json.dumps({k: round(v, 4) for k, v in r.m.items()})
                      + f" run() walls {getattr(r, 'run_walls', None)}",
                      file=sys.stderr, flush=True)
                rounds.append(r)
                problems += r.problems
                # start another round only if it ends at most half a
                # round past the run's seconds
                if r.done < r.attempted or \
                        now() - t_start + median(durs) / 2 > a.seconds:
                    break
        ceilings = host_ceilings(ctx, a.work) if a.trace else {}
    finally:
        ray.shutdown()

    ok = [r for r in rounds if r.done == r.attempted]
    e2e, layers = {}, {}
    if ok:
        for k in ok[0].m:
            e2e[k] = median(r.m[k] for r in ok)
        # every committing run() call, and every lookup batch, of every
        # round is one sample
        e2e["epoch_commit_p50_s"] = median(
            x for r in ok for x in r.run_walls)
        e2e["lookup_keys_per_s"] = len(ctx.keys) / median(
            x for r in ok for x in r.lookup_secs)
        for k in ok[0].layer:
            layers[k] = median(float(r.layer[k]) for r in ok)
    e2e["setup_s"] = setup_s
    e2e["peak_rss_mb"] = mem.peak_mb
    layers.update(ceilings)
    layers["ray_data.schema_drift_warnings"] = drift.count

    if a.trace:
        tr.write(a.trace_out, {"workload": w.name, "seed": a.seed,
                               "rounds": len(rounds), "end_to_end": e2e,
                               "per_layer": layers})
        shown = layers
    else:
        shown = e2e
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems and bool(ok),
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(v), "unit": METRIC_UNITS[k]}
                    for k, v in sorted(shown.items())},
    }))
    return 0


METRIC_UNITS = {
    "setup_s": "s", "bootstrap_s": "s", "replay_events_per_s": "events/s",
    "epoch_commit_p50_s": "s", "scan_rows_per_s": "rows/s",
    "time_travel_scan_s": "s", "lookup_keys_per_s": "keys/s",
    "lake_bytes": "bytes", "peak_rss_mb": "MB",
    "binlog.read_s": "s", "binlog.read_rows": "count",
    "binlog.read_bytes": "bytes", "binlog.ddl_scan_s": "s",
    "stages.route_rows_per_s": "rows/s",
    "stages.dlq_split_rows_per_s": "rows/s", "stages.dlq_rows": "count",
    "cdc.phase_apply_s": "s", "cdc.partition_skew": "ratio",
    "cdc.epoch_p50_s": "s", "cdc.phase_commit_s": "s",
    "cdc.phase_ddl_s": "s", "cdc.events_applied": "count",
    "cdc.dup_dropped": "count", "state.load_manifests_s": "s",
    "state.files_written_per_epoch": "count",
    "state.bytes_written_per_epoch": "bytes",
    "state.run_length_max": "count", "state.manifest_files": "count",
    "lake.scan_s": "s", "lake.time_travel_s": "s", "lake.lookup_s": "s",
    "lake.lookup_files_read": "count", "lake.lookup_files_total": "count",
    "host.memcpy_gb_per_s": "GB/s", "host.sha256_rows_per_s": "rows/s",
    "host.parquet_write_mb_per_s": "MB/s",
    "host.reference_fold_events_per_s": "events/s",
    "ray_data.schema_drift_warnings": "count",
}


if __name__ == "__main__":
    sys.exit(main())
