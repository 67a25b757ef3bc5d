"""CLI entry points — the ``ray job submit`` surface of the engine.

    python -m thor_ray gen    --out DIR [--n-keys N] [--n-events N] ...
    python -m thor_ray run    --lake DIR --binlog DIR [--base FILE] ...
    python -m thor_ray verify --lake DIR --binlog DIR --base FILE
    python -m thor_ray show   --lake DIR

``run`` is resumable: re-running after a crash continues from the committed
per-partition manifests (BASELINE.json:14 "resumable from checkpoint").
This module owns its Ray session (unlike __ray_entry__, whose session the
driver owns); on a real cluster submit it with ``ray job submit --
python -m thor_ray run ...`` against shared lake storage.
"""

from __future__ import annotations

import argparse
import json
import sys


def _ray_init(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        kw = {"address": "local", "include_dashboard": False,
              "ignore_reinit_error": True, "logging_level": "ERROR"}
        if num_cpus:
            kw["num_cpus"] = num_cpus
        ray.init(**kw)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray


def cmd_gen(a) -> int:
    from thor_ray import gen

    info = gen.write_fixture(
        a.out, n_keys=a.n_keys,
        cfg=gen.BinlogConfig(n_events=a.n_events, n_shards=a.shards,
                             dup_rate=a.dup_rate, shuffle_window=a.shuffle_window,
                             ddl_every=a.ddl_every, corrupt_rate=a.corrupt_rate,
                             seed=a.seed))
    print(json.dumps(info))
    return 0


def _parse_route(spec: str | None) -> tuple[int, int] | None:
    if not spec:
        return None
    rid, nr = spec.split("/")
    return (int(rid), int(nr))


def cmd_run(a) -> int:
    ray = _ray_init(a.num_cpus)
    from thor_ray.pipelines.cdc import CdcConfig, CdcPipeline

    route = _parse_route(a.route)
    pipe = CdcPipeline(CdcConfig(
        lake_dir=a.lake, binlog_dir=a.binlog, num_partitions=a.partitions,
        epoch_size=a.epoch_size, shuffle=a.shuffle, write_mode=a.write_mode,
        retain_snapshots=a.retain_snapshots, route=route))
    reports = pipe.run(base=a.base, max_epochs=a.max_epochs)
    for r in reports:
        print(json.dumps({"epoch": r.epoch, "events": r.n_events,
                          "events_per_sec": r.events_per_sec,
                          "wall_sec": r.wall_sec}))
    ray.shutdown()
    return 0


def cmd_snapshot(a) -> int:
    """Incremental (first-time) or ad-hoc (repair) snapshot while tailing."""
    ray = _ray_init(a.num_cpus)
    from thor_ray.pipelines.cdc import CdcConfig, CdcPipeline
    from thor_ray.state import load_manifests

    pipe = CdcPipeline(CdcConfig(
        lake_dir=a.lake, binlog_dir=a.binlog, num_partitions=a.partitions,
        epoch_size=a.epoch_size, shuffle=a.shuffle, write_mode=a.write_mode,
        retain_snapshots=a.retain_snapshots, route=_parse_route(a.route)))
    if a.adhoc or load_manifests(a.lake):
        reports = pipe.adhoc_snapshot(a.source, n_chunks=a.chunks,
                                      max_epochs=a.max_epochs)
    else:
        reports = pipe.run_incremental(a.source, n_chunks=a.chunks,
                                       max_epochs=a.max_epochs)
    for r in reports:
        print(json.dumps({"epoch": r.epoch, "events": r.n_events,
                          "events_per_sec": r.events_per_sec,
                          "wall_sec": r.wall_sec}))
    ray.shutdown()
    return 0


def cmd_follow(a) -> int:
    ray = _ray_init(a.num_cpus)
    from thor_ray.pipelines.cdc import CdcConfig, CdcPipeline

    pipe = CdcPipeline(CdcConfig(
        lake_dir=a.lake, binlog_dir=a.binlog, num_partitions=a.partitions,
        epoch_size=a.epoch_size, retain_snapshots=a.retain_snapshots,
        route=_parse_route(a.route)))
    reports = pipe.follow(poll_sec=a.poll_sec, idle_polls=a.idle_polls,
                          base=a.base)
    for r in reports:
        print(json.dumps({"epoch": r.epoch, "events": r.n_events,
                          "events_per_sec": r.events_per_sec}))
    ray.shutdown()
    return 0


def cmd_compact(a) -> int:
    """Force-merge delta runs into single state files (LSM maintenance).
    --upto E folds only epochs <= E, keeping the tail changefeed."""
    ray = _ray_init(a.num_cpus)
    if a.upto is not None:
        from thor_ray.sources import compact_upto

        n = compact_upto(a.lake, a.upto, force=a.force)
    else:
        from thor_ray.pipelines.cdc import CdcConfig, CdcPipeline

        pipe = CdcPipeline(CdcConfig(lake_dir=a.lake,
                                     binlog_dir=a.binlog or "",
                                     write_mode="delta"))
        n = pipe.compact()
    print(json.dumps({"compacted_partitions": n}))
    ray.shutdown()
    return 0


def cmd_replicate(a) -> int:
    """Pull the primary's changefeed into a follower lake (read replica);
    resumable — the replica's own manifests are the progress record."""
    ray = _ray_init(a.num_cpus)
    from thor_ray.sources import replicate_lake

    rep = replicate_lake(a.src, a.dst, group=a.group,
                         columns=a.columns.split(",") if a.columns else None,
                         max_epochs=a.max_epochs)
    print(json.dumps(rep))
    ray.shutdown()
    return 0


def cmd_export_changefeed(a) -> int:
    """Export the changefeed range as Debezium-envelope JSONL segments
    (per-epoch dirs, resumable — finished epochs are skipped)."""
    ray = _ray_init(a.num_cpus)
    from thor_ray.sources import export_changefeed_envelopes

    rep = export_changefeed_envelopes(a.lake, a.out,
                                      after_epoch=a.after_epoch,
                                      upto_epoch=a.upto_epoch,
                                      source_name=a.source_name,
                                      with_before=a.with_before)
    print(json.dumps(rep))
    ray.shutdown()
    return 0


def cmd_schema_changes(a) -> int:
    """Print the schema-change feed (one JSON line per folded DDL;
    metadata-only, no Ray)."""
    from thor_ray.pipelines.cdc import CdcConfig, CdcPipeline

    pipe = CdcPipeline(CdcConfig(lake_dir=a.lake, binlog_dir="",
                                 fencing=False))
    for rec in pipe.schema_changes():
        print(json.dumps(rec))
    return 0


def cmd_stats(a) -> int:
    """ANALYZE: one streaming pass — rows, content bytes, per-column null
    counts, HLL ndv for requested columns."""
    ray = _ray_init(a.num_cpus)
    from thor_ray.sources import lake_stats

    s = lake_stats(a.lake, ndv_cols=tuple(
        c.strip() for c in a.ndv_cols.split(",") if c.strip()))
    print(json.dumps(s))
    ray.shutdown()
    return 0


def cmd_cyclic(a) -> int:
    """Create a K-pass cyclic replay view of a binlog (load amplification
    / soak testing: K× the events at shifted lsns, zero extra disk;
    metadata-only — no Ray)."""
    from thor_ray.sources.binlog import write_cyclic_view

    meta = write_cyclic_view(a.view, a.binlog, a.passes)
    print(json.dumps(meta))
    return 0


def cmd_compact_binlog(a) -> int:
    """Convert text wire shards to the parquet tier in place; --keys runs
    Kafka-style key compaction instead (metadata/driver-only; no Ray)."""
    from thor_ray.sources.binlog import (compact_binlog_keys,
                                         compact_text_shards)

    if a.keys:
        rep = compact_binlog_keys(a.binlog, upto_lsn=a.upto)
        print(json.dumps(rep))
        return 0
    n = compact_text_shards(a.binlog)
    print(json.dumps({"converted_segments": n}))
    return 0


def cmd_fsck(a) -> int:
    """Lake consistency check: shallow = manifests/footers/orphans
    (metadata-only); --deep re-folds every partition distributed and
    recomputes row counts + content fingerprints."""
    r = None
    if a.deep:
        r = _ray_init(a.num_cpus)
    from thor_ray.sources import fsck

    rep = fsck(a.lake, deep=a.deep)
    print(json.dumps(rep))
    if r is not None:
        r.shutdown()
    return 0 if rep["ok"] else 1


def cmd_archive(a) -> int:
    """Retire fully-consumed binlog segments (metadata-only; no Ray)."""
    from thor_ray.sources import binlog as binlog_src
    from thor_ray.state import load_manifests

    ms = load_manifests(a.lake)
    wm = min((m.upto_lsn for m in ms.values()), default=0)
    n = binlog_src.archive_binlog(a.binlog, wm) if ms else 0
    print(json.dumps({"archived_segments": n, "below_lsn": wm}))
    return 0


def cmd_lag(a) -> int:
    """Per-shard consumer lag vs the lake watermark (metadata-only; no Ray)."""
    from thor_ray.pipelines.cdc import CdcConfig, CdcPipeline

    pipe = CdcPipeline(CdcConfig(lake_dir=a.lake, binlog_dir=a.binlog))
    print(pipe.lag_report().to_json(orient="records"))
    return 0


def cmd_seek(a) -> int:
    """Event-time seek (Kafka offsetsForTimes): smallest lsn with
    event-time >= --ts; start the next replay epoch at result - 1.
    Metadata-pruned parquet reads; no Ray session."""
    import json as _json

    from thor_ray.sources import binlog as bs

    ts = int(a.ts) if a.ts.isdigit() else a.ts
    lsn = bs.seek_lsn_for_ts(a.binlog, ts)
    print(_json.dumps({"binlog": a.binlog, "ts": a.ts, "lsn": lsn,
                       "resume_lo": None if lsn is None else lsn - 1}))
    return 0


def _engine_meta(lake_dir: str) -> dict:
    import os

    p = os.path.join(lake_dir, "_schema", "engine.json")
    with open(p) as f:
        return json.load(f)


def cmd_repartition(a) -> int:
    """Migrate the lake to a new partition count (no binlog replay)."""
    ray = _ray_init(a.num_cpus)
    from thor_ray.pipelines.cdc import CdcConfig, CdcPipeline

    meta = _engine_meta(a.lake)
    route = tuple(meta["route"]) if meta.get("route") else None
    pipe = CdcPipeline(CdcConfig(
        lake_dir=a.lake, binlog_dir=a.binlog or "",
        num_partitions=meta["num_partitions"], route=route))
    n = pipe.repartition_lake(a.dst, a.partitions)
    print(json.dumps({"rows_migrated": n, "dst": a.dst,
                      "partitions": a.partitions}))
    ray.shutdown()
    return 0


def cmd_delete(a) -> int:
    """Append retention tombstones (op='D') for lake keys matching a
    filter expression; apply with a subsequent `run`."""
    ray = _ray_init(a.num_cpus)
    from thor_ray.pipelines.cdc import CdcConfig, CdcPipeline

    pipe = CdcPipeline(CdcConfig(lake_dir=a.lake, binlog_dir=a.binlog,
                                 num_partitions=a.partitions))
    n = pipe.delete_where(a.expr)
    print(json.dumps({"tombstones_written": n,
                      "hint": "run `python -m thor_ray run ...` to apply"}))
    ray.shutdown()
    return 0


def cmd_update(a) -> int:
    """Append full-image op='U' events setting literal column values on
    lake rows matching a filter expression; apply with a subsequent
    `run`."""
    ray = _ray_init(a.num_cpus)
    import pyarrow as pa

    from thor_ray.pipelines.cdc import CdcConfig, CdcPipeline

    sets = dict(kv.split("=", 1) for kv in a.set)

    def set_fn(t: "pa.Table") -> "pa.Table":
        for col, val in sets.items():
            i = t.column_names.index(col)
            t = t.set_column(i, col, pa.array([val] * t.num_rows,
                                              type=t.schema.field(i).type))
        return t

    pipe = CdcPipeline(CdcConfig(lake_dir=a.lake, binlog_dir=a.binlog,
                                 num_partitions=a.partitions))
    n = pipe.update_where(a.expr, set_fn)
    print(json.dumps({"updates_written": n,
                      "hint": "run `python -m thor_ray run ...` to apply"}))
    ray.shutdown()
    return 0


def cmd_consumer(a) -> int:
    """Changefeed consumer-group admin: list offsets/lag, or reset one
    group's offset (kafka-consumer-groups analogue; metadata only)."""
    from thor_ray.sources.lake import ChangefeedConsumer, consumer_groups
    from thor_ray.state import load_manifests

    if a.seek is not None:
        if not a.group:
            print(json.dumps({"error": "--seek needs --group"}))
            return 1
        c = ChangefeedConsumer(a.lake, a.group)
        c.seek(a.seek)
        print(json.dumps({"group": a.group, "epoch": a.seek}))
        return 0
    ms = load_manifests(a.lake)
    cur = min((m.epoch for m in ms.values()), default=0)
    out = {g: {"epoch": e, "lag": cur - e}
           for g, e in consumer_groups(a.lake).items()}
    print(json.dumps({"lake_epoch": cur, "groups": out}))
    return 0


def cmd_restore(a) -> int:
    """Point-in-time RESTORE: roll the lake back to a retained epoch or
    savepoint tag in place; re-apply with a subsequent `run`."""
    from thor_ray.pipelines.cdc import CdcConfig, CdcPipeline

    pipe = CdcPipeline(CdcConfig(lake_dir=a.lake, binlog_dir=a.binlog,
                                 num_partitions=1))
    k = pipe.restore(epoch=a.epoch, tag=a.tag)
    print(json.dumps({"restored_epoch": k,
                      "hint": "run `python -m thor_ray run ...` to "
                              "re-apply the binlog from here"}))
    return 0


def cmd_unload(a) -> int:
    """Export the lake state as hive-partitioned parquet (resumable)."""
    ray = _ray_init(a.num_cpus)
    from thor_ray.pipelines.cdc import CdcConfig, CdcPipeline

    pipe = CdcPipeline(CdcConfig(lake_dir=a.lake, binlog_dir=a.binlog,
                                 num_partitions=1))
    rep = pipe.unload(a.out, by=a.by, epoch=a.epoch, tag=a.tag)
    print(json.dumps({"partitions": len(rep),
                      "rows": int(rep["rows"].sum()),
                      "skipped": int(rep["skipped"].sum())}))
    ray.shutdown()
    return 0


def cmd_status(a) -> int:
    """Ops summary (metadata only — no Ray session needed)."""
    from thor_ray.pipelines.cdc import CdcConfig, CdcPipeline

    pipe = CdcPipeline(CdcConfig(lake_dir=a.lake, binlog_dir=a.binlog,
                                 num_partitions=1))
    print(json.dumps(pipe.status(), indent=2, default=str))
    return 0


def cmd_ingest(a) -> int:
    """Bulk load a parquet file of rows as binlog events (UPSERT/DELETE
    INTO … SELECT); apply with a subsequent `run`."""
    ray = _ray_init(a.num_cpus)
    from thor_ray.pipelines.cdc import CdcConfig, CdcPipeline

    pipe = CdcPipeline(CdcConfig(lake_dir=a.lake, binlog_dir=a.binlog,
                                 num_partitions=a.partitions))
    n = pipe.ingest_dataset(ray.data.read_parquet(a.input),
                            ident=a.ident, op=a.op)
    print(json.dumps({"events_written": n, "ident": a.ident, "op": a.op,
                      "hint": "run `python -m thor_ray run ...` to apply"}))
    ray.shutdown()
    return 0


def cmd_tag(a) -> int:
    """Create / delete / list named savepoint tags (no Ray needed —
    metadata only)."""
    from thor_ray.state import create_tag, delete_tag, list_tags

    if a.delete:
        ok = delete_tag(a.lake, a.delete)
        print(json.dumps({"deleted": a.delete, "existed": ok}))
        return 0
    if a.name:
        from thor_ray.state import snapshot_epochs
        epoch = a.epoch
        if epoch is None:
            eps = snapshot_epochs(a.lake)
            if not eps:
                print(json.dumps({"error": "no retained snapshots"}))
                return 1
            epoch = eps[-1]
        create_tag(a.lake, a.name, epoch, replace=a.replace)
        print(json.dumps({"tag": a.name, "epoch": epoch}))
        return 0
    print(json.dumps(list_tags(a.lake)))
    return 0


def cmd_diff(a) -> int:
    """Changefeed between two retained snapshots (time travel)."""
    ray = _ray_init(a.num_cpus)
    from thor_ray.sources.lake import snapshot_diff

    df = snapshot_diff(a.lake, a.from_epoch, a.to_epoch).to_pandas()
    counts = df["change"].value_counts().to_dict()
    print(json.dumps({"from": a.from_epoch, "to": a.to_epoch,
                      "changes": len(df),
                      "by_kind": {k: int(v) for k, v in counts.items()}}))
    if a.out:
        df.to_parquet(a.out, index=False)
        print(f"wrote {a.out}")
    ray.shutdown()
    return 0


def cmd_branch(a) -> int:
    """Zero-copy branch of a committed lake (hardlinked manifests)."""
    from thor_ray.sources.branch import create_branch

    meta = create_branch(a.lake, a.dst)
    print(json.dumps(meta))
    return 0


def cmd_lake_diff(a) -> int:
    """Partition-aligned diff between two same-partitioned lakes."""
    ray = _ray_init(a.num_cpus)
    from thor_ray.sources.branch import lake_diff

    df = lake_diff(a.lake, a.other).to_pandas()
    counts = df["change"].value_counts().to_dict() \
        if "change" in df.columns else {}
    print(json.dumps({"changes": len(df),
                      "by_kind": {k: int(v) for k, v in counts.items()}}))
    if a.out:
        df.to_parquet(a.out, index=False)
        print(f"wrote {a.out}")
    ray.shutdown()
    return 0


def cmd_merge(a) -> int:
    """Merge a branch's changes-since-fork into a target lake's binlog,
    then apply them (one run())."""
    ray = _ray_init(a.num_cpus)
    from thor_ray.pipelines.cdc import CdcConfig, CdcPipeline
    from thor_ray.sources.branch import merge_branch

    pipe = CdcPipeline(CdcConfig(
        lake_dir=a.lake, binlog_dir=a.binlog,
        num_partitions=_engine_meta(a.lake)["num_partitions"],
        epoch_size=a.epoch_size, write_mode=a.write_mode))
    n = merge_branch(a.branch, pipe, strategy=a.strategy)
    reps = pipe.run() if n else []
    print(json.dumps({"injected": n, "epochs_applied": len(reps)}))
    ray.shutdown()
    return 0


def cmd_index(a) -> int:
    """Build/advance a secondary index; optionally probe one value."""
    ray = _ray_init(a.num_cpus)
    from thor_ray.sources.secondary import SecondaryIndex

    idx = SecondaryIndex(a.lake, a.index_dir, a.col)
    epoch = idx.advance()        # builds first when fresh
    out = {"col": a.col, "indexed_epoch": epoch}
    if a.compact:
        idx.compact()
        out["compacted"] = True
    if a.probe is not None:
        hits = idx.probe(a.probe)
        out["probe"] = a.probe
        out["hits"] = len(hits)
        if a.out:
            hits.to_parquet(a.out, index=False)
            out["wrote"] = a.out
    print(json.dumps(out))
    ray.shutdown()
    return 0


def cmd_hh(a) -> int:
    """Advance the streaming Misra-Gries heavy-hitters consumer; print
    the current summary + error bound."""
    ray = _ray_init(a.num_cpus)
    from thor_ray.pipelines.stream_window import HeavyHittersConsumer

    hh = HeavyHittersConsumer(a.binlog, a.out_dir, k=a.k,
                              group_col=a.group_col)
    rep = hh.advance(complete=a.complete, slack=a.slack)
    out = hh.hitters()
    print(json.dumps({"advanced": rep, "n_events": hh.n_events(),
                      "error_bound": hh.error_bound(),
                      "hitters": out.to_dict("records")}))
    ray.shutdown()
    return 0


def cmd_window(a) -> int:
    """Advance a streaming windowed aggregation over the binlog; print
    emitted/open/late totals."""
    ray = _ray_init(a.num_cpus)
    from thor_ray.pipelines.stream_window import (SessionAggregator,
                                                  WindowedAggregator)

    if a.gap_ms:
        w = SessionAggregator(
            a.binlog, a.out_dir, gap_us=a.gap_ms * 1000,
            lateness_us=a.lateness_ms * 1000, group_col=a.group_col)
    else:
        if not a.window_ms:
            raise SystemExit("one of --window-ms / --gap-ms is required")
        w = WindowedAggregator(
            a.binlog, a.out_dir, window_us=a.window_ms * 1000,
            lateness_us=a.lateness_ms * 1000, group_col=a.group_col,
            slide_us=a.slide_ms * 1000 if a.slide_ms else None)
    rep = w.advance(complete=a.complete, slack=a.slack)
    em = w.emitted()
    op = w.open_sessions() if a.gap_ms else w.open_windows()
    print(json.dumps({
        "emitted_now": rep["emitted"], "late_now": rep["late"],
        "watermark": rep["watermark"],
        "emitted_windows": int(len(em)), "open_windows": int(len(op)),
        "emitted_events": int(em["n"].sum()) if len(em) else 0,
        "open_events": int(op["n"].sum()) if len(op) else 0,
        "late_events_total": w.late_events()}))
    ray.shutdown()
    return 0


def cmd_ijoin(a) -> int:
    """Advance a stream-stream interval join over two binlogs; print
    match/late totals."""
    ray = _ray_init(a.num_cpus)
    from thor_ray.pipelines.stream_window import IntervalJoinStream

    j = IntervalJoinStream(
        a.left, a.right, a.out_dir, lo_us=a.lo_ms * 1000,
        hi_us=a.hi_ms * 1000, key_col=a.key_col,
        lateness_us=a.lateness_ms * 1000)
    rep = j.advance(complete=a.complete, slack=a.slack)
    print(json.dumps({
        "matches_now": rep["matches"], "late_now": rep["late"],
        "watermark": rep["watermark"],
        "matches_total": int(len(j.matches())),
        "late_events_total": j.late_events()}))
    ray.shutdown()
    return 0


def cmd_verify(a) -> int:
    """Replay-equivalence check: lake state vs the single-process oracle."""
    ray = _ray_init(a.num_cpus)
    import glob

    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from thor_ray import oracle
    from thor_ray.sources.lake import read_lake

    from thor_ray.sources import binlog as bs

    shards = bs.shard_files(a.binlog)  # parquet or jsonl tier
    if shards and shards[0].endswith(".jsonl"):
        import pyarrow.json as pajson
        events = pa.concat_tables([
            pajson.read_json(p, parse_options=bs._jsonl_parse_options())
            for p in shards])
        events = events.set_column(
            events.schema.get_field_index("ts"), "ts",
            events["ts"].cast(pa.timestamp("us")))
    else:
        events = pa.concat_tables([pq.read_table(p) for p in shards])
    base = pq.read_table(a.base) if a.base else None
    expected, _ = oracle.apply_events(events, initial=base)
    got = read_lake(a.lake).to_pandas()

    def norm(df):
        df = df.where(pd.notna(df), None)
        return df.sort_values(["repo", "path"]).reset_index(drop=True)[
            sorted(df.columns)]

    got, exp = norm(got), norm(expected)
    ok = list(got.columns) == list(exp.columns) and len(got) == len(exp)
    if ok:
        ok = bool((oracle.content_sha(got) == oracle.content_sha(exp)).all())
        if ok:
            try:
                pd.testing.assert_frame_equal(got, exp, check_dtype=False)
            except AssertionError:
                ok = False
    print(json.dumps({"match": ok, "rows": len(got), "cols": list(got.columns)}))
    ray.shutdown()
    return 0 if ok else 1


def cmd_show(a) -> int:
    from thor_ray.state import SchemaRegistry, load_manifests, snapshot_epochs

    ms = load_manifests(a.lake)
    reg = SchemaRegistry.load(a.lake)
    print(json.dumps({
        "partitions": len(ms),
        "epoch": {"min": min((m.epoch for m in ms.values()), default=None),
                  "max": max((m.epoch for m in ms.values()), default=None)},
        "upto_lsn": {"min": min((m.upto_lsn for m in ms.values()), default=None),
                     "max": max((m.upto_lsn for m in ms.values()), default=None)},
        # delta-mode partitions carry row_count=-1 until compaction
        "rows_known": sum(m.row_count for m in ms.values() if m.row_count >= 0),
        "partitions_uncompacted": sum(1 for m in ms.values() if m.row_count < 0),
        "schema_version": reg.version,
        "evolved_columns": reg.columns_at(reg.version),
        # retained time-travel snapshots (read with sources.lake.read_lake_at)
        "snapshot_epochs": snapshot_epochs(a.lake),
    }, indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="thor_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="write a deterministic base+binlog fixture")
    g.add_argument("--out", required=True)
    g.add_argument("--n-keys", type=int, default=10_000)
    g.add_argument("--n-events", type=int, default=100_000)
    g.add_argument("--shards", type=int, default=8)
    g.add_argument("--dup-rate", type=float, default=0.05)
    g.add_argument("--shuffle-window", type=int, default=512)
    g.add_argument("--ddl-every", type=int, default=25_000)
    g.add_argument("--corrupt-rate", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=42)
    g.set_defaults(fn=cmd_gen)

    f = sub.add_parser("follow", help="continuous tail: poll for log growth")
    f.add_argument("--lake", required=True)
    f.add_argument("--binlog", required=True)
    f.add_argument("--base")
    f.add_argument("--partitions", type=int, default=64)
    f.add_argument("--epoch-size", type=int, default=250_000)
    f.add_argument("--poll-sec", type=float, default=2.0)
    f.add_argument("--idle-polls", type=int, default=5)
    f.add_argument("--retain-snapshots", type=int, default=0)
    f.add_argument("--num-cpus", type=int)
    f.add_argument("--route", metavar="ID/N",
                   help="demux tier: tail only keys hashing to route ID of "
                        "N (must match the lake's engine meta)")
    f.set_defaults(fn=cmd_follow)

    r = sub.add_parser("run", help="bootstrap + replay the binlog (resumable)")
    r.add_argument("--lake", required=True)
    r.add_argument("--binlog", required=True)
    r.add_argument("--base")
    r.add_argument("--partitions", type=int, default=64)
    r.add_argument("--epoch-size", type=int, default=250_000)
    r.add_argument("--shuffle", choices=["spill", "sort"], default="spill")
    r.add_argument("--write-mode", choices=["cow", "delta"], default="cow")
    r.add_argument("--max-epochs", type=int)
    r.add_argument("--retain-snapshots", type=int, default=0,
                   help="archive this many trailing epochs for time travel "
                        "(show/diff subcommands read them)")
    r.add_argument("--num-cpus", type=int)
    r.add_argument("--route", metavar="ID/N",
                   help="demux tier: apply only keys hashing to route ID of "
                        "N (run one process per route into its own lake)")
    r.set_defaults(fn=cmd_run)

    sn = sub.add_parser(
        "snapshot",
        help="snapshot-while-tailing: fold a base/source image into the "
             "lake in chunks interleaved with live epochs (DBLog shape); "
             "fresh lake = incremental bootstrap, live lake = ad-hoc "
             "repair (source must be a live-table image at/after the "
             "watermark)")
    sn.add_argument("--lake", required=True)
    sn.add_argument("--binlog", required=True)
    sn.add_argument("--source", required=True,
                    help="parquet file/dir of the base (fresh) or "
                         "live-table image (ad-hoc)")
    sn.add_argument("--chunks", type=int, default=8)
    sn.add_argument("--adhoc", action="store_true",
                    help="force the ad-hoc path (default: auto by lake "
                         "presence)")
    sn.add_argument("--partitions", type=int, default=64)
    sn.add_argument("--epoch-size", type=int, default=250_000)
    sn.add_argument("--shuffle", choices=["spill", "sort"], default="spill")
    sn.add_argument("--write-mode", choices=["cow", "delta"], default="cow")
    sn.add_argument("--max-epochs", type=int)
    sn.add_argument("--retain-snapshots", type=int, default=0)
    sn.add_argument("--num-cpus", type=int)
    sn.add_argument("--route", metavar="ID/N")
    sn.set_defaults(fn=cmd_snapshot)

    c = sub.add_parser("compact", help="merge delta runs into single state files")
    c.add_argument("--lake", required=True)
    c.add_argument("--binlog")
    c.add_argument("--upto", type=int, default=None,
                   help="partial (tiered) compaction: fold only epochs "
                        "<= E, keep the tail changefeed")
    c.add_argument("--force", action="store_true",
                   help="with --upto: fold past lagging consumer groups")
    c.add_argument("--num-cpus", type=int)
    c.set_defaults(fn=cmd_compact)

    rl = sub.add_parser("replicate",
                        help="pull the changefeed into a follower lake "
                             "(read replica; resumable, chainable)")
    rl.add_argument("src", help="primary lake dir (write_mode=delta)")
    rl.add_argument("dst", help="replica lake dir")
    rl.add_argument("--group", default="default",
                    help="consumer-group name on the primary (lag "
                         "visibility); one per replica")
    rl.add_argument("--columns", default=None,
                    help="comma-separated payload columns to keep "
                         "(keys + internal columns always kept)")
    rl.add_argument("--max-epochs", type=int, default=None)
    rl.add_argument("--num-cpus", type=int, default=None)
    rl.set_defaults(fn=cmd_replicate)

    ec = sub.add_parser("export-changefeed",
                        help="export the changefeed as Debezium-envelope "
                             "JSONL segments (resumable per-epoch dirs)")
    ec.add_argument("--lake", required=True)
    ec.add_argument("--out", required=True)
    ec.add_argument("--after-epoch", type=int, default=0)
    ec.add_argument("--upto-epoch", type=int, default=None)
    ec.add_argument("--source-name", default="lake")
    ec.add_argument("--with-before", action="store_true",
                    help="emit real before images (read_changefeed_full)")
    ec.add_argument("--num-cpus", type=int, default=None)
    ec.set_defaults(fn=cmd_export_changefeed)

    sc = sub.add_parser("schema-changes",
                        help="print the schema-change feed (JSONL)")
    sc.add_argument("--lake", required=True)
    sc.set_defaults(fn=cmd_schema_changes)

    st = sub.add_parser("stats", help="ANALYZE the lake: rows, bytes, "
                                      "null counts, approx distinct")
    st.add_argument("--lake", required=True)
    st.add_argument("--ndv-cols", default="repo,lang",
                    help="comma-separated columns for HLL distinct counts")
    st.add_argument("--num-cpus", type=int)
    st.set_defaults(fn=cmd_stats)

    cy = sub.add_parser("cyclic", help="K-pass cyclic replay view of a "
                                       "binlog (K-fold events, zero extra "
                                       "disk; DDLs replay once)")
    cy.add_argument("--binlog", required=True, help="base binlog dir")
    cy.add_argument("--view", required=True, help="view dir to create")
    cy.add_argument("--passes", type=int, required=True)
    cy.set_defaults(fn=cmd_cyclic)

    cb = sub.add_parser("compact-binlog",
                        help="convert text wire shards to parquet, or "
                             "--keys for Kafka-style key compaction")
    cb.add_argument("--binlog", required=True)
    cb.add_argument("--keys", action="store_true",
                    help="keep only the last event per key (full-image "
                         "logs only; tombstones and DDL retained)")
    cb.add_argument("--upto", type=int,
                    help="only compact segments with max lsn <= this")
    cb.set_defaults(fn=cmd_compact_binlog)

    fs = sub.add_parser("fsck", help="lake consistency check "
                                     "(exit 1 on corruption)")
    fs.add_argument("--lake", required=True)
    fs.add_argument("--deep", action="store_true",
                    help="re-fold partitions; verify rows + fingerprints")
    fs.add_argument("--num-cpus", type=int)
    fs.set_defaults(fn=cmd_fsck)

    dl = sub.add_parser("delete",
                        help="append retention tombstones for keys matching "
                             "a filter (GDPR tier); apply with `run`")
    dl.add_argument("--lake", required=True)
    dl.add_argument("--binlog", required=True)
    dl.add_argument("--expr", required=True,
                    help="Ray Dataset filter expr over final-table columns, "
                         "e.g. \"lang == 'py'\"")
    dl.add_argument("--partitions", type=int, default=64)
    dl.add_argument("--num-cpus", type=int)
    dl.set_defaults(fn=cmd_delete)

    up = sub.add_parser("update",
                        help="append full-image update events setting "
                             "literal column values on keys matching a "
                             "filter; apply with `run`")
    up.add_argument("--lake", required=True)
    up.add_argument("--binlog", required=True)
    up.add_argument("--expr", required=True,
                    help="Ray Dataset filter expr over final-table columns")
    up.add_argument("--set", action="append", required=True,
                    metavar="COL=VALUE",
                    help="literal assignment, repeatable")
    up.add_argument("--partitions", type=int, default=64)
    up.add_argument("--num-cpus", type=int)
    up.set_defaults(fn=cmd_update)

    cg = sub.add_parser("consumer", help="changefeed consumer-group admin: "
                                         "list offsets/lag or reset one "
                                         "(metadata only)")
    cg.add_argument("--lake", required=True)
    cg.add_argument("--group")
    cg.add_argument("--seek", type=int,
                    help="reset the group's offset to this epoch "
                         "(re-consumes from there; at-least-once)")
    cg.set_defaults(fn=cmd_consumer)

    rs = sub.add_parser("restore", help="roll the lake back to a retained "
                                        "epoch/tag in place (rewind-and-"
                                        "replay repair)")
    rs.add_argument("--lake", required=True)
    rs.add_argument("--binlog", required=True)
    rs.add_argument("--epoch", type=int)
    rs.add_argument("--tag")
    rs.set_defaults(fn=cmd_restore)

    ul = sub.add_parser("unload", help="export lake state as hive-"
                                       "partitioned parquet (resumable)")
    ul.add_argument("--lake", required=True)
    ul.add_argument("--binlog", required=True)
    ul.add_argument("--out", required=True)
    ul.add_argument("--by", default="lang")
    ul.add_argument("--epoch", type=int)
    ul.add_argument("--tag")
    ul.add_argument("--num-cpus", type=int)
    ul.set_defaults(fn=cmd_unload)

    st = sub.add_parser("status", help="ops summary: epochs, watermarks, "
                                       "frontier lag, tags, consumer "
                                       "groups, DLQ backlog (metadata "
                                       "only)")
    st.add_argument("--lake", required=True)
    st.add_argument("--binlog", required=True)
    st.set_defaults(fn=cmd_status)

    ig = sub.add_parser("ingest",
                        help="bulk-load a parquet file of rows as binlog "
                             "events (UPSERT/DELETE INTO ... SELECT); "
                             "apply with `run`")
    ig.add_argument("--lake", required=True)
    ig.add_argument("--binlog", required=True)
    ig.add_argument("--input", required=True,
                    help="parquet of rows: repo, path [, payload columns]")
    ig.add_argument("--ident", required=True,
                    help="load identity (re-issue with the same ident "
                         "overwrites instead of duplicating)")
    ig.add_argument("--op", default="U", choices=["I", "U", "D"])
    ig.add_argument("--partitions", type=int, default=64)
    ig.add_argument("--num-cpus", type=int)
    ig.set_defaults(fn=cmd_ingest)

    tg = sub.add_parser("tag", help="named savepoint tags over retained "
                                    "snapshots (create/list/delete)")
    tg.add_argument("--lake", required=True)
    tg.add_argument("--name", help="create a tag with this name")
    tg.add_argument("--epoch", type=int,
                    help="epoch to tag (default: newest snapshot)")
    tg.add_argument("--replace", action="store_true")
    tg.add_argument("--delete", metavar="NAME", help="delete a tag")
    tg.set_defaults(fn=cmd_tag)

    ar = sub.add_parser("archive",
                        help="retire binlog segments below the lake's "
                             "slowest-partition watermark (keeps each "
                             "shard's newest segment)")
    ar.add_argument("--lake", required=True)
    ar.add_argument("--binlog", required=True)
    ar.set_defaults(fn=cmd_archive)

    lg = sub.add_parser("lag", help="per-shard consumer lag vs lake watermark")
    lg.add_argument("--lake", required=True)
    lg.add_argument("--binlog", required=True)
    lg.set_defaults(fn=cmd_lag)

    sk = sub.add_parser("seek", help="event-time seek: smallest lsn with "
                                     "event-time >= --ts (offsetsForTimes)")
    sk.add_argument("--binlog", required=True)
    sk.add_argument("--ts", required=True,
                    help="ISO timestamp or integer epoch-microseconds")
    sk.set_defaults(fn=cmd_seek)

    rp = sub.add_parser("repartition",
                        help="migrate the lake to a new partition count "
                             "(state rewrite, no binlog replay)")
    rp.add_argument("--lake", required=True)
    rp.add_argument("--dst", required=True)
    rp.add_argument("--partitions", type=int, required=True)
    rp.add_argument("--binlog", default="")
    rp.add_argument("--num-cpus", type=int, default=None)
    rp.set_defaults(fn=cmd_repartition)

    v = sub.add_parser("verify", help="lake state vs single-process oracle")
    v.add_argument("--lake", required=True)
    v.add_argument("--binlog", required=True)
    v.add_argument("--base")
    v.add_argument("--num-cpus", type=int)
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("show", help="manifest / registry summary")
    s.add_argument("--lake", required=True)
    s.set_defaults(fn=cmd_show)

    d = sub.add_parser("diff", help="changefeed between two retained snapshots")
    d.add_argument("--lake", required=True)
    d.add_argument("--from-epoch", type=int, required=True)
    d.add_argument("--to-epoch", type=int, required=True)
    d.add_argument("--out", help="optional parquet path for the change rows")
    d.add_argument("--num-cpus", type=int)
    d.set_defaults(fn=cmd_diff)

    b = sub.add_parser("branch", help="zero-copy branch of a committed lake")
    b.add_argument("--lake", required=True)
    b.add_argument("--dst", required=True)
    b.set_defaults(fn=cmd_branch)

    ld = sub.add_parser("lake-diff",
                        help="partition-aligned diff of two lakes")
    ld.add_argument("--lake", required=True)
    ld.add_argument("--other", required=True)
    ld.add_argument("--out", help="optional parquet path for change rows")
    ld.add_argument("--num-cpus", type=int)
    ld.set_defaults(fn=cmd_lake_diff)

    mg = sub.add_parser("merge", help="merge a branch back into a lake "
                        "(binlog injection + apply)")
    mg.add_argument("--branch", required=True)
    mg.add_argument("--lake", required=True)
    mg.add_argument("--binlog", required=True)
    mg.add_argument("--strategy", default="fail_on_conflict",
                    choices=["fail_on_conflict", "theirs"])
    mg.add_argument("--epoch-size", type=int, default=250_000)
    mg.add_argument("--write-mode", default="delta",
                    choices=["cow", "delta"])
    mg.add_argument("--num-cpus", type=int)
    mg.set_defaults(fn=cmd_merge)

    ix = sub.add_parser("index", help="build/advance a secondary index "
                        "on a lake column; optionally probe")
    ix.add_argument("--lake", required=True)
    ix.add_argument("--index-dir", required=True)
    ix.add_argument("--col", required=True)
    ix.add_argument("--probe", help="value to probe after indexing")
    ix.add_argument("--compact", action="store_true")
    ix.add_argument("--out", help="parquet path for probe hits")
    ix.add_argument("--num-cpus", type=int)
    ix.set_defaults(fn=cmd_index)

    wn = sub.add_parser("window", help="advance an event-time windowed "
                        "aggregation over the binlog (emit-on-watermark)")
    wn.add_argument("--binlog", required=True)
    wn.add_argument("--out-dir", required=True)
    wn.add_argument("--window-ms", type=int,
                    help="tumbling/sliding window width")
    wn.add_argument("--gap-ms", type=int,
                    help="SESSION windows instead: inactivity gap")
    wn.add_argument("--lateness-ms", type=int, default=0)
    wn.add_argument("--slide-ms", type=int,
                    help="hop size for sliding windows (divides window)")
    wn.add_argument("--group-col", default="op")
    wn.add_argument("--complete", action="store_true",
                    help="log finished: drain past the safe frontier")
    wn.add_argument("--slack", type=int, default=0,
                    help="frontier slack (lsns) for bounded intra-shard skew")
    wn.add_argument("--num-cpus", type=int)
    wn.set_defaults(fn=cmd_window)

    hhp = sub.add_parser("hh", help="streaming Misra-Gries heavy hitters "
                         "over the binlog (exactly-once, bounded state)")
    hhp.add_argument("--binlog", required=True)
    hhp.add_argument("--out-dir", required=True)
    hhp.add_argument("--k", type=int, default=16)
    hhp.add_argument("--group-col", default="op")
    hhp.add_argument("--complete", action="store_true")
    hhp.add_argument("--slack", type=int, default=0)
    hhp.add_argument("--num-cpus", type=int)
    hhp.set_defaults(fn=cmd_hh)

    ij = sub.add_parser("ijoin", help="stream-stream interval join over "
                        "two binlogs (emit matched pairs exactly once)")
    ij.add_argument("--left", required=True)
    ij.add_argument("--right", required=True)
    ij.add_argument("--out-dir", required=True)
    ij.add_argument("--lo-ms", type=int, required=True,
                    help="lower band edge (may be negative)")
    ij.add_argument("--hi-ms", type=int, required=True)
    ij.add_argument("--key-col", default="repo")
    ij.add_argument("--lateness-ms", type=int, default=0)
    ij.add_argument("--complete", action="store_true")
    ij.add_argument("--slack", type=int, default=0)
    ij.add_argument("--num-cpus", type=int)
    ij.set_defaults(fn=cmd_ijoin)

    a = p.parse_args(argv)
    return a.fn(a)


if __name__ == "__main__":
    sys.exit(main())
