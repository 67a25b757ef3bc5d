"""Log-growth tailing: the engine must apply a GROWING binlog incrementally
and still converge to the oracle state (SURVEY.md §2.1 S2 micro-batch tail;
the Kafka consumer-loop analogue)."""

from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from thor_ray import gen, oracle
from thor_ray.pipelines import CdcConfig, CdcPipeline
from thor_ray.sources import binlog as bs


@pytest.fixture(scope="module")
def grown(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("tail"))
    base = gen.gen_base_table(n_repos=10, paths_per_repo=10, seed=12)
    cfg = gen.BinlogConfig(n_events=8_000, n_shards=4, dup_rate=0.05,
                           shuffle_window=64, ddl_every=2_500, seed=12)
    log = gen.gen_binlog(base, cfg)
    events = pa.concat_tables(log.shards)
    expected, _ = oracle.apply_events(events, initial=base)
    base_path = os.path.join(d, "base.parquet")
    pq.write_table(base, base_path)
    return {"dir": d, "log": log, "base_path": base_path, "expected": expected}


def check(pipe, expected):
    got = pipe.final_table().to_pandas()
    got = got.where(pd.notna(got), None).sort_values(["repo", "path"]) \
        .reset_index(drop=True)[sorted(got.columns)]
    exp = expected.where(pd.notna(expected), None) \
        .sort_values(["repo", "path"]).reset_index(drop=True)[sorted(expected.columns)]
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_two_phase_growth(ray_session, grown, tmp_path):
    """Write half the segments, replay; write the rest, replay again —
    the resumed run must pick up exactly where the watermarks left off."""
    binlog_dir = str(tmp_path / "binlog")
    grown["log"].write_segments(binlog_dir, n_segments=4, first=0, last=2)
    cfg = CdcConfig(lake_dir=str(tmp_path / "lake"), binlog_dir=binlog_dir,
                    num_partitions=8, epoch_size=1_000)
    pipe = CdcPipeline(cfg)
    # only complete epochs below the safe frontier while the log grows
    frontier = bs.safe_frontier(binlog_dir, slack=250)
    pipe.run(base=grown["base_path"],
             until_lsn=(frontier // 1_000) * 1_000)
    assert len(pipe.reports) >= 2
    # the log grows
    grown["log"].write_segments(binlog_dir, n_segments=4, first=2, last=4)
    pipe2 = CdcPipeline(cfg)
    pipe2.run()  # resume + drain to the new end
    check(pipe2, grown["expected"])


def test_follow_drains_and_stops(ray_session, grown, tmp_path):
    binlog_dir = str(tmp_path / "binlog")
    grown["log"].write_segments(binlog_dir, n_segments=2)
    cfg = CdcConfig(lake_dir=str(tmp_path / "lake"), binlog_dir=binlog_dir,
                    num_partitions=8, epoch_size=2_000)
    pipe = CdcPipeline(cfg)
    pipe.follow(poll_sec=0.05, idle_polls=2, base=grown["base_path"])
    check(pipe, grown["expected"])


def test_follow_on_apply_keeps_consumers_current(ray_session, grown,
                                                 tmp_path):
    """The connected-pipeline hook: follow(on_apply=[index.advance])
    advances a secondary index after every applied batch, so at drain the
    index answers current probes with no manual catch-up. (ddl_every=0
    variant — the index requires uncompacted level-0 runs.)"""
    binlog_dir = str(tmp_path / "binlog")
    base = gen.gen_base_table(n_repos=10, paths_per_repo=10, seed=21)
    log = gen.gen_binlog(base, gen.BinlogConfig(
        n_events=6_000, n_shards=3, ddl_every=0, seed=21))
    log.write_segments(binlog_dir, n_segments=2)
    base_path = os.path.join(str(tmp_path), "base.parquet")
    pq.write_table(base, base_path)

    from thor_ray.sources.secondary import SecondaryIndex
    cfg = CdcConfig(lake_dir=str(tmp_path / "lake"), binlog_dir=binlog_dir,
                    num_partitions=8, epoch_size=2_000, write_mode="delta",
                    compact_every=1_000_000)
    pipe = CdcPipeline(cfg)
    idx = SecondaryIndex(cfg.lake_dir, str(tmp_path / "idx"), "lang")
    from thor_ray.pipelines.stream_window import WindowedAggregator
    wagg = WindowedAggregator(binlog_dir, str(tmp_path / "wagg"),
                              window_us=500_000, lateness_us=500_000)
    calls = []
    pipe.follow(poll_sec=0.05, idle_polls=2, base=base_path,
                on_apply=[idx.advance, wagg.advance,
                          lambda: calls.append(1)])
    assert calls                            # hook fired at least once
    wagg.advance(complete=True)             # drain the stream-window tail
    # every data event of the log is accounted once across emitted+open
    import glob as _glob
    _ev = pd.concat([pq.read_table(f, columns=["lsn", "op"]).to_pandas()
                     for f in _glob.glob(os.path.join(
                         binlog_dir, "shard-*.parquet"))])
    # exactly-once accounting: the consumer's lsn dedup drops the log's
    # at-least-once re-delivered copies
    n_data = int((_ev.drop_duplicates("lsn")["op"] != "DDL").sum())
    n_agg = int(wagg.emitted()["n"].sum() + wagg.open_windows()["n"].sum())
    assert n_agg == n_data and wagg.late_events() == 0
    from thor_ray.state import load_manifests
    cur = min(m.epoch for m in load_manifests(cfg.lake_dir).values())
    assert idx.epoch() == cur               # index is current at drain
    df = pipe.final_table().to_pandas()
    v = sorted(df["lang"].dropna().unique())[0]
    exp = df.loc[df["lang"] == v, ["repo", "path"]] \
        .sort_values(["repo", "path"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(idx.probe_local(v), exp)


def test_shard_frontiers(grown, tmp_path):
    binlog_dir = str(tmp_path / "binlog")
    grown["log"].write_segments(binlog_dir, n_segments=4, first=0, last=2)
    fr = bs.shard_frontiers(binlog_dir)
    assert len(fr) == 4
    # half the log written -> frontier well below max, above zero
    assert 0 < bs.safe_frontier(binlog_dir) < 8_000
    grown["log"].write_segments(binlog_dir, n_segments=4, first=2, last=4)
    assert bs.safe_frontier(binlog_dir) > 7_000


def test_read_lineage(ray_session, grown, tmp_path):
    from thor_ray.sources import read_lineage
    binlog_dir = str(tmp_path / "binlog")
    grown["log"].write_segments(binlog_dir, n_segments=1)
    cfg = CdcConfig(lake_dir=str(tmp_path / "lake"), binlog_dir=binlog_dir,
                    num_partitions=4, epoch_size=4_000)
    CdcPipeline(cfg).run(base=grown["base_path"])
    ep = read_lineage(cfg.lake_dir, kind="epoch")
    pt = read_lineage(cfg.lake_dir, kind="partition")
    assert len(ep) == 2 and (ep["events_per_sec"] > 0).all()
    assert len(pt) == 8 and set(pt["pid"]) == set(range(4))
    # event accounting: per-partition event counts sum to the epoch totals
    assert pt["events"].sum() == ep["n_events"].sum()


def test_partial_epoch_growth_no_loss(ray_session, grown, tmp_path):
    """Regression: a run against a log cut MID-EPOCH must clamp the
    committed watermark to the observed max lsn — events arriving later in
    the same epoch range must still be applied (previously silently
    watermark-dropped)."""
    binlog_dir = str(tmp_path / "binlog")
    # 8 segments -> first 3 end mid-epoch for epoch_size=2000 (~3000 lsns)
    grown["log"].write_segments(binlog_dir, n_segments=8, first=0, last=3)
    cfg = CdcConfig(lake_dir=str(tmp_path / "lake"), binlog_dir=binlog_dir,
                    num_partitions=8, epoch_size=2_000)
    pipe = CdcPipeline(cfg)
    # the log may still grow -> complete=False drains only to the safe
    # frontier (a lagging shard's undelivered lower-lsn events stay safe)
    pipe.run(base=grown["base_path"], complete=False)
    from thor_ray.state import load_manifests
    upto = min(m.upto_lsn for m in load_manifests(cfg.lake_dir).values())
    assert upto < 8_000, "must not have drained to the (unseen) log end"
    # log grows within the same epoch range and beyond
    grown["log"].write_segments(binlog_dir, n_segments=8, first=3, last=8)
    pipe2 = CdcPipeline(cfg)
    pipe2.run()
    check(pipe2, grown["expected"])


def test_registry_persisted_before_manifests(ray_session, grown, tmp_path):
    """Regression: the registry is saved BEFORE manifest swaps; a 'crash'
    leaving the registry ahead of the manifests must replay cleanly (the
    lsn-keyed merge is idempotent)."""
    binlog_dir = str(tmp_path / "binlog")
    grown["log"].write_segments(binlog_dir, n_segments=1)
    cfg = CdcConfig(lake_dir=str(tmp_path / "lake"), binlog_dir=binlog_dir,
                    num_partitions=4, epoch_size=2_000)
    pipe = CdcPipeline(cfg)
    pipe.run(base=grown["base_path"], max_epochs=2)  # epoch 2 contains a DDL
    from thor_ray.state import SchemaRegistry, load_manifests
    import thor_ray.state.manifest as mmod
    reg_after = SchemaRegistry.load(cfg.lake_dir)
    assert reg_after.version >= 1
    # simulate crash-after-registry-save-before-manifests: rewind manifests
    for pid, m in load_manifests(cfg.lake_dir).items():
        m.epoch, m.upto_lsn, m.schema_ver = 1, 2_000, 0
        mmod.write_manifest(cfg.lake_dir, m)
    pipe2 = CdcPipeline(cfg)
    pipe2.run()
    check(pipe2, grown["expected"])


def test_safe_frontier_undelivered_shard(grown, tmp_path):
    """A declared shard with no files yet must pin the frontier at 0 —
    otherwise the min over *present* shards commits watermarks past the
    missing shard's future lower-lsn events (ADVICE round 1)."""
    binlog_dir = str(tmp_path / "binlog")
    grown["log"].write_segments(binlog_dir, n_segments=4, first=0, last=2)
    # drop one shard's files: declared in _shards.json but not delivered
    removed = [f for f in os.listdir(binlog_dir) if f.startswith("shard-0002")]
    assert removed
    for f in removed:
        os.remove(os.path.join(binlog_dir, f))
    assert bs.safe_frontier(binlog_dir) == 0
    # explicit expectation overrides the marker
    assert bs.safe_frontier(binlog_dir, expected=["shard-0000"]) > 0


def test_empty_binlog_run_commits_nothing(ray_session, grown, tmp_path):
    """run_epoch against an empty binlog must clamp hi to the (zero)
    ceiling: upto_lsn stays 0, no watermark overcommit (ADVICE round 1)."""
    binlog_dir = str(tmp_path / "binlog")
    os.makedirs(binlog_dir, exist_ok=True)
    cfg = CdcConfig(lake_dir=str(tmp_path / "lake"), binlog_dir=binlog_dir,
                    num_partitions=4, epoch_size=1_000)
    pipe = CdcPipeline(cfg)
    pipe.bootstrap(grown["base_path"])
    pipe.run_epoch(1)
    from thor_ray.state import load_manifests
    assert all(m.upto_lsn == 0 for m in load_manifests(cfg.lake_dir).values())


def test_lake_relocation_resume(ray_session, grown, tmp_path):
    """Manifests store lake-relative file paths: a lake moved to a new
    mount point must resume (and GC correctly) from the new location."""
    import shutil
    binlog_dir = str(tmp_path / "binlog")
    grown["log"].write_segments(binlog_dir, n_segments=2)
    lake_a = str(tmp_path / "lake_a")
    cfg = CdcConfig(lake_dir=lake_a, binlog_dir=binlog_dir,
                    num_partitions=4, epoch_size=2_000)
    CdcPipeline(cfg).run(base=grown["base_path"], max_epochs=1)
    lake_b = str(tmp_path / "lake_b")
    shutil.move(lake_a, lake_b)
    from thor_ray.state import load_manifests
    assert all(os.path.exists(f)
               for m in load_manifests(lake_b).values() for f in m.files)
    cfg_b = CdcConfig(lake_dir=lake_b, binlog_dir=binlog_dir,
                      num_partitions=4, epoch_size=2_000)
    pipe = CdcPipeline(cfg_b)
    pipe.run()
    check(pipe, grown["expected"])


def test_jsonl_binlog_replay(ray_session, grown, tmp_path):
    """S2 contract over the JSONL wire tier: the same log written as
    shard-*.jsonl must replay to the identical final state (same lsn
    pushdown API, post-parse filtering instead of row-group stats)."""
    binlog_dir = str(tmp_path / "binlog_jsonl")
    grown["log"].write_jsonl(binlog_dir)
    assert bs.binlog_format(binlog_dir) == "jsonl"
    assert bs.max_lsn(binlog_dir) == 8_000
    assert len(bs.shard_frontiers(binlog_dir)) == 4
    cfg = CdcConfig(lake_dir=str(tmp_path / "lake"), binlog_dir=binlog_dir,
                    num_partitions=8, epoch_size=2_000)
    pipe = CdcPipeline(cfg)
    pipe.run(base=grown["base_path"])
    check(pipe, grown["expected"])


def test_jsonl_gz_binlog_replay(ray_session, grown, tmp_path):
    """S2 contract over the gzip-compressed JSONL wire tier (the
    compressed JSON wire real log shippers emit): same lsn/frontier
    contract, decompression inside the read tasks."""
    binlog_dir = str(tmp_path / "binlog_gz")
    paths = grown["log"].write_jsonl(binlog_dir, gzip=True)
    assert all(p.endswith(".jsonl.gz") for p in paths)
    assert bs.binlog_format(binlog_dir) == "jsonl.gz"
    assert bs.max_lsn(binlog_dir) == 8_000
    assert len(bs.shard_frontiers(binlog_dir)) == 4
    cfg = CdcConfig(lake_dir=str(tmp_path / "lake"), binlog_dir=binlog_dir,
                    num_partitions=8, epoch_size=2_000)
    pipe = CdcPipeline(cfg)
    pipe.run(base=grown["base_path"])
    check(pipe, grown["expected"])


def test_csv_binlog_replay(ray_session, grown, tmp_path):
    """S2 contract over the CSV wire tier (StringConverter analogue)."""
    binlog_dir = str(tmp_path / "binlog_csv")
    grown["log"].write_csv(binlog_dir)
    assert bs.binlog_format(binlog_dir) == "csv"
    assert bs.max_lsn(binlog_dir) == 8_000
    cfg = CdcConfig(lake_dir=str(tmp_path / "lake"), binlog_dir=binlog_dir,
                    num_partitions=8, epoch_size=2_000)
    pipe = CdcPipeline(cfg)
    pipe.run(base=grown["base_path"])
    check(pipe, grown["expected"])


def test_tolerant_jsonl_parse_dlq(ray_session, grown, tmp_path):
    """errors.tolerance analogue: a corrupt JSONL shard line (a) fails
    the strict run, (b) with text_errors='dlq' is skipped, recorded under
    _parse_dlq, and the replay matches the clean-event oracle."""
    import glob
    import pytest as _pytest

    binlog_dir = str(tmp_path / "binlog_tol")
    grown["log"].write_jsonl(binlog_dir)
    victim = sorted(glob.glob(os.path.join(binlog_dir, "shard-*.jsonl")))[0]
    with open(victim, "a") as f:
        f.write('{"lsn": "NOT-A-NUMBER", "op": %%% garbage\n')
        f.write('also not json at all\n')
    strict = CdcConfig(lake_dir=str(tmp_path / "lake_strict"),
                       binlog_dir=binlog_dir,
                       num_partitions=4, epoch_size=4_000)
    with _pytest.raises(Exception):
        CdcPipeline(strict).run(base=grown["base_path"])
    cfg = CdcConfig(lake_dir=str(tmp_path / "lake_dlq"),
                    binlog_dir=binlog_dir,
                    num_partitions=4, epoch_size=4_000,
                    text_errors="dlq")
    pipe = CdcPipeline(cfg)
    pipe.run(base=grown["base_path"])
    check(pipe, grown["expected"])
    bad = glob.glob(os.path.join(binlog_dir, "_parse_dlq", "*.bad"))
    assert len(bad) == 1
    assert len(open(bad[0]).read().strip().splitlines()) == 2


@pytest.mark.parametrize("tier", ["jsonl", "gz", "csv"])
def test_compact_text_shards_to_parquet(ray_session, grown, tmp_path,
                                        tier):
    """Text→parquet binlog compaction mid-replay: run one epoch on the
    text tier, compact, resume on the parquet tier — frontiers, format
    and final state all line up with the oracle."""
    binlog_dir = str(tmp_path / "binlog")
    if tier == "jsonl":
        grown["log"].write_jsonl(binlog_dir)
    elif tier == "gz":
        grown["log"].write_jsonl(binlog_dir, gzip=True)
    else:
        grown["log"].write_csv(binlog_dir)
    pre_max = bs.max_lsn(binlog_dir)
    cfg = CdcConfig(lake_dir=str(tmp_path / "lake"), binlog_dir=binlog_dir,
                    num_partitions=4, epoch_size=2_000)
    pipe = CdcPipeline(cfg)
    pipe.run(base=grown["base_path"], max_epochs=1)
    n = bs.compact_text_shards(binlog_dir)
    assert n == 4
    assert bs.binlog_format(binlog_dir) == "parquet"
    assert bs.max_lsn(binlog_dir) == pre_max
    assert len(bs.shard_frontiers(binlog_dir)) == 4
    # idempotent: nothing left to convert
    assert bs.compact_text_shards(binlog_dir) == 0
    pipe2 = CdcPipeline(cfg)
    pipe2.run()
    check(pipe2, grown["expected"])


def test_heartbeat_feed(ray_session, grown, tmp_path):
    """follow() appends one heartbeat record per poll — liveness + lag
    telemetry (Debezium heartbeat-topic analogue) — and after the drain
    the committed watermark has caught up to the log head (lag 0)."""
    import json

    binlog_dir = str(tmp_path / "binlog")
    grown["log"].write_segments(binlog_dir, n_segments=2)
    lake = str(tmp_path / "lake")
    cfg = CdcConfig(lake_dir=lake, binlog_dir=binlog_dir,
                    num_partitions=8, epoch_size=2_000)
    pipe = CdcPipeline(cfg)
    pipe.follow(poll_sec=0.05, idle_polls=2, base=grown["base_path"])
    with open(os.path.join(lake, "_heartbeat.jsonl")) as f:
        beats = [json.loads(ln) for ln in f if ln.strip()]
    assert len(beats) >= 2
    for b in beats:
        assert b["type"] == "heartbeat"
        assert set(b) >= {"ts_ms", "max_lsn", "safe_frontier",
                          "committed_watermark", "lag_lsn"}
        assert b["lag_lsn"] == max(b["max_lsn"] - b["committed_watermark"], 0)
    # monotone: the committed watermark never regresses across polls
    wms = [b["committed_watermark"] for b in beats]
    assert wms == sorted(wms)


def test_schema_change_feed(ray_session, grown, tmp_path):
    """Every folded DDL lands in the schema-change feed with the resolved
    post-change column set, in lsn order, matching the stored registry
    timeline; replaying a committed epoch does not duplicate records."""
    binlog_dir = str(tmp_path / "binlog")
    grown["log"].write_segments(binlog_dir, n_segments=2)
    lake = str(tmp_path / "lake")
    cfg = CdcConfig(lake_dir=lake, binlog_dir=binlog_dir,
                    num_partitions=8, epoch_size=2_000)
    pipe = CdcPipeline(cfg)
    pipe.run(base=grown["base_path"])
    from thor_ray.state import SchemaRegistry
    reg = SchemaRegistry.load(lake)
    feed = pipe.schema_changes()
    assert len(feed) == len(reg.entries) > 0
    assert [r["lsn"] for r in feed] == [e["lsn"] for e in reg.entries]
    for i, r in enumerate(feed):
        assert r["schema_ver"] == i + 1
        assert r["columns_after"] == reg.columns_at(i + 1)
        assert r["types_after"] == reg.types_at(i + 1)
        assert r["rejected"] is None
    # idempotent on replay: re-running epoch 1 rewrites, never appends
    pipe.run_epoch(1)
    assert len(pipe.schema_changes()) == len(feed)


def test_envelope_binlog_replay(ray_session, grown, tmp_path):
    """S2 contract over the Debezium-envelope wire: write the log as
    shard-*.envelope.jsonl, convert with envelope_to_binlog (lossless —
    deletes' keys from the record key, position from source.ts_us/lsn,
    DDLs from op='ddl' lines), replay the converted parquet tier to the
    identical final state. The converted shard set keeps frontier
    identity with the parquet tier."""
    import pyarrow.compute as pc

    wire_dir = str(tmp_path / "binlog_env")
    grown["log"].write_envelope(wire_dir)
    binlog_dir = str(tmp_path / "binlog_conv")
    n = bs.envelope_to_binlog(wire_dir, binlog_dir)
    assert n == 4
    assert bs.binlog_format(binlog_dir) == "parquet"
    assert bs.max_lsn(binlog_dir) == 8_000
    assert sorted(bs.shard_frontiers(binlog_dir)) == \
        [f"shard-{i:04d}" for i in range(4)]
    # converted events equal the originals column-for-column; the one
    # legal difference: a delete's after-image is null on the wire, so
    # payload columns of D rows come back null (orig carries extra='{}'
    # there — semantically identical, the apply ignores a D's payload)
    orig = pa.concat_tables(grown["log"].shards).sort_by("lsn")
    conv = pa.concat_tables(
        [__import__("pyarrow.parquet", fromlist=["pq"]).read_table(p)
         for p in bs.shard_files(binlog_dir)]).sort_by("lsn")
    assert conv.num_rows == orig.num_rows
    not_d = pc.not_equal(pc.fill_null(orig["op"], ""), "D")
    payload = {"commit", "lang", "content", "extra"}
    for col in orig.column_names:
        oc, cc = orig[col], conv[col]
        if col in payload:
            oc, cc = oc.filter(not_d), cc.filter(not_d)
        assert pc.all(pc.equal(
            pc.is_null(cc), pc.is_null(oc))).as_py(), col
        ok = pc.all(pc.equal(cc, oc))
        assert ok.as_py() in (True, None), col
    cfg = CdcConfig(lake_dir=str(tmp_path / "lake"), binlog_dir=binlog_dir,
                    num_partitions=8, epoch_size=2_000)
    pipe = CdcPipeline(cfg)
    pipe.run(base=grown["base_path"])
    check(pipe, grown["expected"])


def test_live_produce_follow_consumers(ray_session, tmp_path):
    """The whole Connect loop, live: a producer THREAD appends event
    waves while follow() tails the growing log; on_apply keeps a
    SinkConnector and a SecondaryIndex current. At drain the lake equals
    the oracle fold of everything produced, the sink has consumed the
    full changefeed exactly-once, and the index answers current probes."""
    import glob as _glob
    import threading
    import time

    from thor_ray.sources import (BinlogProducer, SinkConnector,
                                  read_produced_events)
    from thor_ray.sources.lake import read_changefeed
    from thor_ray.sources.secondary import SecondaryIndex

    bdir = str(tmp_path / "binlog")
    base = gen.gen_base_table(n_repos=8, paths_per_repo=8, seed=33)
    base_path = str(tmp_path / "base.parquet")
    pq.write_table(base, base_path)
    keys = base.select(["repo", "path"]).to_pylist()
    langs = ["py", "go", "rs"]

    def produce():
        with BinlogProducer(bdir, n_shards=3) as prod:
            for w in range(6):
                for i in range(100):
                    kv = keys[(w * 31 + i) % len(keys)]
                    if (w + i) % 11 == 0:
                        prod.append("D", kv["repo"], kv["path"])
                    else:
                        prod.append("U", kv["repo"], kv["path"],
                                    commit=f"w{w}i{i}",
                                    lang=langs[(w + i) % 3],
                                    content=f"wave {w} body {i}")
                prod.flush()
                time.sleep(0.15)

    cfg = CdcConfig(lake_dir=str(tmp_path / "lake"), binlog_dir=bdir,
                    num_partitions=6, epoch_size=100, write_mode="delta",
                    compact_every=1_000_000)
    pipe = CdcPipeline(cfg)
    # producer declares the binlog (shards marker) before follow starts
    BinlogProducer(bdir, n_shards=3)
    sink = SinkConnector(cfg.lake_dir, str(tmp_path / "sink"), "exporter")
    idx = SecondaryIndex(cfg.lake_dir, str(tmp_path / "idx"), "lang")
    t = threading.Thread(target=produce)
    t.start()
    try:
        pipe.follow(poll_sec=0.2, idle_polls=8, base=base_path,
                    on_apply=[sink.advance, idx.advance])
    finally:
        t.join()

    events = read_produced_events(bdir)
    assert events.num_rows == 600
    expected, _ = oracle.apply_events(events, initial=base)

    def norm(df):
        df = df.where(pd.notna(df), None)
        return df.sort_values(["repo", "path"]).reset_index(drop=True)[
            sorted(df.columns)]

    got = norm(pipe.final_table().to_pandas())
    pd.testing.assert_frame_equal(got, norm(expected), check_dtype=False)

    # the sink consumed every epoch exactly-once and its segments fold
    # the complete changefeed
    from thor_ray.state import load_manifests
    cur = min(m.epoch for m in load_manifests(cfg.lake_dir).values())
    assert sink.consumer.committed() == cur and sink.consumer.lag() == 0
    files = _glob.glob(str(tmp_path / "sink" / "epoch=*" / "*.parquet"))
    sunk = pd.concat([pq.read_table(f).to_pandas() for f in files],
                     ignore_index=True)
    feed = read_changefeed(cfg.lake_dir, 0, cur).to_pandas()

    def norm_feed(df):
        df = df.where(pd.notna(df), None)
        return df.sort_values(["repo", "path", "lsn"]).reset_index(
            drop=True)[sorted(df.columns)]

    pd.testing.assert_frame_equal(norm_feed(sunk), norm_feed(feed),
                                  check_dtype=False)

    # the index is current at drain
    assert idx.epoch() == cur
    df = pipe.final_table().to_pandas()
    v = sorted(df["lang"].dropna().unique())[0]
    exp = df.loc[df["lang"] == v, ["repo", "path"]] \
        .sort_values(["repo", "path"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(idx.probe_local(v), exp)


def test_transaction_feed(ray_session, tmp_path):
    """Transaction metadata feed (Debezium transaction-topic analogue):
    per-txn event counts and lsn spans match a pandas recount; multi-
    event transactions are represented whole."""
    base = gen.gen_base_table(n_repos=8, paths_per_repo=8, seed=62)
    log = gen.gen_binlog(base, gen.BinlogConfig(
        n_events=3_000, n_shards=3, ddl_every=1_000, delete_rate=0.06,
        update_rate=0.5, seed=62))
    binlog_dir = str(tmp_path / "binlog")
    log.write(binlog_dir)
    got = bs.transaction_feed(binlog_dir).to_pandas() \
        .sort_values("txn").reset_index(drop=True)

    ev = pa.concat_tables(log.shards).to_pandas()
    ev = ev[ev["op"] != "DDL"]   # read_epoch serves data events only
    want = ev.groupby("txn").agg(
        n_events=("lsn", "size"),
        n_i=("op", lambda s: int((s == "I").sum())),
        n_u=("op", lambda s: int((s == "U").sum())),
        n_d=("op", lambda s: int((s == "D").sum())),
        lsn_min=("lsn", "min"), lsn_max=("lsn", "max"),
    ).reset_index().sort_values("txn").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got.astype({c: "int64" for c in got.columns}), want,
        check_dtype=False)
    assert (want["n_events"] > 1).any()   # multi-event txns exercised


def test_compact_binlog_keys(ray_session, tmp_path):
    """Kafka log compaction: replaying the key-compacted log folds to the
    SAME final lake state (deletes and DDLs retained), per-shard
    frontiers are unchanged, the log shrinks, and the retention fence
    does NOT fire (compaction keeps every offset readable, unlike the
    archive's prefix deletion)."""
    import shutil

    from thor_ray.pipelines.stream_window import WindowedAggregator
    from thor_ray.sources.binlog import (compact_binlog_keys,
                                         retention_floor,
                                         shard_frontiers)

    work = str(tmp_path)
    base = gen.gen_base_table(n_repos=15, paths_per_repo=10, seed=103)
    log = gen.gen_binlog(base, gen.BinlogConfig(
        n_events=5_000, n_shards=3, delete_rate=0.10,
        ddl_every=1_500, seed=103))
    b1 = os.path.join(work, "orig")
    log.write(b1)
    b2 = os.path.join(work, "compacted")
    shutil.copytree(b1, b2)

    fr_before = shard_frontiers(b2)
    rep = compact_binlog_keys(b2)
    assert rep["events_out"] < rep["events_in"]
    assert shard_frontiers(b2) == fr_before
    assert retention_floor(b2) == 0          # compaction ≠ deletion

    def replay(bdir, name):
        base_path = os.path.join(work, "base.parquet")
        if not os.path.exists(base_path):
            pq.write_table(base, base_path)
        cfg = CdcConfig(lake_dir=os.path.join(work, name),
                        binlog_dir=bdir, num_partitions=6,
                        epoch_size=2_000)
        pipe = CdcPipeline(cfg)
        pipe.run(base=base_path)
        return pipe.final_table().to_pandas().sort_values(
            ["repo", "path"]).reset_index(drop=True)

    a = replay(b1, "lake_orig")
    b = replay(b2, "lake_kc")
    pd.testing.assert_frame_equal(a, b)

    # a fresh stream consumer reads the compacted log without tripping
    # the fence, and sees exactly the kept events
    w = WindowedAggregator(b2, os.path.join(work, "wagg"), 500_000)
    w.advance(complete=True)
    total = int(w.emitted()["n"].sum() + w.open_windows()["n"].sum())
    n_ddl_and_bad = rep["events_out"] - total
    assert total > 0 and n_ddl_and_bad >= 0

    # idempotent: a second compaction of the already-compacted log keeps
    # the same event set (nothing more to fold away per key)
    rep2 = compact_binlog_keys(b2)
    assert rep2["events_out"] == rep["events_out"]
    c = replay(b2, "lake_kc2")
    pd.testing.assert_frame_equal(a, c)


def test_compact_binlog_keys_refuses_patch_logs(tmp_path):
    """Key compaction on a partial-image (patch-mode) log would drop
    field values the kept patches do not carry — refused loudly (Kafka
    compaction requires full values; the marker travels in
    _shards.json)."""
    from thor_ray.sources.binlog import compact_binlog_keys

    base = gen.gen_base_table(n_repos=8, paths_per_repo=6, seed=109)
    log = gen.gen_binlog(base, gen.BinlogConfig(
        n_events=500, n_shards=2, seed=109, update_mode="patch"))
    bdir = str(tmp_path / "binlog")
    log.write(bdir)
    with pytest.raises(ValueError, match="partial-image"):
        compact_binlog_keys(bdir)


def test_cyclic_view_k_pass_equals_one_pass(ray_session, grown, tmp_path):
    """The K-pass cyclic replay view (bench load-amplification tier):
    max_lsn is K×span, every pass re-delivers the data events at shifted
    lsns, DDLs replay once, and the final lake state equals the 1-pass
    replay exactly (identical last-writer-wins updates per pass)."""
    binlog_dir = str(tmp_path / "binlog")
    grown["log"].write(binlog_dir)
    span = bs.max_lsn(binlog_dir)

    view = str(tmp_path / "cyclic3")
    meta = bs.write_cyclic_view(view, binlog_dir, passes=3)
    assert meta["span"] == span
    assert bs.max_lsn(view) == 3 * span
    assert bs.safe_frontier(view, slack=0) == \
        2 * span + bs.safe_frontier(binlog_dir, slack=0)

    # pass-1 reads come back shifted and DDL-free
    t = bs.read_epoch(view, span, span + 500,
                      columns=["lsn", "op", "repo"]).to_pandas()
    assert t["lsn"].between(span + 1, span + 500).all()
    base_t = bs.read_epoch(binlog_dir, 0, 500,
                           columns=["lsn", "op", "repo"]).to_pandas()
    assert sorted(t["lsn"] - span) == sorted(base_t["lsn"])
    # DDLs only in pass 0
    assert bs.read_ddl_events(view, span, 3 * span) == []
    ddl0 = bs.read_ddl_events(view, 0, span)
    assert ddl0 == bs.read_ddl_events(binlog_dir, 0, span)
    assert len(ddl0) > 0   # fixture carries DDLs

    # K-pass replay converges to the same final table as one pass
    pipe = CdcPipeline(CdcConfig(
        lake_dir=str(tmp_path / "lake_cyc"), binlog_dir=view,
        num_partitions=8, epoch_size=2_000))
    pipe.run(base=grown["base_path"])
    n_applied = sum(r.n_events for r in pipe.reports)
    assert n_applied >= 3 * 7_000   # ~3x the dedup'd event count
    check(pipe, grown["expected"])


def test_cyclic_view_property_epoch_grids(ray_session, grown, tmp_path):
    """Property: the K-pass cyclic replay converges to the 1-pass state
    for epoch grids that do and do NOT align with the pass boundary
    (read ranges spanning passes exercise the per-pass split/union), and
    events applied grow ~K-fold."""
    binlog_dir = str(tmp_path / "binlog")
    grown["log"].write(binlog_dir)
    view = str(tmp_path / "cyc")
    bs.write_cyclic_view(view, binlog_dir, passes=2)
    span = bs.max_lsn(binlog_dir)
    for i, epoch_size in enumerate((2_000, 3_000, 7_000)):
        # 3000/7000 do not divide span*2 evenly; 7000 spans a boundary
        pipe = CdcPipeline(CdcConfig(
            lake_dir=str(tmp_path / f"lake{i}"), binlog_dir=view,
            num_partitions=8, epoch_size=epoch_size))
        pipe.run(base=grown["base_path"])
        n = sum(r.n_events for r in pipe.reports)
        assert n >= 2 * 7_000, (epoch_size, n)
        check(pipe, grown["expected"])
