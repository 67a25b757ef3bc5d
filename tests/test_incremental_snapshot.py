"""Incremental snapshot (DBLog-style snapshot-while-tailing):
CdcPipeline.run_incremental bootstraps an EMPTY lake and folds the base
table in as key-disjoint chunks (_lsn=0 delta files) interleaved with live
binlog epochs, retaining delete tombstones until the last chunk lands.
Final state must equal oracle.apply_events(events, initial=base) exactly
— same bar as the monolithic bootstrap path in test_cdc.py."""

from __future__ import annotations

import glob
import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from thor_ray import gen, oracle
from thor_ray.pipelines import CdcConfig, CdcPipeline
from thor_ray.sources.lake import fsck, read_lake
from thor_ray.state import load_manifests, read_snapshot_meta


@pytest.fixture(scope="module")
def fixture(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("incsnap"))
    base = gen.gen_base_table(n_repos=25, paths_per_repo=16, seed=31)  # 400 keys
    cfg = gen.BinlogConfig(n_events=8_000, n_shards=4, dup_rate=0.05,
                           shuffle_window=128, ddl_every=2_500,
                           delete_rate=0.10, update_rate=0.5, seed=31)
    log = gen.gen_binlog(base, cfg)
    # events are generated over `base`'s keys; these 80 extra rows are
    # base keys NO event ever touches — they reach the lake only through
    # the snapshot chunks, so a dropped/clobbered chunk fails loudly
    # (the interleave-loop stale-manifest bug passed with fixtures whose
    # base keys were all event-touched)
    extra = pa.table({
        "repo": pa.array([f"zz_only/base{i % 8}" for i in range(80)]),
        "path": pa.array([f"untouched/f{i:03d}.txt" for i in range(80)]),
        "commit": pa.array(["deadbeef"] * 80),
        "lang": pa.array(["txt"] * 80),
        "content": pa.array([f"base-only payload {i}" for i in range(80)],
                            type=pa.large_string()),
    })
    base = pa.concat_tables([base.select(extra.column_names), extra])
    binlog_dir = os.path.join(d, "binlog")
    log.write(binlog_dir)
    events = pa.concat_tables(log.shards)
    expected, _ = oracle.apply_events(events, initial=base)
    base_path = os.path.join(d, "base.parquet")
    pq.write_table(base, base_path)
    # a multi-file copy of the base exercises the by-file chunk plan
    split_dir = os.path.join(d, "base_split")
    os.makedirs(split_dir)
    n = base.num_rows
    for i, lo in enumerate(range(0, n, n // 5 + 1)):
        pq.write_table(base.slice(lo, n // 5 + 1),
                       os.path.join(split_dir, f"base-{i:03d}.parquet"))
    return {"dir": d, "base": base, "base_path": base_path,
            "split_dir": split_dir, "binlog_dir": binlog_dir,
            "expected": expected, "max_lsn": log.max_lsn}


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.where(pd.notna(df), None)
    return df.sort_values(["repo", "path"]).reset_index(drop=True)[
        sorted(df.columns)]


def make_pipe(fixture, lake_dir, **kw):
    cfg = CdcConfig(lake_dir=lake_dir, binlog_dir=fixture["binlog_dir"],
                    num_partitions=8, epoch_size=2_000, **kw)
    return CdcPipeline(cfg)


def assert_final(pipe, fixture):
    got = normalize(pipe.final_table().to_pandas())
    exp = normalize(fixture["expected"])
    assert len(got) == len(exp)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


@pytest.mark.parametrize("shuffle,write_mode", [("sort", "cow"),
                                                ("spill", "delta")])
def test_incremental_matches_oracle(ray_session, fixture, tmp_path,
                                    shuffle, write_mode):
    """Hash-mod chunk plan (single-file base), 4 epochs interleaved with
    5 chunks — final state identical to the monolithic-bootstrap oracle."""
    pipe = make_pipe(fixture, str(tmp_path / "lake"), shuffle=shuffle,
                     write_mode=write_mode)
    pipe.run_incremental(fixture["base_path"], n_chunks=5)
    assert_final(pipe, fixture)
    meta = read_snapshot_meta(pipe.cfg.lake_dir)
    assert meta == {"generation": 0, "n_chunks": 5, "done": 5,
                    "active": False}


def test_incremental_by_file_chunks(ray_session, fixture, tmp_path):
    """A base directory with >= n_chunks files splits BY FILE (no
    rescans); result identical."""
    pipe = make_pipe(fixture, str(tmp_path / "lake"))
    pipe.run_incremental(fixture["split_dir"], n_chunks=3)
    assert_final(pipe, fixture)


def test_tombstones_guard_resurrection_and_reads(ray_session, fixture,
                                                 tmp_path):
    """The core DBLog hazard: a key deleted by an event must stay deleted
    when its base chunk arrives LATER. Drive the loop by hand: all epochs
    first (deletes applied), then all chunks — and check mid-snapshot
    reads never surface tombstone rows."""
    pipe = make_pipe(fixture, str(tmp_path / "lake"))
    cfg = pipe.cfg
    pipe._check_engine_meta()
    pipe.bootstrap(None)
    from thor_ray.state import write_snapshot_meta
    chunks = pipe._plan_chunks(fixture["base_path"], 4)
    write_snapshot_meta(cfg.lake_dir, {"n_chunks": 4, "done": 0,
                                       "active": True})
    manifests = load_manifests(cfg.lake_dir)
    max_l = fixture["max_lsn"]
    e = 1
    while (e - 1) * cfg.epoch_size < max_l:
        pipe.run_epoch(e, manifests, ceiling=max_l)
        manifests = load_manifests(cfg.lake_dir)
        e += 1
    # every epoch applied, zero chunks in: visible rows must carry no
    # tombstones and no key the oracle says is deleted
    mid = read_lake(cfg.lake_dir, keep_internal=True).to_pandas()
    assert (mid["_op"] != "D").all()
    for i in range(4):
        pipe._inject_chunk(i, chunks[i]())
        meta = read_snapshot_meta(cfg.lake_dir)
        meta["done"] = i + 1
        write_snapshot_meta(cfg.lake_dir, meta)
    pipe.compact(all_partitions=True, _retain_tombstones=False)
    meta = read_snapshot_meta(cfg.lake_dir)
    meta["active"] = False
    write_snapshot_meta(cfg.lake_dir, meta)
    assert_final(pipe, fixture)


def test_resume_mid_snapshot(ray_session, fixture, tmp_path):
    """Kill after 2 of 5 chunks + part of the epochs; a fresh pipeline
    object resumes from snapshot.json + manifests and converges."""
    lake = str(tmp_path / "lake")
    pipe = make_pipe(fixture, lake)
    pipe.run_incremental(fixture["base_path"], n_chunks=5, max_epochs=2)
    meta = read_snapshot_meta(lake)
    # max_epochs=2 stops early but chunks drain in the post-loop; the
    # snapshot is already finalized — remaining epochs are plain tailing
    assert meta["active"] is False and meta["done"] == 5
    pipe2 = make_pipe(fixture, lake)
    pipe2.run_incremental(fixture["base_path"], n_chunks=5)
    assert_final(pipe2, fixture)


def test_crash_before_finalize_resumes(ray_session, fixture, tmp_path):
    """Simulate a crash between the last chunk and finalize: active stays
    true, tombstones are still in the files; a resume finalizes and the
    state is exact."""
    lake = str(tmp_path / "lake")
    pipe = make_pipe(fixture, lake)
    orig = pipe.compact
    boom = RuntimeError("crash before finalize")

    def crashing_compact(*a, **kw):
        raise boom

    pipe.compact = crashing_compact
    with pytest.raises(RuntimeError):
        pipe.run_incremental(fixture["base_path"], n_chunks=3)
    assert read_snapshot_meta(lake)["active"] is True
    # conservative read path: tombstones filtered even though files dirty
    vis = read_lake(lake).to_pandas()
    assert len(vis) == len(fixture["expected"])
    pipe2 = make_pipe(fixture, lake)
    pipe2.run_incremental(fixture["base_path"], n_chunks=3)
    assert read_snapshot_meta(lake)["active"] is False
    assert_final(pipe2, fixture)


def test_gc_removes_superseded_chunks_and_fsck_green(ray_session, fixture,
                                                     tmp_path):
    """After finalize, snap-c files are unreferenced and committed →
    gc'd; deep fsck passes on the finalized lake."""
    lake = str(tmp_path / "lake")
    pipe = make_pipe(fixture, lake)
    pipe.run_incremental(fixture["base_path"], n_chunks=4)
    from thor_ray.state import gc_lake
    gc_lake(lake, load_manifests(lake))
    assert glob.glob(os.path.join(lake, "part=*", "snap-*.parquet")) == []
    rep = fsck(lake, deep=True)
    assert rep["ok"], rep["errors"]


def test_patch_mode_rejected(ray_session, fixture, tmp_path):
    pipe = make_pipe(fixture, str(tmp_path / "lake"), update_mode="patch")
    with pytest.raises(ValueError, match="update_mode='full'"):
        pipe.run_incremental(fixture["base_path"], n_chunks=2)


def test_adhoc_snapshot_restores_lost_rows(ray_session, fixture, tmp_path):
    """Debezium execute-snapshot shape: a lake replayed WITHOUT its base
    (events only) is repaired by an ad-hoc snapshot whose source is the
    live-table image (= the oracle final): untouched base keys are
    restored, keys deleted by events stay deleted, event-written rows
    keep their state values."""
    lake = str(tmp_path / "lake")
    pipe = make_pipe(fixture, lake)
    pipe.run()                      # no base: events-only lake
    exp = fixture["expected"]
    src_path = str(tmp_path / "live_image.parquet")
    cols = [c for c in exp.columns]
    pq.write_table(pa.Table.from_pandas(exp[cols], preserve_index=False),
                   src_path)
    pipe.adhoc_snapshot(src_path, n_chunks=3)
    got = normalize(pipe.final_table().to_pandas())
    pd.testing.assert_frame_equal(got, normalize(exp), check_dtype=False)
    meta = read_snapshot_meta(lake)
    assert meta["active"] is False and meta["generation"] == 0


def test_adhoc_snapshot_midstream_with_predicate(ray_session, fixture,
                                                 tmp_path):
    """Ad-hoc snapshot taken at a mid-log frontier, interleaved with the
    remaining epochs: source reflects events <= F (the contract), deletes
    in (F, max] land during the snapshot window and must win via
    tombstone retention. A predicate narrows the snapshot to half the
    repos; base keys of the other repos stay missing."""
    lake = str(tmp_path / "lake")
    pipe = make_pipe(fixture, lake)
    F = fixture["max_lsn"] // 2
    pipe.run(until_lsn=F)           # events-only up to the frontier
    events = pa.concat_tables(
        [pq.read_table(f) for f in glob.glob(
            os.path.join(fixture["binlog_dir"], "shard-*.parquet"))])
    upto_f = events.filter(pa.compute.less_equal(events["lsn"], F))
    src, _ = oracle.apply_events(upto_f, initial=fixture["base"])
    src_path = str(tmp_path / "img_at_f.parquet")
    pq.write_table(pa.Table.from_pandas(src, preserve_index=False), src_path)

    import pyarrow.compute as pc
    keep = sorted(src["repo"].unique())[: len(src["repo"].unique()) // 2]
    keep_set = set(keep)

    def pred(t):
        return pc.is_in(t["repo"], value_set=pa.array(keep))

    pipe2 = make_pipe(fixture, lake)
    pipe2.adhoc_snapshot(src_path, n_chunks=3, predicate=pred)
    got = normalize(pipe2.final_table().to_pandas())

    # expected: full oracle, minus base-only rows of repos OUTSIDE the
    # predicate that no event ever wrote (they were never delivered)
    exp_full, _ = oracle.apply_events(events, initial=fixture["base"])
    evset = set(zip(*(events.column(c).to_pylist()
                      for c in ("repo", "path"))))
    mask = [r in keep_set or (r, p) in evset
            for r, p in zip(exp_full["repo"], exp_full["path"])]
    exp = normalize(exp_full[pd.Series(mask, index=exp_full.index)])
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    assert read_snapshot_meta(lake)["generation"] == 0


def test_adhoc_second_generation_after_incremental(ray_session, fixture,
                                                   tmp_path):
    """An adhoc snapshot over a lake built by run_incremental starts
    generation 1; its chunk files carry the new tag and the lake state is
    unchanged when the source equals the live image (idempotent repair)."""
    lake = str(tmp_path / "lake")
    pipe = make_pipe(fixture, lake)
    pipe.run_incremental(fixture["base_path"], n_chunks=3)
    before = normalize(pipe.final_table().to_pandas())
    exp = fixture["expected"]
    src_path = str(tmp_path / "img.parquet")
    pq.write_table(pa.Table.from_pandas(exp, preserve_index=False), src_path)
    pipe.adhoc_snapshot(src_path, n_chunks=2)
    meta = read_snapshot_meta(lake)
    assert meta == {"generation": 1, "n_chunks": 2, "done": 2,
                    "active": False}
    after = normalize(pipe.final_table().to_pandas())
    pd.testing.assert_frame_equal(after, before, check_dtype=False)


def test_adhoc_requires_live_lake(ray_session, fixture, tmp_path):
    pipe = make_pipe(fixture, str(tmp_path / "lake"))
    with pytest.raises(ValueError, match="live lake"):
        pipe.adhoc_snapshot(fixture["base_path"])
