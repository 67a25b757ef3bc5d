"""Flagship correctness: distributed replay == single-process oracle
(SURVEY.md §5.3–5.4 metamorphic suite; BASELINE.json:6,15 invariants)."""

from __future__ import annotations

import contextlib
import glob
import json
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from thor_ray import gen, oracle
from thor_ray.pipelines import CdcConfig, CdcPipeline
from thor_ray.state import load_manifests


@pytest.fixture(scope="module")
def fixture(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("cdcfix"))
    base = gen.gen_base_table(n_repos=30, paths_per_repo=20, seed=9)  # 600 keys
    cfg = gen.BinlogConfig(n_events=12_000, n_shards=4, dup_rate=0.06,
                           shuffle_window=128, ddl_every=3_000,
                           delete_rate=0.07, update_rate=0.55, seed=9)
    log = gen.gen_binlog(base, cfg)
    binlog_dir = os.path.join(d, "binlog")
    log.write(binlog_dir)
    events = pa.concat_tables(log.shards)
    expected, ddls = oracle.apply_events(events, initial=base)
    import pyarrow.parquet as pq
    base_path = os.path.join(d, "base.parquet")
    pq.write_table(base, base_path)
    return {"dir": d, "base": base, "base_path": base_path,
            "binlog_dir": binlog_dir, "expected": expected, "ddls": ddls,
            "max_lsn": log.max_lsn}


def run_pipeline(fixture, lake_dir, epoch_size=2_500, P=8, shuffle="spill", **kw):
    cfg = CdcConfig(lake_dir=lake_dir, binlog_dir=fixture["binlog_dir"],
                    num_partitions=P, epoch_size=epoch_size, shuffle=shuffle)
    pipe = CdcPipeline(cfg)
    pipe.run(base=fixture["base_path"], **kw)
    return pipe


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.where(pd.notna(df), None)
    return df.sort_values(["repo", "path"]).reset_index(drop=True)[
        sorted(df.columns)]


def assert_matches_oracle(pipe: CdcPipeline, fixture):
    got = normalize(pipe.final_table().to_pandas())
    exp = normalize(fixture["expected"])
    assert list(got.columns) == list(exp.columns), (got.columns, exp.columns)
    assert len(got) == len(exp)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    # the BASELINE.json:15 invariant explicitly
    assert oracle.content_sha(got).tolist() == oracle.content_sha(exp).tolist()


@pytest.mark.parametrize("shuffle", ["sort"])
def test_replay_matches_oracle_all_shuffles(ray_session, fixture, tmp_path, shuffle):
    """Every exchange strategy must produce the identical oracle state."""
    pipe = run_pipeline(fixture, str(tmp_path / f"lake_{shuffle}"),
                        epoch_size=6_000, shuffle=shuffle)
    assert_matches_oracle(pipe, fixture)


@contextlib.contextmanager
def drift_records(needles=("different schema",)):
    """Collect the "Operator produced a RefBundle with a different schema"
    records Ray Data logs while the block runs: it logs one whenever an
    operator's blocks disagree (e.g. string vs large_string, or an empty
    block after a non-empty one). ``needles`` widens the net to other
    Ray Data warnings by message substring."""
    import logging

    class Drift(logging.Handler):
        def __init__(self):
            super().__init__(level=logging.WARNING)
            self.records = []

        def emit(self, record):
            if any(n in record.getMessage() for n in needles):
                self.records.append(record.getMessage())

    log = logging.getLogger("ray.data")
    children = [logging.getLogger(
        f"ray.data._internal.{m}") for m in (
        "execution.streaming_executor_state", "arrow_ops.transform_pyarrow")]
    old_levels = [c.level for c in children]
    for child in children:
        if not child.isEnabledFor(logging.WARNING):
            child.setLevel(logging.WARNING)
    h = Drift()
    log.addHandler(h)
    try:
        yield h.records
    finally:
        log.removeHandler(h)
        for child, lvl in zip(children, old_levels):
            child.setLevel(lvl)


def test_spill_replay_no_schema_drift(ray_session, fixture, tmp_path):
    """Bootstrap + 2 spill epochs keep one schema per Ray Data operator."""
    with drift_records() as records:
        pipe = run_pipeline(fixture, str(tmp_path / "lake"),
                            epoch_size=5_000, max_epochs=2)
    assert len(pipe.reports) == 2
    assert records == []


def test_snapshot_and_repartition_no_schema_drift(ray_session, fixture,
                                                  tmp_path):
    """Snapshot chunks and repartition_lake write state through explicit
    pid ranges (_pid_sort), as bootstrap does: no operator logs a schema
    change."""
    with drift_records() as records:
        pipe = CdcPipeline(CdcConfig(
            lake_dir=str(tmp_path / "lake"),
            binlog_dir=fixture["binlog_dir"], num_partitions=8,
            epoch_size=5_000))
        pipe.run_incremental(fixture["base_path"], n_chunks=5)
        moved = pipe.repartition_lake(str(tmp_path / "lake8"), 8)
    assert moved > 0
    assert records == []


def test_replay_matches_oracle(ray_session, fixture, tmp_path):
    pipe = run_pipeline(fixture, str(tmp_path / "lake"))
    assert_matches_oracle(pipe, fixture)
    # lineage emitted per epoch
    lineage = sorted(glob.glob(str(tmp_path / "lake" / "_lineage" / "*.jsonl")))
    assert len(lineage) == len(pipe.reports) and len(pipe.reports) >= 4
    rec = [json.loads(l) for l in open(lineage[0])]
    assert rec[0]["type"] == "epoch" and rec[0]["events_per_sec"] > 0
    assert sum(1 for r in rec if r["type"] == "partition") == 8


def test_epoch_rerun_is_idempotent(ray_session, fixture, tmp_path):
    lake = str(tmp_path / "lake")
    pipe = run_pipeline(fixture, lake)
    before = {p: m.to_json() for p, m in load_manifests(lake).items()}
    # replay the final epoch again — a committed epoch re-run must be a no-op
    last = pipe.reports[-1].epoch
    pipe.run_epoch(last)
    after = {p: json.loads(m.to_json()) for p, m in load_manifests(lake).items()}
    for p, s in before.items():
        b = json.loads(s)
        for k in ("upto_lsn", "schema_ver", "row_count", "content_hash", "files"):
            assert after[p][k] == b[k], (p, k)
    assert_matches_oracle(pipe, fixture)


def test_checkpoint_restore(ray_session, fixture, tmp_path):
    lake = str(tmp_path / "lake")
    # run only 2 epochs, then "crash"; a fresh pipeline object resumes from
    # manifests alone (no in-memory state survives)
    run_pipeline(fixture, lake, max_epochs=2)
    ms = load_manifests(lake)
    assert all(m.epoch == 2 for m in ms.values())
    pipe2 = run_pipeline(fixture, lake)  # resume to the end
    assert_matches_oracle(pipe2, fixture)


def test_restore_mid_commit(ray_session, fixture, tmp_path):
    """Torn commit: some partitions committed epoch 3, others not — resume
    must reconcile (per-partition watermarks make replay idempotent)."""
    lake = str(tmp_path / "lake")
    run_pipeline(fixture, lake, max_epochs=3)
    # roll HALF the partitions' manifests back to epoch 2 state by rerunning
    # epoch 3 after deleting their manifests... simulate by rewinding epoch.
    ms = load_manifests(lake)
    import thor_ray.state.manifest as mmod
    for pid in list(ms)[::2]:
        m = ms[pid]
        m.epoch = 2
        m.upto_lsn = 2 * 2_500
        mmod.write_manifest(lake, m)
    pipe = run_pipeline(fixture, lake)  # resumes at min(epoch)+1 == 3
    assert_matches_oracle(pipe, fixture)


def test_duplicate_injection_invariance(ray_session, fixture, tmp_path_factory):
    """Metamorphic: a log with extra duplicates folds to the same state."""
    d = str(tmp_path_factory.mktemp("dupfix"))
    base = fixture["base"]
    cfg_hi = gen.BinlogConfig(n_events=12_000, n_shards=4, dup_rate=0.25,
                              shuffle_window=128, ddl_every=3_000,
                              delete_rate=0.07, update_rate=0.55, seed=9)
    log_hi = gen.gen_binlog(base, cfg_hi)
    binlog_dir = os.path.join(d, "binlog")
    log_hi.write(binlog_dir)
    cfg = CdcConfig(lake_dir=os.path.join(d, "lake"), binlog_dir=binlog_dir,
                    num_partitions=8, epoch_size=2_500)
    pipe = CdcPipeline(cfg)
    pipe.run(base=fixture["base_path"])
    got = normalize(pipe.final_table().to_pandas())
    exp = normalize(fixture["expected"])
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    # duplicates were observed and dropped
    assert sum(r.n_applied["dup"] for r in pipe.reports) > 0


def test_final_schema_matches_registry(ray_session, fixture, tmp_path):
    lake = str(tmp_path / "lake")
    pipe = run_pipeline(fixture, lake)
    from thor_ray.state import SchemaRegistry
    reg = SchemaRegistry.load(lake)
    assert reg.ddls == fixture["ddls"]
    expect_cols = ["repo", "path", "commit", "lang", "content"] + reg.columns_at(
        reg.version)
    assert pipe.final_table().schema().names == expect_cols


@pytest.mark.parametrize("compact_every", [3, 100])
def test_delta_write_mode(ray_session, fixture, tmp_path, compact_every):
    """LSM delta path: winners-only delta files + merge-on-read + compaction
    must reproduce the oracle exactly (with and without compaction firing)."""
    lake = str(tmp_path / f"lake_delta_{compact_every}")
    cfg = CdcConfig(lake_dir=lake, binlog_dir=fixture["binlog_dir"],
                    num_partitions=8, epoch_size=1_500,
                    write_mode="delta", compact_every=compact_every)
    pipe = CdcPipeline(cfg)
    # epoch 1 has no DDL -> must leave a delta run (bootstrap + delta)
    pipe.run(base=fixture["base_path"], max_epochs=1)
    mid_files = max(len(m.files) for m in load_manifests(lake).values())
    assert mid_files == 2, "delta mode should append, not rewrite"
    pipe.run()  # resume to the end
    assert_matches_oracle(pipe, fixture)
    max_files = max(len(m.files) for m in load_manifests(lake).values())
    assert max_files <= max(compact_every, 3), \
        "file runs bounded by compaction (DDL epochs always compact)"


def test_delta_restore(ray_session, fixture, tmp_path):
    lake = str(tmp_path / "lake_delta_restore")
    cfg = CdcConfig(lake_dir=lake, binlog_dir=fixture["binlog_dir"],
                    num_partitions=8, epoch_size=1_500,
                    write_mode="delta", compact_every=100)
    CdcPipeline(cfg).run(base=fixture["base_path"], max_epochs=3)
    pipe2 = CdcPipeline(cfg)
    pipe2.run(base=fixture["base_path"])  # resume from manifests
    assert_matches_oracle(pipe2, fixture)


def test_pipelined_equals_sequential(ray_session, fixture, tmp_path):
    """Epoch pipelining (spill of N+1 under apply of N) must not change
    ANY committed artifact vs the sequential path."""
    from thor_ray.pipelines.cdc import CdcConfig, CdcPipeline

    lakes = {}
    for name, pipelined in (("pipe", True), ("seq", False)):
        lake = str(tmp_path / name)
        cfg = CdcConfig(lake_dir=lake, binlog_dir=fixture["binlog_dir"],
                        num_partitions=8, epoch_size=2_000,
                        pipeline_epochs=pipelined)
        CdcPipeline(cfg).run(base=fixture["base_path"])
        lakes[name] = {p: json.loads(m.to_json())
                       for p, m in load_manifests(lake).items()}
    for p, m in lakes["pipe"].items():
        s = lakes["seq"][p]
        for k in ("upto_lsn", "schema_ver", "row_count", "content_hash"):
            assert m[k] == s[k], (p, k)


def test_crash_between_spill_and_commit(ray_session, fixture, tmp_path):
    """Crash after epoch N+1's spill finished but before N+1 commits:
    restart must replay cleanly (stale spill files are overwritten by the
    deterministic content-derived names; lsn-dedup absorbs any leftovers)."""
    from thor_ray.pipelines.cdc import CdcConfig, CdcPipeline

    lake = str(tmp_path / "lake")
    cfg = CdcConfig(lake_dir=lake, binlog_dir=fixture["binlog_dir"],
                    num_partitions=8, epoch_size=2_000)
    pipe = CdcPipeline(cfg)
    pipe.bootstrap(fixture["base_path"])
    # run epoch 1, then pre-spill epoch 2 and "crash" (no commit of 2)
    ms = load_manifests(lake)
    pipe.run_epoch(1, ms)
    pipe._run_spill(2, 2_000, 4_000)
    assert glob.glob(os.path.join(cfg.exchange_root(), "e000002", "slot=*", "*.arrow"))
    # fresh pipeline resumes from manifests and drains everything
    pipe2 = CdcPipeline(cfg)
    pipe2.run()
    assert_matches_oracle(pipe2, fixture)


def test_lake_reads_hand_ray_one_hashable_schema(ray_session, fixture,
                                                 tmp_path):
    """Every state file carries thor_kind/thor_bloom footer metadata, and
    a schema with metadata cannot be hashed: both read_lake paths (the
    plain read of a compacted lake, the merge-on-read of a delta lake)
    must hand Ray Data metadata-free schemas that agree across blocks —
    no "Failed to hash the schemas" and no "different schema" record."""
    from thor_ray.sources.lake import read_lake

    lake = str(tmp_path / "lake")
    pipe = CdcPipeline(CdcConfig(
        lake_dir=lake, binlog_dir=fixture["binlog_dir"], num_partitions=8,
        epoch_size=2_000, write_mode="delta", compact_every=100))
    pipe.run(base=fixture["base_path"], max_epochs=1)
    assert all(len(m.files) == 2 for m in load_manifests(lake).values())
    with drift_records(("Failed to hash the schemas",
                        "different schema")) as records:
        delta = read_lake(lake, keep_internal=True).to_pandas()
        pruned = read_lake(lake, columns=["path", "content"]).to_pandas()
        pipe.compact()
        compacted = read_lake(lake, keep_internal=True).to_pandas()
        visible = read_lake(lake)
        names = visible.schema().names
        n_visible = visible.count()
    assert records == []
    assert len(delta) == len(compacted) == len(pruned) == n_visible > 0
    assert names == [c for c in delta.columns if not c.startswith("_")]
    assert list(pruned.columns) == ["path", "content"]
    # compaction rewrites a live row's _op to "U"; everything else holds
    key, cols = ["repo", "path"], [c for c in delta.columns if c != "_op"]
    pd.testing.assert_frame_equal(
        delta.sort_values(key).reset_index(drop=True)[cols],
        compacted.sort_values(key).reset_index(drop=True)[cols],
        check_dtype=False)


def test_standalone_compaction(ray_session, fixture, tmp_path):
    """compact() merges every delta run into one file per partition without
    moving watermarks/epochs, and the final table is unchanged."""
    lake = str(tmp_path / "lake")
    cfg = CdcConfig(lake_dir=lake, binlog_dir=fixture["binlog_dir"],
                    num_partitions=8, epoch_size=2_000,
                    write_mode="delta", compact_every=100)
    pipe = CdcPipeline(cfg)
    # stop after epoch 1 (no DDL yet): bootstrap file + one delta per pid
    pipe.run(base=fixture["base_path"], max_epochs=1)
    before = load_manifests(lake)
    assert any(len(m.files) > 1 for m in before.values())
    n = pipe.compact()
    assert n == sum(1 for m in before.values() if len(m.files) > 1)
    after = load_manifests(lake)
    for pid, m in after.items():
        assert len(m.files) == 1
        assert m.row_count >= 0  # delta's -1 placeholder resolved
        assert m.upto_lsn == before[pid].upto_lsn
        assert m.epoch == before[pid].epoch
    # idempotent: second compact is a no-op
    assert pipe.compact() == 0
    # finishing the replay from the compacted state still matches the oracle
    pipe2 = CdcPipeline(cfg)
    pipe2.run()
    assert_matches_oracle(pipe2, fixture)


@pytest.fixture(scope="module")
def drop_fixture(tmp_path_factory):
    """Binlog with mid-stream drop_column DDL (ddl_drops=True)."""
    d = str(tmp_path_factory.mktemp("dropfix"))
    base = gen.gen_base_table(n_repos=20, paths_per_repo=15, seed=11)
    cfg = gen.BinlogConfig(n_events=9_000, n_shards=4, dup_rate=0.05,
                           shuffle_window=128, ddl_every=1_500,
                           ddl_drops=True, delete_rate=0.06,
                           update_rate=0.55, seed=11)
    log = gen.gen_binlog(base, cfg)
    # the timeline must actually contain a drop for these tests to mean anything
    actions = [d_["action"] for _, d_ in
               gen._ddl_timeline(cfg.n_events, cfg.ddl_every, drops=True)]
    assert "drop_column" in actions, actions
    binlog_dir = os.path.join(d, "binlog")
    log.write(binlog_dir)
    expected, ddls = oracle.apply_events(pa.concat_tables(log.shards),
                                         initial=base)
    import pyarrow.parquet as pq
    base_path = os.path.join(d, "base.parquet")
    pq.write_table(base, base_path)
    return {"dir": d, "base": base, "base_path": base_path,
            "binlog_dir": binlog_dir, "expected": expected, "ddls": ddls,
            "max_lsn": log.max_lsn}


@pytest.mark.parametrize("write_mode", ["cow", "delta"])
def test_drop_column_ddl_replay(ray_session, drop_fixture, tmp_path, write_mode):
    """Mid-stream drop_column DDL: the engine reproduces the oracle exactly
    in both write modes — dropped values never resurface, final schema
    excludes the dropped column, and an event written under the pre-drop
    version whose winner lands after the drop discards the value."""
    lake = str(tmp_path / f"lake_{write_mode}")
    pipe = CdcPipeline(CdcConfig(
        lake_dir=lake, binlog_dir=drop_fixture["binlog_dir"],
        num_partitions=8, epoch_size=2_000, write_mode=write_mode))
    pipe.run(base=drop_fixture["base_path"])
    assert_matches_oracle(pipe, drop_fixture)


def test_drop_column_restore_and_rerun(ray_session, drop_fixture, tmp_path):
    """Drop DDL × recovery: crash after 2 epochs, torn-commit rewind of half
    the partitions, resume, then re-run the final (committed) epoch — a drop
    must never double-apply, and a dropped column must never resurrect
    across restores (guards cdc.py's schema_ver >= ver_start re-apply gate
    on the drop branch)."""
    lake = str(tmp_path / "lake")
    cfg = CdcConfig(lake_dir=lake, binlog_dir=drop_fixture["binlog_dir"],
                    num_partitions=8, epoch_size=2_000)
    CdcPipeline(cfg).run(base=drop_fixture["base_path"], max_epochs=2)
    # torn commit: rewind half the partitions to epoch 1
    ms = load_manifests(lake)
    import thor_ray.state.manifest as mmod
    for pid in list(ms)[::2]:
        m = ms[pid]
        m.epoch = 1
        m.upto_lsn = 1 * 2_000
        mmod.write_manifest(lake, m)
    pipe = CdcPipeline(cfg)
    pipe.run(base=drop_fixture["base_path"])  # resume to the end
    before = {p: m.to_json() for p, m in load_manifests(lake).items()}
    pipe.run_epoch(pipe.reports[-1].epoch)    # committed-epoch re-run: no-op
    after = {p: json.loads(m.to_json()) for p, m in load_manifests(lake).items()}
    for p, s in before.items():
        b = json.loads(s)
        for k in ("upto_lsn", "schema_ver", "row_count", "content_hash", "files"):
            assert after[p][k] == b[k], (p, k)
    assert_matches_oracle(pipe, drop_fixture)


@pytest.fixture(scope="module")
def widen_fixture(tmp_path_factory):
    """Binlog with alter_type widening DDL (int64 -> double) mid-stream."""
    d = str(tmp_path_factory.mktemp("widenfix"))
    base = gen.gen_base_table(n_repos=20, paths_per_repo=15, seed=13)
    cfg = gen.BinlogConfig(n_events=9_000, n_shards=4, dup_rate=0.05,
                           shuffle_window=128, ddl_every=1_500,
                           ddl_widens=True, delete_rate=0.06,
                           update_rate=0.55, seed=13)
    log = gen.gen_binlog(base, cfg)
    actions = [d_["action"] for _, d_ in
               gen._ddl_timeline(cfg.n_events, cfg.ddl_every, widens=True)]
    assert "alter_type" in actions, actions
    binlog_dir = os.path.join(d, "binlog")
    log.write(binlog_dir)
    expected, ddls = oracle.apply_events(pa.concat_tables(log.shards),
                                         initial=base)
    import pyarrow.parquet as pq
    base_path = os.path.join(d, "base.parquet")
    pq.write_table(base, base_path)
    return {"dir": d, "base": base, "base_path": base_path,
            "binlog_dir": binlog_dir, "expected": expected, "ddls": ddls,
            "max_lsn": log.max_lsn}


@pytest.mark.parametrize("write_mode", ["cow", "delta"])
def test_alter_type_widening_replay(ray_session, widen_fixture, tmp_path,
                                    write_mode):
    """alter_type (int64 -> double) through the full path: values written
    under the narrow type survive the widen as integral doubles, post-widen
    events carry FRACTIONAL values (an engine that silently truncates to
    the old type cannot match), and the lake column's Arrow type is the
    widened one in both write modes."""
    lake = str(tmp_path / f"lake_{write_mode}")
    pipe = CdcPipeline(CdcConfig(
        lake_dir=lake, binlog_dir=widen_fixture["binlog_dir"],
        num_partitions=8, epoch_size=2_000, write_mode=write_mode))
    pipe.run(base=widen_fixture["base_path"])
    assert_matches_oracle(pipe, widen_fixture)
    # the widened column must be float64 on disk, with real fractions
    got = pipe.final_table().to_pandas()
    widened = [d["name"] for d in widen_fixture["ddls"]
               if d["action"] == "alter_type"]
    assert widened
    from thor_ray.state import SchemaRegistry
    reg = SchemaRegistry.load(lake)
    tys = reg.types_at(reg.version)
    cur = [c for c, t in tys.items() if t == "double"]
    assert cur, tys
    col = got[cur[0]].dropna()
    assert col.dtype == "float64" and len(col)
    assert (np.mod(col.to_numpy(), 1) == 0.5).any(), \
        "no fractional post-widen values reached the lake"


def test_alter_type_restore(ray_session, widen_fixture, tmp_path):
    """Widen DDL x recovery: crash after 2 epochs and resume — the widen
    must not double-apply and narrow-typed delta state must still fold."""
    lake = str(tmp_path / "lake")
    cfg = CdcConfig(lake_dir=lake, binlog_dir=widen_fixture["binlog_dir"],
                    num_partitions=8, epoch_size=2_000)
    CdcPipeline(cfg).run(base=widen_fixture["base_path"], max_epochs=2)
    pipe = CdcPipeline(cfg)
    pipe.run(base=widen_fixture["base_path"])
    assert_matches_oracle(pipe, widen_fixture)


def test_demux_routes_union_to_oracle(ray_session, fixture, tmp_path):
    """Demux tier: one binlog fanned out into 3 independent exactly-once
    lakes (Kafka-Connect topic-routing analogue). Each lake bootstraps and
    applies ONLY its key-hash route; DDL folds into every lake. Union of
    the lakes == oracle; each lake == oracle filtered by the same route
    function; routes are disjoint and non-trivial."""
    from thor_ray.pipelines.cdc import route_of
    from thor_ray.stages.smt import stable_hash

    N = 3
    finals = []
    for r in range(N):
        cfg = CdcConfig(lake_dir=str(tmp_path / f"lake_r{r}"),
                        binlog_dir=fixture["binlog_dir"],
                        num_partitions=4, epoch_size=3_000, route=(r, N))
        pipe = CdcPipeline(cfg)
        pipe.run(base=fixture["base_path"])
        finals.append(pipe.final_table().to_pandas())
    got = normalize(pd.concat(finals, ignore_index=True))
    exp = normalize(fixture["expected"])
    assert list(got.columns) == list(exp.columns), (got.columns, exp.columns)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    assert oracle.content_sha(got).tolist() == oracle.content_sha(exp).tolist()
    # each lake holds exactly the oracle rows whose key hashes to its route
    keys = pa.table({"repo": pa.array(exp["repo"], type=pa.string()),
                     "path": pa.array(exp["path"], type=pa.string())})
    rts = route_of(stable_hash(keys, ["repo", "path"]), N)
    sizes = []
    for r in range(N):
        sub = normalize(exp[rts == r]).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            normalize(finals[r]).reset_index(drop=True), sub,
            check_dtype=False)
        sizes.append(len(sub))
    assert all(s > 0 for s in sizes) and sum(sizes) == len(exp)


def test_demux_route_validation():
    with pytest.raises(ValueError, match="route must be"):
        CdcConfig(lake_dir="/tmp/x", binlog_dir="/tmp/y", route=(3, 3))
    with pytest.raises(ValueError, match="route_on"):
        CdcConfig(lake_dir="/tmp/x", binlog_dir="/tmp/y", route_on="path")


def test_shuffle_validation():
    """Two exchanges exist; a misspelt or retired one fails loudly instead
    of silently falling through to some other exchange."""
    for bad in ("hash", "auto", "spil", "hash ", ""):
        with pytest.raises(ValueError, match="shuffle must be"):
            CdcConfig(lake_dir="/tmp/x", binlog_dir="/tmp/y", shuffle=bad)
    for ok in ("spill", "sort"):
        assert CdcConfig(lake_dir="/tmp/x", binlog_dir="/tmp/y",
                         shuffle=ok).shuffle == ok


def test_demux_route_on_repo(ray_session, fixture, tmp_path):
    """Repo-routed demux (route_on='repo' — the Debezium table→topic
    shape: repo ≙ source table, path ≙ primary key). Every path of a repo
    must land in exactly one lake; union == oracle; each lake == oracle
    filtered by the repo-hash route."""
    from thor_ray.pipelines.cdc import route_of
    from thor_ray.stages.smt import stable_hash

    N = 2
    finals = []
    for r in range(N):
        pipe = CdcPipeline(CdcConfig(
            lake_dir=str(tmp_path / f"lake_r{r}"),
            binlog_dir=fixture["binlog_dir"], num_partitions=4,
            epoch_size=3_000, route=(r, N), route_on="repo"))
        pipe.run(base=fixture["base_path"])
        finals.append(pipe.final_table().to_pandas())
    got = normalize(pd.concat(finals, ignore_index=True))
    exp = normalize(fixture["expected"])
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    # route function: hash of repo alone
    repos = pa.table({"repo": pa.array(exp["repo"], type=pa.string())})
    rts = route_of(stable_hash(repos, ["repo"]), N)
    for r in range(N):
        sub = normalize(exp[rts == r]).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            normalize(finals[r]).reset_index(drop=True), sub,
            check_dtype=False)
        # co-routing invariant: no repo straddles lakes
        assert not (set(finals[r]["repo"]) - set(sub["repo"]))
    inter = set(finals[0]["repo"]) & set(finals[1]["repo"])
    assert not inter, f"repos straddle lakes: {sorted(inter)[:3]}"
    assert all(len(f) > 0 for f in finals)


def test_delete_where_retention(ray_session, fixture, tmp_path):
    """GDPR/retention tier: delete_where appends tombstones to the BINLOG
    (never mutates the lake out-of-band); the next run() applies them
    through the normal exactly-once path. Final state == oracle minus the
    matching keys; re-running the same run() is still idempotent."""
    d = str(tmp_path)
    binlog = os.path.join(d, "binlog")
    shutil.copytree(fixture["binlog_dir"], binlog)
    cfg = CdcConfig(lake_dir=os.path.join(d, "lake"), binlog_dir=binlog,
                    num_partitions=8, epoch_size=2_500)
    pipe = CdcPipeline(cfg)
    pipe.run(base=fixture["base_path"])
    exp = fixture["expected"]
    n_py = int((exp["lang"] == "py").sum())
    assert n_py > 0
    n_del = pipe.delete_where("lang == 'py'")
    assert n_del == n_py
    # re-issue BEFORE the next run(): the pending-tombstone anti-join
    # suppresses every already-tombstoned key — no duplicates, count 0
    assert pipe.delete_where("lang == 'py'") == 0
    pipe.run()  # tombstones flow through the normal apply path
    got = normalize(pipe.final_table().to_pandas())
    want = normalize(exp[exp["lang"] != "py"])
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert not (got["lang"] == "py").any()
    # re-issuing the same delete on the (now changed) log is a no-op fold
    n2 = pipe.delete_where("lang == 'py'")
    assert n2 == 0
    pipe.run()
    got2 = normalize(pipe.final_table().to_pandas())
    pd.testing.assert_frame_equal(got2, want, check_dtype=False)


def test_update_where(ray_session, fixture, tmp_path):
    """Distributed UPDATE tier: update_where appends full-image op='U'
    events to the BINLOG (never mutates the lake out-of-band); the next
    run() applies them through the normal exactly-once path. Final state
    == oracle with the transform applied to matching rows; re-issuing the
    same update before run() overwrites the same segments (no duplicate
    events, log end unchanged)."""
    import pyarrow.compute as pc
    from thor_ray.sources import binlog as binlog_src

    d = str(tmp_path)
    binlog = os.path.join(d, "binlog")
    shutil.copytree(fixture["binlog_dir"], binlog)
    cfg = CdcConfig(lake_dir=os.path.join(d, "lake"), binlog_dir=binlog,
                    num_partitions=8, epoch_size=2_500)
    pipe = CdcPipeline(cfg)
    pipe.run(base=fixture["base_path"])
    exp = fixture["expected"]
    n_py = int((exp["lang"] == "py").sum())
    assert n_py > 0

    def redact(t: pa.Table) -> pa.Table:
        i = t.column_names.index("content")
        red = pc.binary_join_element_wise(
            pa.array(["REDACTED:"] * t.num_rows, type=pa.large_string()),
            pc.cast(t["lang"], pa.large_string()),
            pa.scalar("", type=pa.large_string()))
        return t.set_column(i, "content", red)

    n = pipe.update_where("lang == 'py'", redact)
    assert n == n_py
    # re-issue BEFORE run(): same identity → same segments at the same
    # lsns, overwritten in place — the log end must not move
    end = binlog_src.max_lsn(binlog)
    assert pipe.update_where("lang == 'py'", redact) == n_py
    assert binlog_src.max_lsn(binlog) == end

    pipe.run()  # updates flow through the normal apply path
    got = normalize(pipe.final_table().to_pandas())
    want = exp.copy()
    m = want["lang"] == "py"
    want.loc[m, "content"] = "REDACTED:" + want.loc[m, "lang"]
    want = normalize(want)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)

    # after run() the watermark moved → fresh identity; the same logical
    # update re-applied is value-idempotent (transform is a projection)
    assert pipe.update_where("lang == 'py'", redact) == n_py
    pipe.run()
    got2 = normalize(pipe.final_table().to_pandas())
    pd.testing.assert_frame_equal(got2, want, check_dtype=False)

    # primary-key mutation is refused
    assert (got2["lang"] == "go").any()

    def clobber_pk(t: pa.Table) -> pa.Table:
        i = t.column_names.index("path")
        return t.set_column(i, "path",
                            pa.array(["x"] * t.num_rows, type=pa.string()))
    with pytest.raises(Exception, match="primary key"):
        pipe.update_where("lang == 'go'", clobber_pk)


def test_engine_meta_back_compat(ray_session, fixture, tmp_path):
    """A lake written before the demux tier has no "route" key in
    engine.json; resuming it must not raise a meta mismatch."""
    lake = str(tmp_path / "lake")
    run_pipeline(fixture, lake)
    p = os.path.join(lake, "_schema", "engine.json")
    with open(p) as f:
        meta = json.load(f)
    meta.pop("route")
    with open(p, "w") as f:
        json.dump(meta, f)
    pipe = CdcPipeline(CdcConfig(lake_dir=lake,
                                 binlog_dir=fixture["binlog_dir"],
                                 num_partitions=8, epoch_size=2_500))
    pipe.run()  # no-op resume; raises on meta mismatch
    got = normalize(pipe.final_table().to_pandas())
    pd.testing.assert_frame_equal(got, normalize(fixture["expected"]),
                                  check_dtype=False)


def test_lake_stats(ray_session, fixture, tmp_path):
    """ANALYZE pass: exact rows/bytes/null counts, HLL ndv within the
    sketch's error bound, against the oracle state."""
    lake = str(tmp_path / "lake")
    run_pipeline(fixture, lake)
    from thor_ray.sources import lake_stats
    s = lake_stats(lake, ndv_cols=("repo", "lang"))
    exp = fixture["expected"]
    assert s["rows"] == len(exp)
    assert s["content_bytes"] == int(
        exp["content"].map(lambda x: len(x.encode())).sum())
    for c in exp.columns:
        assert s["columns"][c]["nulls"] == int(exp[c].isna().sum()), c
    for c in ("repo", "lang"):
        exact = exp[c].nunique()
        assert abs(s["columns"][c]["ndv"] - exact) <= max(1, 0.05 * exact), c


def test_archive_binlog_retires_consumed_segments(ray_session, fixture,
                                                  tmp_path):
    """Binlog retention: after a delete_where + run cycle each shard holds
    its original data segment plus a tombstone segment; archiving moves
    the fully-consumed older segments aside (keeping each shard's newest
    so safe_frontier still sees every declared shard), and resume /
    delete_where / state reads are unaffected."""
    from thor_ray.sources import binlog as binlog_src

    # OWN binlog copy: delete_where + archive MUTATE the log (tombstone
    # segments, originals moved to _archive/) — the shared module fixture
    # must stay pristine for later tests
    binlog = os.path.join(str(tmp_path), "binlog")
    shutil.copytree(fixture["binlog_dir"], binlog)
    lake = str(tmp_path / "lake")
    cfg = CdcConfig(lake_dir=lake, binlog_dir=binlog,
                    num_partitions=8, epoch_size=2_500)
    pipe = CdcPipeline(cfg)
    pipe.run(base=fixture["base_path"])
    n_del = pipe.delete_where("lang == 'py'")
    assert n_del > 0
    pipe.run()
    want = normalize(pipe.final_table().to_pandas())

    before = binlog_src.shard_files(binlog)
    pre_frontier = binlog_src.safe_frontier(binlog)
    n = pipe.archive_binlog()
    assert n > 0
    after = binlog_src.shard_files(binlog)
    assert len(after) == len(before) - n
    # each declared shard still visible, frontier unchanged (newest kept)
    assert binlog_src.safe_frontier(binlog) == pre_frontier
    shards_after = {os.path.basename(p)[:10] for p in after}
    shards_before = {os.path.basename(p)[:10] for p in before}
    assert shards_after == shards_before

    # resume is a no-op and the state is unchanged
    pipe2 = CdcPipeline(CdcConfig(lake_dir=lake, binlog_dir=binlog,
                                  num_partitions=8, epoch_size=2_500))
    pipe2.run()
    got = normalize(pipe2.final_table().to_pandas())
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # a fresh delete still dedups correctly against the remaining log
    assert pipe2.delete_where("lang == 'py'") == 0
    # second archive is a no-op (nothing old left below the watermark)
    assert pipe2.archive_binlog() == 0


@pytest.fixture(scope="module")
def fresh_fixture(tmp_path_factory):
    """Private base+binlog for tests that need a PRISTINE log (earlier
    tests append tombstone segments to / archive the shared fixture's
    binlog by design)."""
    d = str(tmp_path_factory.mktemp("repart"))
    base = gen.gen_base_table(n_repos=25, paths_per_repo=16, seed=21)
    cfg = gen.BinlogConfig(n_events=8_000, n_shards=4, dup_rate=0.05,
                           shuffle_window=96, ddl_every=2_200,
                           delete_rate=0.06, update_rate=0.5, seed=21)
    log = gen.gen_binlog(base, cfg)
    binlog_dir = os.path.join(d, "binlog")
    log.write(binlog_dir)
    events = pa.concat_tables(log.shards)
    expected, _ = oracle.apply_events(events, initial=base)
    import pyarrow.parquet as pq
    base_path = os.path.join(d, "base.parquet")
    pq.write_table(base, base_path)
    return {"dir": d, "base": base, "base_path": base_path,
            "binlog_dir": binlog_dir, "expected": expected,
            "max_lsn": log.max_lsn}


def test_repartition_lake_resume(ray_session, fresh_fixture, tmp_path):
    """Partition-count migration mid-stream: run half the log at P=8,
    migrate to P=5 (scale in) and P=16 (scale out), then resume each
    migrated lake to the end of the log at its NEW partition count. The
    migrated state must equal the source state, point lookups must route
    under the new count, the resumed replay must equal the oracle, and a
    non-quiesced lake must be refused."""
    from thor_ray.sources.lake import lake_lookup, read_lake

    fixture = fresh_fixture
    src = str(tmp_path / "lake8")
    pipe = run_pipeline(fixture, src, max_epochs=2)   # quiesced at 5000
    src_state = normalize(read_lake(src).to_pandas())

    for newP in (5, 16):
        dst = str(tmp_path / f"lake{newP}")
        moved = pipe.repartition_lake(dst, newP)
        assert moved == len(src_state)
        ms = load_manifests(dst)
        assert sorted(ms) == list(range(newP))
        assert {m.upto_lsn for m in ms.values()} == {5_000}
        got = normalize(read_lake(dst).to_pandas())
        pd.testing.assert_frame_equal(got, src_state, check_dtype=False)
        # point lookup routes correctly under the NEW partition count
        k = (src_state["repo"].iloc[17], src_state["path"].iloc[17])
        hit = lake_lookup(dst, [k])
        assert len(hit) == 1 and hit["repo"].iloc[0] == k[0]
        # resume the migrated lake to the end of the log
        cfg2 = CdcConfig(lake_dir=dst, binlog_dir=fixture["binlog_dir"],
                         num_partitions=newP, epoch_size=2_500)
        pipe2 = CdcPipeline(cfg2)
        pipe2.run()
        assert_matches_oracle(pipe2, fixture)

    # refuse a non-quiesced source (mixed watermarks)
    tampered = str(tmp_path / "tampered")
    shutil.copytree(src, tampered)
    mp = os.path.join(tampered, "_manifests", "part-00003.json")
    with open(mp) as f:
        raw = json.load(f)
    raw["upto_lsn"] -= 1
    with open(mp, "w") as f:
        json.dump(raw, f)
    cfg3 = CdcConfig(lake_dir=tampered, binlog_dir=fixture["binlog_dir"],
                     num_partitions=8, epoch_size=2_500)
    with pytest.raises(RuntimeError, match="quiesced"):
        CdcPipeline(cfg3).repartition_lake(str(tmp_path / "nope"), 4)


def test_repartition_repo_routed_lake(ray_session, fresh_fixture,
                                      tmp_path):
    """repartition_lake keeps the demux route (route and route_on) in the
    new lake's engine meta: a repo-routed lake migrated to a new
    partition count resumes at that count and replays to the oracle
    filtered by its route."""
    from thor_ray.pipelines.cdc import route_of
    from thor_ray.stages.smt import stable_hash

    fixture = fresh_fixture

    def cfg(lake: str, P: int) -> CdcConfig:
        return CdcConfig(lake_dir=lake, binlog_dir=fixture["binlog_dir"],
                         num_partitions=P, epoch_size=2_500, route=(0, 2),
                         route_on="repo")

    src = CdcPipeline(cfg(str(tmp_path / "lake8"), 8))
    src.run(base=fixture["base_path"], max_epochs=2)
    dst = str(tmp_path / "lake5")
    assert src.repartition_lake(dst, 5) > 0
    pipe = CdcPipeline(cfg(dst, 5))
    pipe.run()
    exp = fixture["expected"]
    repos = pa.table({"repo": pa.array(exp["repo"], type=pa.string())})
    want = normalize(exp[route_of(stable_hash(repos, ["repo"]), 2) == 0])
    got = normalize(pipe.final_table().to_pandas())
    assert len(got) > 0
    pd.testing.assert_frame_equal(got.reset_index(drop=True),
                                  want.reset_index(drop=True),
                                  check_dtype=False)


def test_lag_report(ray_session, fresh_fixture, tmp_path):
    """Lag = shard frontier minus slowest watermark; drains to zero when
    the log is fully applied."""
    fixture = fresh_fixture
    lake = str(tmp_path / "lake")
    pipe = run_pipeline(fixture, lake, max_epochs=2)   # watermark 5000
    rep = pipe.lag_report()
    assert set(rep.columns) == {"shard", "frontier_lsn", "watermark_lo",
                                "watermark_hi", "lag"}
    assert len(rep) == 4                               # n_shards
    assert (rep["watermark_lo"] == 5_000).all()
    assert (rep["lag"] == rep["frontier_lsn"] - 5_000).all()
    assert (rep["lag"] > 0).any()
    pipe.run()                                         # drain
    done = pipe.lag_report()
    assert (done["lag"] == 0).all()
    assert done["frontier_lsn"].max() == fixture["max_lsn"]


def test_writer_fencing(ray_session, fixture, tmp_path):
    """A zombie writer (older generation) must fail closed once a newer
    writer has committed to the lake; the new writer finishes the replay
    and the table equals a clean single-writer replay of the same binlog
    (the module binlog may carry tombstone/archive mutations from earlier
    tests, so the reference is computed fresh, not taken from the module
    oracle)."""
    from thor_ray.state import FencedWriterError

    def mk(name, **kw):
        return CdcConfig(lake_dir=str(tmp_path / name),
                         binlog_dir=fixture["binlog_dir"],
                         num_partitions=8, epoch_size=2_500, **kw)

    ref = CdcPipeline(mk("lake_ref"))
    ref.run(base=fixture["base_path"])
    want = normalize(ref.final_table().to_pandas())

    cfg = mk("lake_fence")
    old = CdcPipeline(cfg)
    old.bootstrap(fixture["base_path"])
    ms = load_manifests(cfg.lake_dir)
    old.run_epoch(1, ms)            # old writer owns the lake
    new = CdcPipeline(cfg)
    new.run_epoch(2, load_manifests(cfg.lake_dir))  # takeover: new gen
    with pytest.raises(FencedWriterError):
        old.run_epoch(3, load_manifests(cfg.lake_dir))  # zombie fenced
    with pytest.raises(FencedWriterError):
        old.compact()                                   # all commit paths
    new.run()                       # new writer drains the log
    pd.testing.assert_frame_equal(
        normalize(new.final_table().to_pandas()), want, check_dtype=False)
    # fencing off: sequential writers interleave freely (legacy behavior)
    cfg2 = mk("lake_nofence", fencing=False)
    a, b = CdcPipeline(cfg2), CdcPipeline(cfg2)
    a.bootstrap(fixture["base_path"])
    a.run_epoch(1, load_manifests(cfg2.lake_dir))
    b.run_epoch(2, load_manifests(cfg2.lake_dir))
    a.run()
    pd.testing.assert_frame_equal(
        normalize(a.final_table().to_pandas()), want, check_dtype=False)


def test_fsck(ray_session, fixture, tmp_path):
    """fsck: clean lake passes deep check; a missing state file, a
    tampered row_count, and a fingerprint-breaking file edit are each
    flagged; orphan files only warn."""
    from thor_ray.sources import fsck

    lake = str(tmp_path / "lake")
    run_pipeline(fixture, lake)
    rep = fsck(lake, deep=True)
    assert rep["ok"], rep["errors"]
    assert rep["partitions"] == 8 and not rep["errors"]

    # orphan file: warning only
    orphan = os.path.join(lake, "part=00001", "state-e999999.parquet")
    import pyarrow.parquet as _pq
    _pq.write_table(pa.table({"x": [1]}), orphan)
    rep = fsck(lake)
    assert rep["ok"] and any("orphan" in w for w in rep["warnings"])
    os.remove(orphan)

    # tampered row_count: shallow catches it on compacted partitions
    mp = os.path.join(lake, "_manifests", "part-00002.json")
    with open(mp) as f:
        payload = json.load(f)
    payload["row_count"] += 1
    with open(mp, "w") as f:
        json.dump(payload, f)
    rep = fsck(lake)
    assert not rep["ok"] and any("row_count" in e for e in rep["errors"])
    payload["row_count"] -= 1
    with open(mp, "w") as f:
        json.dump(payload, f)
    assert fsck(lake)["ok"]

    # missing file
    ms = load_manifests(lake)
    victim = ms[3].files[0]
    bak = victim + ".bak"
    os.rename(victim, bak)
    rep = fsck(lake)
    assert not rep["ok"] and any("missing file" in e for e in rep["errors"])
    os.rename(bak, victim)

    # content tamper: same row count, different content -> deep-only
    df = _pq.read_table(victim).to_pandas()
    df.loc[df.index[0], "_sha"] = "0" * 64
    _pq.write_table(pa.Table.from_pandas(df, preserve_index=False), victim)
    assert fsck(lake)["ok"]           # shallow can't see it
    rep = fsck(lake, deep=True)
    assert not rep["ok"] and any("fingerprint" in e for e in rep["errors"])


def test_hot_key_skew(ray_session, tmp_path):
    """Extreme key skew: 6 keys into 8 partitions (most empty, two hot)
    plus heavy updates on one key — the per-partition bundle apply must
    still fold to the oracle on every shuffle strategy."""
    base = gen.gen_base_table(n_repos=2, paths_per_repo=3, seed=21)
    cfg_b = gen.BinlogConfig(n_events=6_000, n_shards=2, dup_rate=0.2,
                             shuffle_window=64, ddl_every=2_000,
                             delete_rate=0.05, update_rate=0.8, seed=21)
    log = gen.gen_binlog(base, cfg_b)
    d = str(tmp_path)
    binlog_dir = os.path.join(d, "binlog")
    log.write(binlog_dir)
    expected, _ = oracle.apply_events(pa.concat_tables(log.shards),
                                      initial=base)
    import pyarrow.parquet as pq
    base_path = os.path.join(d, "base.parquet")
    pq.write_table(base, base_path)
    for shuffle in ("spill", "sort"):
        cfg = CdcConfig(lake_dir=os.path.join(d, f"lake_{shuffle}"),
                        binlog_dir=binlog_dir, num_partitions=8,
                        epoch_size=1_500, shuffle=shuffle)
        pipe = CdcPipeline(cfg)
        pipe.run(base=base_path)
        got = normalize(pipe.final_table().to_pandas())
        pd.testing.assert_frame_equal(got, normalize(expected),
                                      check_dtype=False)


def test_read_demux_consistent(ray_session, fixture, tmp_path):
    """Watermark-aligned cross-lake snapshot of a demux family: with one
    route lagging (fewer committed epochs), the aligned union equals the
    oracle fold of the log PREFIX both routes have committed — never a
    torn mix of epochs."""
    import pyarrow.compute as pc

    import pyarrow.parquet as pq

    from thor_ray.sources import consistent_epoch, read_demux_consistent

    events = pa.concat_tables(
        [pq.read_table(f) for f in
         sorted(glob.glob(os.path.join(fixture["binlog_dir"],
                                       "shard-*.parquet")))])
    N, E = 2, 3_000
    pipes = []
    for r in range(N):
        cfg = CdcConfig(lake_dir=str(tmp_path / f"lake_r{r}"),
                        binlog_dir=fixture["binlog_dir"],
                        num_partitions=4, epoch_size=E, route=(r, N),
                        retain_snapshots=99)
        pipes.append(CdcPipeline(cfg))
    # route 0 fully caught up; route 1 lags two epochs behind
    pipes[0].run(base=fixture["base_path"])
    pipes[1].run(base=fixture["base_path"], max_epochs=2)
    lakes = [p.cfg.lake_dir for p in pipes]
    e = consistent_epoch(lakes)
    assert e == 2

    got = normalize(read_demux_consistent(lakes).to_pandas())
    prefix = events.filter(pc.less_equal(events["lsn"], e * E))
    exp, _ = oracle.apply_events(prefix, initial=fixture["base"])
    exp = normalize(exp)
    assert list(got.columns) == list(exp.columns)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    # explicit epoch: both lakes read through their archives identically
    got1 = normalize(read_demux_consistent(lakes, epoch=1).to_pandas())
    prefix1 = events.filter(pc.less_equal(events["lsn"], E))
    exp1, _ = oracle.apply_events(prefix1, initial=fixture["base"])
    pd.testing.assert_frame_equal(got1, normalize(exp1), check_dtype=False)

    # guards: an epoch ahead of the laggard, an incomplete family, and a
    # non-demux lake are all refused
    with pytest.raises(ValueError, match="only committed epoch"):
        read_demux_consistent(lakes, epoch=4)
    with pytest.raises(ValueError, match="complete demux family"):
        read_demux_consistent([lakes[0], lakes[0]])
    plain = CdcPipeline(CdcConfig(lake_dir=str(tmp_path / "plain"),
                                  binlog_dir=fixture["binlog_dir"],
                                  num_partitions=4, epoch_size=E))
    plain.run(base=fixture["base_path"])
    with pytest.raises(ValueError, match="route-demuxed"):
        read_demux_consistent([lakes[0], plain.cfg.lake_dir])


def test_ingest_dataset(ray_session, fixture, tmp_path):
    """Bulk load (UPSERT INTO … SELECT): an arbitrary Ray Dataset rides
    the binlog-injection path — distributed segments, exactly-once apply,
    identity-keyed re-issue overwrite; a delete-op load tombstones."""
    import ray as _ray

    from thor_ray.sources import binlog as binlog_src

    d = str(tmp_path)
    binlog = os.path.join(d, "binlog")
    shutil.copytree(fixture["binlog_dir"], binlog)
    cfg = CdcConfig(lake_dir=os.path.join(d, "lake"), binlog_dir=binlog,
                    num_partitions=8, epoch_size=2_500)
    pipe = CdcPipeline(cfg)
    pipe.run(base=fixture["base_path"])
    exp = fixture["expected"]

    # 30 updates of existing keys + 10 brand-new keys, partial payload
    ups = exp.head(30)[["repo", "path"]].copy()
    ups["content"] = ["bulk body %d" % i for i in range(30)]
    ups["lang"] = "bulk"
    new = pd.DataFrame({
        "repo": [f"bulkrepo{i % 3}" for i in range(10)],
        "path": [f"src/bulk/file{i}.py" for i in range(10)],
        "content": [f"new body {i}" for i in range(10)],
        "lang": ["bulk"] * 10,
    })
    load = pd.concat([ups, new], ignore_index=True)
    n = pipe.ingest_dataset(_ray.data.from_pandas(load), ident="load1")
    assert n == 40
    # re-issue with the same ident before run(): overwrite, log end fixed
    end = binlog_src.max_lsn(binlog)
    assert pipe.ingest_dataset(_ray.data.from_pandas(load),
                               ident="load1") == 40
    assert binlog_src.max_lsn(binlog) == end
    pipe.run()

    got = normalize(pipe.final_table().to_pandas())
    want = exp.set_index(["repo", "path"])
    # full-image semantics: every payload column absent from the load
    # (commit + the registry-evolved columns) nulls out on loaded keys
    absent = [c for c in want.columns if c not in ("lang", "content")]
    for _, r in load.iterrows():
        want.loc[(r["repo"], r["path"]), absent] = None
        want.loc[(r["repo"], r["path"]), ["lang", "content"]] = \
            [r["lang"], r["content"]]
    want = normalize(want.reset_index())
    pd.testing.assert_frame_equal(got, want, check_dtype=False)

    # delete-op load tombstones the new keys again
    keys = _ray.data.from_pandas(new[["repo", "path"]])
    assert pipe.ingest_dataset(keys, ident="purge1", op="D") == 10
    pipe.run()
    got2 = normalize(pipe.final_table().to_pandas())
    assert not got2["repo"].str.startswith("bulkrepo").any()

    # guards: unknown column, bad ident, null key
    with pytest.raises(ValueError, match="unknown columns"):
        pipe.ingest_dataset(_ray.data.from_pandas(
            pd.DataFrame({"repo": ["r"], "path": ["p"], "zzz": [1]})),
            ident="x")
    with pytest.raises(ValueError, match="invalid ingest ident"):
        pipe.ingest_dataset(keys, ident="a.b")
    with pytest.raises(Exception, match="null repo"):
        pipe.ingest_dataset(_ray.data.from_pandas(
            pd.DataFrame({"repo": [None], "path": ["p"],
                          "content": ["x"]})), ident="y")


def test_size_tiered_compaction(ray_session, tmp_path):
    """compact_policy='size': level-0 folds when its BYTES outgrow
    compact_ratio x the base file, not at a fixed file count — and the
    folded lake still equals the oracle under every ratio. (Own DDL-free
    log: a DDL in the final epoch would fold either lake regardless.)"""
    import pyarrow.parquet as pq

    base = gen.gen_base_table(n_repos=15, paths_per_repo=10, seed=66)
    log = gen.gen_binlog(base, gen.BinlogConfig(
        n_events=8_000, n_shards=3, ddl_every=0, delete_rate=0.06,
        update_rate=0.6, seed=66))
    binlog_dir = str(tmp_path / "binlog")
    log.write(binlog_dir)
    base_path = str(tmp_path / "base.parquet")
    pq.write_table(base, base_path)
    events = pa.concat_tables(log.shards)
    expected, _ = oracle.apply_events(events, initial=base)

    def build(name, ratio):
        lake = str(tmp_path / name)
        pipe = CdcPipeline(CdcConfig(
            lake_dir=lake, binlog_dir=binlog_dir,
            num_partitions=8, epoch_size=1_000, write_mode="delta",
            compact_policy="size", compact_ratio=ratio,
            compact_every=1_000_000))
        pipe.run(base=base_path)
        got = normalize(pipe.final_table().to_pandas())
        pd.testing.assert_frame_equal(got, normalize(expected),
                                      check_dtype=False)
        return max(len(m.files) for m in load_manifests(lake).values())

    # aggressive ratio folds nearly every epoch; lazy ratio lets the
    # level-0 run grow across all 8 epochs
    files_a = build("lake_aggr", 0.0001)
    files_l = build("lake_lazy", 1e9)
    assert files_a <= 2
    assert files_l > files_a

    with pytest.raises(ValueError, match="compact_policy"):
        CdcConfig(lake_dir="/tmp/x", binlog_dir="/tmp/y",
                  compact_policy="bytes")


def test_ddl_default_backfill(ray_session, tmp_path):
    """add_column with a DEFAULT: rows existing at the fold backfill the
    default (MySQL ALTER ADD COLUMN shape), later events unchanged —
    engine == oracle, and the defaults are actually visible."""
    import pyarrow.parquet as pq

    base = gen.gen_base_table(n_repos=40, paths_per_repo=25, seed=77)
    cfg = gen.BinlogConfig(n_events=3_000, n_shards=3, dup_rate=0.04,
                           shuffle_window=96, ddl_every=1_000,
                           ddl_defaults=True, ddl_widens=True,
                           delete_rate=0.06, update_rate=0.5, seed=77)
    log = gen.gen_binlog(base, cfg)
    events = pa.concat_tables(log.shards)
    ddls = [json.loads(d) for d in
            events.filter(pa.compute.equal(events["op"], "DDL"))
            ["ddl"].to_pylist()]
    assert any("default" in d for d in ddls if d["action"] == "add_column")
    expected, _ = oracle.apply_events(events, initial=base)
    # backfilled default VALUES survive into the final frame (possibly
    # under a renamed column)
    default_vals = {d["default"] for d in ddls
                    if d["action"] == "add_column" and "default" in d}
    evolved_cols = [c for c in expected.columns
                    if c not in ("repo", "path", "commit", "lang",
                                 "content")]
    assert any(expected[c].isin(default_vals).any()
               for c in evolved_cols)

    binlog_dir = str(tmp_path / "binlog")
    log.write(binlog_dir)
    base_path = str(tmp_path / "base.parquet")
    pq.write_table(base, base_path)
    pipe = CdcPipeline(CdcConfig(lake_dir=str(tmp_path / "lake"),
                                 binlog_dir=binlog_dir,
                                 num_partitions=6, epoch_size=1_000))
    pipe.run(base=base_path)
    got = normalize(pipe.final_table().to_pandas())
    pd.testing.assert_frame_equal(got, normalize(expected),
                                  check_dtype=False)
    # delta mode folds the same defaults
    pipe2 = CdcPipeline(CdcConfig(lake_dir=str(tmp_path / "lake_d"),
                                  binlog_dir=binlog_dir,
                                  num_partitions=6, epoch_size=1_000,
                                  write_mode="delta", compact_every=100))
    pipe2.run(base=base_path)
    got2 = normalize(pipe2.final_table().to_pandas())
    pd.testing.assert_frame_equal(got2, normalize(expected),
                                  check_dtype=False)


def test_per_partition_bundles_run_without_ray_data(ray_session, tmp_path,
                                                    monkeypatch):
    """The epoch fold, compact(), compact_upto and deep fsck launch plain
    Ray tasks: with ray.data.from_arrow refusing every call, a 2-epoch
    pipelined spill run stays oracle-equal and the maintenance commands
    come back clean. (No DDL, so the delta runs stay level-0 for
    compact_upto to fold.)"""
    import pyarrow.parquet as pq
    import ray.data

    from thor_ray.sources import compact_upto, fsck

    base = gen.gen_base_table(n_repos=20, paths_per_repo=15, seed=13)
    log = gen.gen_binlog(base, gen.BinlogConfig(
        n_events=4_000, n_shards=3, dup_rate=0.05, shuffle_window=64,
        ddl_every=0, delete_rate=0.08, update_rate=0.5, seed=13))
    binlog_dir = str(tmp_path / "binlog")
    log.write(binlog_dir)
    base_path = str(tmp_path / "base.parquet")
    pq.write_table(base, base_path)
    expected, _ = oracle.apply_events(pa.concat_tables(log.shards),
                                      initial=base)

    def assert_oracle_equal(pipe):
        got = normalize(pipe.final_table().to_pandas())
        pd.testing.assert_frame_equal(got, normalize(expected),
                                      check_dtype=False)

    def refuse(*a, **kw):
        raise AssertionError("ray.data.from_arrow called")

    lake = str(tmp_path / "lake")
    cfg = CdcConfig(lake_dir=lake, binlog_dir=binlog_dir, num_partitions=8,
                    epoch_size=2_000, write_mode="delta")
    pipe = CdcPipeline(cfg)
    with monkeypatch.context() as m:
        m.setattr(ray.data, "from_arrow", refuse)
        pipe.run(base=base_path)
    assert len(pipe.reports) == 2
    assert_oracle_equal(pipe)
    with monkeypatch.context() as m:
        m.setattr(ray.data, "from_arrow", refuse)
        assert compact_upto(lake, 1) == 8
        assert CdcPipeline(cfg).compact(all_partitions=True) == 8
        chk = fsck(lake, deep=True)
    assert chk["ok"], chk["errors"]
    assert all(len(m.files) == 1 for m in load_manifests(lake).values())
    assert_oracle_equal(pipe)


def test_status_last_epoch_and_phase_split(ray_session, fixture, tmp_path):
    """Every lineage epoch record splits the apply phase into spill and
    fold; status() reports the newest one from that file alone, and None
    before the first epoch."""
    lake = str(tmp_path / "lake")
    pipe = CdcPipeline(CdcConfig(lake_dir=lake,
                                 binlog_dir=fixture["binlog_dir"],
                                 num_partitions=8, epoch_size=4_000))
    assert pipe.status()["last_epoch"] is None
    pipe.run(base=fixture["base_path"])
    assert len(pipe.reports) >= 3
    paths = sorted(glob.glob(os.path.join(lake, "_lineage", "epoch-*.jsonl")))
    recs = [json.loads(open(p).readline()) for p in paths]
    for rec, rep in zip(recs, pipe.reports):
        assert rec["type"] == "epoch"
        assert set(rec["phase_sec"]) == {"ddl", "spill", "fold", "apply",
                                         "commit"}
        assert rec["phase_sec"] == rep.phase_sec
        assert rec["phase_sec"]["fold"] <= rec["phase_sec"]["apply"]
    # pipelined epochs spill during the previous fold: each still reports
    # a stage-1 wall of its own
    assert all(r.phase_sec["spill"] > 0 for r in pipe.reports)
    # the older lineage files are never opened
    for p in paths[:-1]:
        with open(p, "w") as f:
            f.write("not json\n")
    last = pipe.status()["last_epoch"]
    assert last == {k: recs[-1][k] for k in ("epoch", "wall_sec",
                                             "events_per_sec", "phase_sec")}
    assert last["epoch"] == pipe.reports[-1].epoch
