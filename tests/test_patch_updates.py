"""Patch-mode (partial-image) updates: per-column last-non-null fold with
state inheritance — oracle semantics, engine parity across every shuffle and
write mode, DLQ rule relaxation, and crash-restore (CdcConfig.update_mode,
oracle.apply_events(update_mode="patch"))."""

from __future__ import annotations

import glob
import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from thor_ray import gen, oracle
from thor_ray.pipelines import CdcConfig, CdcPipeline

EVT = {"txn": 0, "ddl": None, "ts": None, "shard": 0}


def _ev(lsn, op, repo="r", path="p", commit=None, lang=None, content=None,
        extra="{}", ver=0, **kw):
    return {"lsn": lsn, "op": op, "repo": repo, "path": path,
            "commit": commit, "lang": lang, "content": content,
            "extra": extra, "schema_ver": ver, **EVT, **kw}


def _table(rows):
    return pa.Table.from_pylist(rows, schema=gen.EVENT_SCHEMA)


def test_oracle_patch_semantics_hand_computed():
    """I = full image; U patches only its non-null columns; D clears; a
    patch after a delete rebuilds a partial row; duplicates drop."""
    rows = [
        _ev(1, "I", commit="c1", lang="py", content="v1"),
        _ev(2, "U", content="v2"),                      # commit/lang keep
        _ev(2, "U", content="CLOBBER"),                 # dup lsn → dropped
        _ev(3, "U", commit="c3"),                       # content keeps v2
        _ev(4, "I", repo="r", path="q", commit="cq", lang="go", content="q1"),
        _ev(5, "D", repo="r", path="q"),
        _ev(6, "U", repo="r", path="q", lang="rs"),     # patch after delete
    ]
    final, _ = oracle.apply_events(_table(rows), update_mode="patch")
    final = final.set_index("path")
    assert final.loc["p", "content"] == "v2"
    assert final.loc["p", "commit"] == "c3"
    assert final.loc["p", "lang"] == "py"
    # rebuilt partial row: only lang set, the rest null
    assert final.loc["q", "lang"] == "rs"
    assert final.loc["q", "content"] is None and final.loc["q", "commit"] is None


def test_oracle_patch_evolved_columns_and_rename():
    """extra carries only the evolved columns being set; a rename mid-stream
    maps later patches under the new name onto the carried-over value."""
    rows = [
        _ev(1, "I", commit="c", lang="py", content="x"),
        _ev(2, "DDL", repo=None, path=None,
            ddl='{"action": "add_column", "name": "c0", "type": "string"}'),
        _ev(3, "U", extra='{"c0": "a"}', ver=1),
        _ev(4, "U", commit="c4", ver=1),                # c0 untouched
        _ev(5, "DDL", repo=None, path=None, ver=1,
            ddl='{"action": "rename_column", "name": "c0", "new_name": "c1"}'),
        _ev(6, "U", extra='{"c1": "b"}', ver=2),
    ]
    final, _ = oracle.apply_events(_table(rows), update_mode="patch")
    assert list(final.columns) == ["repo", "path", "commit", "lang",
                                   "content", "c1"]
    assert final.iloc[0]["c1"] == "b" and final.iloc[0]["commit"] == "c4"
    # without the last patch the renamed value carries over
    final2, _ = oracle.apply_events(_table(rows[:-1]), update_mode="patch")
    assert final2.iloc[0]["c1"] == "a"


def test_oracle_full_mode_unchanged():
    """update_mode='full' keeps replacement semantics: a U with null lang
    SETS null (and a null-content U is malformed → dropped)."""
    rows = [
        _ev(1, "I", commit="c1", lang="py", content="v1"),
        _ev(2, "U", commit="c2", content="v2"),         # lang null = SET null
        _ev(3, "U", commit="c3"),                       # malformed in full
    ]
    final, _ = oracle.apply_events(_table(rows))
    assert final.iloc[0]["lang"] is None
    assert final.iloc[0]["commit"] == "c2"              # lsn 3 dead-lettered


@pytest.fixture(scope="module")
def patch_fixture(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("patchfix"))
    base = gen.gen_base_table(n_repos=25, paths_per_repo=16, seed=31)
    cfg = gen.BinlogConfig(n_events=10_000, n_shards=4, dup_rate=0.06,
                           shuffle_window=128, ddl_every=2_500,
                           delete_rate=0.08, update_rate=0.60,
                           corrupt_rate=0.01, seed=31, update_mode="patch")
    log = gen.gen_binlog(base, cfg)
    binlog_dir = os.path.join(d, "binlog")
    log.write(binlog_dir)
    events = pa.concat_tables(log.shards)
    expected, _ = oracle.apply_events(events, initial=base,
                                      update_mode="patch")
    base_path = os.path.join(d, "base.parquet")
    pq.write_table(base, base_path)
    # patch mode must actually exercise partial images + inheritance
    ev = events.to_pandas()
    u = ev[ev["op"] == "U"]
    assert u["content"].isna().any() and u["commit"].isna().any()
    return {"dir": d, "base_path": base_path, "binlog_dir": binlog_dir,
            "expected": expected}


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.where(pd.notna(df), None)
    return df.sort_values(["repo", "path"]).reset_index(drop=True)[
        sorted(df.columns)]


def _assert_oracle(pipe, fixture):
    got = _normalize(pipe.final_table().to_pandas())
    exp = _normalize(fixture["expected"])
    assert list(got.columns) == list(exp.columns)
    assert len(got) == len(exp)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


@pytest.mark.parametrize("shuffle,write_mode",
                         [("spill", "cow"), ("sort", "cow"),
                          ("spill", "delta"), ("sort", "delta")])
def test_patch_replay_matches_oracle(ray_session, patch_fixture, tmp_path,
                                     shuffle, write_mode):
    """Vectorized patch fold (one index-space reduction behind both
    exchanges) == single-process oracle, under dups, OOO, DDLs, and DLQ
    corruption."""
    cfg = CdcConfig(lake_dir=str(tmp_path / f"lake_{shuffle}_{write_mode}"),
                    binlog_dir=patch_fixture["binlog_dir"], num_partitions=8,
                    epoch_size=2_500, shuffle=shuffle, write_mode=write_mode,
                    update_mode="patch")
    pipe = CdcPipeline(cfg)
    pipe.run(base=patch_fixture["base_path"])
    _assert_oracle(pipe, patch_fixture)


def test_patch_restore_mid_run(ray_session, patch_fixture, tmp_path):
    """Cross-epoch inheritance survives a crash-restore: pure patches in a
    later epoch fold onto state committed by an earlier pipeline object."""
    lake = str(tmp_path / "lake_restore")
    mk = lambda: CdcPipeline(CdcConfig(
        lake_dir=lake, binlog_dir=patch_fixture["binlog_dir"],
        num_partitions=8, epoch_size=2_500, update_mode="patch"))
    p1 = mk()
    p1.run(base=patch_fixture["base_path"], until_lsn=5_000)  # "crash"
    p2 = mk()                                                 # fresh recovery
    p2.run()
    _assert_oracle(p2, patch_fixture)


def test_patch_dlq_rules(ray_session, patch_fixture, tmp_path):
    """In patch mode a null-content U is applied, not dead-lettered; the
    corrupt events (unknown op / null key / null-content I) still are."""
    lake = str(tmp_path / "lake_dlq")
    pipe = CdcPipeline(CdcConfig(
        lake_dir=lake, binlog_dir=patch_fixture["binlog_dir"],
        num_partitions=8, epoch_size=2_500, update_mode="patch"))
    pipe.run(base=patch_fixture["base_path"])
    dlq_files = glob.glob(os.path.join(lake, "_dlq", "*.parquet"))
    assert dlq_files
    dlq = pd.concat([pq.read_table(f).to_pandas() for f in dlq_files])
    # every dead-lettered U must be malformed for a reason OTHER than
    # null content (null key); legal partial images never land here
    u = dlq[dlq["op"] == "U"]
    assert (u["repo"].isna() | u["path"].isna()).all()
    bad_i = dlq[(dlq["op"] == "I") & dlq["repo"].notna()]
    assert bad_i["content"].isna().all()


def test_patch_with_ddl_defaults(ray_session, tmp_path):
    """Patch mode × DDL defaults: backfilled defaults inherit through
    partial images exactly as the oracle folds them."""
    base = gen.gen_base_table(n_repos=30, paths_per_repo=20, seed=55)
    cfg = gen.BinlogConfig(n_events=4_000, n_shards=3, dup_rate=0.04,
                           shuffle_window=96, ddl_every=1_000,
                           ddl_defaults=True, delete_rate=0.06,
                           update_rate=0.55, seed=55,
                           update_mode="patch")
    log = gen.gen_binlog(base, cfg)
    events = pa.concat_tables(log.shards)
    ddls = [d for d in (__import__("json").loads(x) for x in
            events.filter(pa.compute.equal(events["op"], "DDL"))
            ["ddl"].to_pylist()) if "default" in d]
    assert ddls
    expected, _ = oracle.apply_events(events, initial=base,
                                      update_mode="patch")
    binlog_dir = str(tmp_path / "binlog")
    log.write(binlog_dir)
    base_path = str(tmp_path / "base.parquet")
    pq.write_table(base, base_path)
    pipe = CdcPipeline(CdcConfig(
        lake_dir=str(tmp_path / "lake"), binlog_dir=binlog_dir,
        num_partitions=6, epoch_size=1_000, update_mode="patch"))
    pipe.run(base=base_path)
    got = _normalize(pipe.final_table().to_pandas())
    pd.testing.assert_frame_equal(got, _normalize(expected),
                                  check_dtype=False)
