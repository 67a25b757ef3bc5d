"""Footer-bloom file skipping for lake point lookups (state/bloom.py +
sources.lake._bloom_prune): no false negatives ever, measurable pruning
on an LSM run, lookups identical with and without the filter."""

from __future__ import annotations

import glob
import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from thor_ray import gen, oracle
from thor_ray.pipelines import CdcConfig, CdcPipeline
from thor_ray.sources.lake import lake_lookup
from thor_ray.state import bloom


def test_bloom_no_false_negatives_and_fpp():
    rng = np.random.default_rng(7)
    members = rng.integers(0, 2**63, size=5_000, dtype=np.int64)
    others = rng.integers(0, 2**63, size=20_000, dtype=np.int64)
    others = others[~np.isin(others, members)]
    blob = bloom.build(members, impl="polars")
    assert bloom.might_contain(blob, members, "polars").all()
    fpp = bloom.might_contain(blob, others, "polars").mean()
    assert fpp < 0.05, fpp
    # impl mismatch and malformed blob degrade to all-True (never prune)
    assert bloom.might_contain(blob, others, "fnv").all()
    assert bloom.might_contain(b"junk", others, "polars").all()
    # empty filter: nothing is a member except via degradation paths
    empty = bloom.build(np.empty(0, dtype=np.int64), impl="polars")
    assert not bloom.might_contain(empty, members, "polars").any()


@pytest.fixture(scope="module")
def lsm_lake(tmp_path_factory, ray_session):
    """Delta-mode lake with a long uncompacted run per partition, so the
    point-read path has files to skip."""
    d = str(tmp_path_factory.mktemp("bloomlake"))
    # wide keyspace (4000 keys, ~2 events each): a given key appears in
    # only a couple of the ~10 delta runs, so blooms have files to skip —
    # with a hot-key fixture every file genuinely contains the key and
    # pruning (correctly) does nothing
    base = gen.gen_base_table(n_repos=200, paths_per_repo=20, seed=31)
    cfg = gen.BinlogConfig(n_events=8_000, n_shards=3, dup_rate=0.04,
                           shuffle_window=64, ddl_every=0,
                           delete_rate=0.05, update_rate=0.5, seed=31)
    log = gen.gen_binlog(base, cfg)
    binlog_dir = os.path.join(d, "binlog")
    log.write(binlog_dir)
    base_path = os.path.join(d, "base.parquet")
    pq.write_table(base, base_path)
    lake = os.path.join(d, "lake")
    pipe = CdcPipeline(CdcConfig(
        lake_dir=lake, binlog_dir=binlog_dir, num_partitions=4,
        epoch_size=800, write_mode="delta", compact_every=64))
    pipe.run(base=base_path)
    expected, _ = oracle.apply_events(
        __import__("pyarrow").concat_tables(log.shards), initial=base)
    return {"lake": lake, "expected": expected}


def test_lookup_prunes_and_matches(lsm_lake):
    exp = lsm_lake["expected"]
    # a present key, a deleted/absent key, and a never-existed key
    present = [tuple(exp.iloc[0][["repo", "path"]]),
               tuple(exp.iloc[-1][["repo", "path"]])]
    absent = [("repo-zz", "no/such/file.py")]
    stats: dict = {}
    got = lake_lookup(lsm_lake["lake"], present + absent, stats=stats)
    assert len(got) == 2
    for (r, p) in present:
        row = got[(got["repo"] == r) & (got["path"] == p)]
        assert len(row) == 1
        want = exp[(exp["repo"] == r) & (exp["path"] == p)].iloc[0]
        assert row.iloc[0]["content"] == want["content"]
    # the LSM run is long (compact_every=64, ~10 epochs of deltas):
    # a 2-key lookup must skip most run files
    assert stats["files_total"] > 8, stats
    assert stats["files_read"] < stats["files_total"] / 2, stats


def test_lookup_absent_key_reads_nothing(lsm_lake):
    """A never-written key should bloom-miss every run file (up to fpp),
    so the read set collapses to (almost) nothing."""
    stats: dict = {}
    got = lake_lookup(lsm_lake["lake"],
                      [("repo-zz", "nowhere.py")], stats=stats)
    assert len(got) == 0
    # one partition's run consulted; nearly all files skipped
    assert stats["files_read"] <= max(1, stats["files_total"] // 4), stats


def test_lookup_sweep_matches_oracle(lsm_lake):
    """Every live key round-trips through the pruned path (the no-false-
    negative property end-to-end, not just in the unit test)."""
    exp = lsm_lake["expected"]
    keys = [tuple(r) for r in exp[["repo", "path"]].itertuples(index=False)]
    got = lake_lookup(lsm_lake["lake"], keys)
    assert len(got) == len(exp)
    g = got.sort_values(["repo", "path"]).reset_index(drop=True)
    e = exp.sort_values(["repo", "path"]).reset_index(drop=True)
    pd.testing.assert_series_equal(g["content"], e["content"])


def test_base_and_snapshot_files_carry_footers(ray_session, tmp_path):
    """Bootstrap base files and snapshot-chunk files are written by the
    one state-file writer: both carry the thor_kind and thor_bloom footer
    keys, so a lookup of a key a file lacks skips that file."""
    import ray

    info = gen.write_fixture(
        str(tmp_path / "fixture"), n_keys=400,
        cfg=gen.BinlogConfig(n_events=500, n_shards=2, ddl_every=0, seed=3))

    def pipe_on(lake: str) -> CdcPipeline:
        return CdcPipeline(CdcConfig(lake_dir=lake,
                                     binlog_dir=info["binlog_dir"],
                                     num_partitions=4, epoch_size=1_000))

    base_lake = str(tmp_path / "base_lake")
    pipe_on(base_lake).run(base=info["base"], max_epochs=0)  # bootstrap
    snap_lake = str(tmp_path / "snap_lake")
    snap = pipe_on(snap_lake)
    snap.bootstrap(None)
    snap._inject_chunk(0, ray.data.read_parquet(info["base"]))
    base_files = glob.glob(os.path.join(base_lake, "part=*",
                                        "state-e000000.parquet"))
    snap_files = glob.glob(os.path.join(snap_lake, "part=*", "snap-*.parquet"))
    assert len(base_files) == 4 and len(snap_files) == 4
    for f in base_files + snap_files:
        md = pq.read_schema(f).metadata
        assert md[b"thor_kind"] == b"full", f
        assert b"thor_bloom" in md, f
    for lake in (base_lake, snap_lake):
        stats: dict = {}
        assert len(lake_lookup(lake, [("repo-zz", "nowhere.py")],
                               stats=stats)) == 0
        assert stats == {"files_total": 1, "files_read": 0}, (lake, stats)


@pytest.fixture
def hand_lake(tmp_path):
    """A one-partition delta lake written by the state-file writer: a
    full base run and one delta run. In the delta, (r0, gone.py) is a
    tombstone over a base row and (r0, dead.py) a tombstone with no
    older row; (r1, shared.py) is updated while (r0, shared.py) — same
    path, other repo — keeps its base row."""
    from thor_ray.pipelines.cdc import _write_state_file
    from thor_ray.state import Manifest, write_manifest

    def rows(spec):
        return pd.DataFrame({
            "repo": [r for r, *_ in spec], "path": [p for _, p, *_ in spec],
            "commit": "c", "lang": "py",
            "content": [c for *_, c, _, _ in spec],
            "_lsn": np.array([n for *_, n, _ in spec], dtype=np.int64),
            "_sha": "", "_op": [o for *_, o in spec]})

    lake = str(tmp_path / "lake")
    part = os.path.join(lake, "part=00000")
    os.makedirs(part)
    base = os.path.join(part, "state-e000000.parquet")
    delta = os.path.join(part, "state-e000001.parquet")
    _write_state_file(rows([("r0", "shared.py", "base-r0", 0, "U"),
                            ("r1", "shared.py", "base-r1", 0, "U"),
                            ("r0", "gone.py", "was-here", 0, "U")]),
                      base, [])
    _write_state_file(rows([("r1", "shared.py", "new-r1", 5, "U"),
                            ("r0", "gone.py", "", 6, "D"),
                            ("r0", "dead.py", "", 7, "D")]),
                      delta, [], kind="delta")
    write_manifest(lake, Manifest(0, 1, 7, 0, [base, delta], -1, ""))
    return lake


def test_lookup_tombstone_only_key_is_absent(hand_lake):
    """A key whose only row in the files the bloom keeps is a tombstone
    (the base file bloom-misses it) folds to nothing, as does a key
    whose tombstone outranks a base row."""
    stats: dict = {}
    assert len(lake_lookup(hand_lake, [("r0", "dead.py")],
                           stats=stats)) == 0
    assert stats == {"files_total": 2, "files_read": 1}, stats
    assert len(lake_lookup(hand_lake, [("r0", "gone.py")])) == 0


def test_lookup_shared_path_other_repo(hand_lake):
    """The parquet read filters on path alone, which also yields the
    other repo's row of a shared path: the exact (repo, path) match must
    drop it, in both directions."""
    got = lake_lookup(hand_lake, [("r0", "shared.py")])
    assert got[["repo", "path", "content"]].values.tolist() == \
        [["r0", "shared.py", "base-r0"]]
    got = lake_lookup(hand_lake, [("r1", "shared.py")])
    assert got[["repo", "path", "content"]].values.tolist() == \
        [["r1", "shared.py", "new-r1"]]
    got = lake_lookup(hand_lake, [("r1", "shared.py"), ("r0", "shared.py"),
                                  ("r2", "shared.py")])
    assert got["content"].tolist() == ["base-r0", "new-r1"]
    assert not {"_lsn", "_sha", "_op"} & set(got.columns)
