"""Segment layout of the five out-of-band binlog writers (delete_where,
update_where, ingest_dataset, replay_dlq, merge_branch).

Re-issue idempotence rests on the segment NAMES (an identity-keyed
writer finds its earlier segments by name and reuses their base lsn),
and exactly-once apply rests on the LSNS (unique, above the log end,
interleaved across shards without coordination). This pins both: the
name form of each writer, lsn = base + 1 + s + k*n_shards within shard
s, the shard = stable_hash(repo, path) % n_shards routing, and
replay_dlq's original-lsn order within a shard.
"""

from __future__ import annotations

import glob
import os
import re
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from thor_ray import gen
from thor_ray.pipelines import CdcConfig, CdcPipeline
from thor_ray.sources import binlog as binlog_src
from thor_ray.stages.smt import stable_hash
from thor_ray.state import load_manifests

N_SHARDS = 3


def _segments(binlog: str) -> set[str]:
    return set(glob.glob(os.path.join(binlog, "shard-*.parquet")))


def _check_layout(binlog: str, before: set[str], base: int,
                  stem: str) -> list[pa.Table]:
    """Every new segment is shard-SSSS-<stem>.parquet, holds only rows
    routed to shard SSSS, at lsns base+1+s+k*N_SHARDS. Returns the new
    segments' tables."""
    new = sorted(_segments(binlog) - before)
    assert new, f"no new segments for {stem}"
    out = []
    for f in new:
        m = re.fullmatch(r"shard-(\d{4})-(.+)\.parquet", os.path.basename(f))
        assert m and m.group(2) == stem, os.path.basename(f)
        s = int(m.group(1))
        t = pq.read_table(f)
        k = t.num_rows
        assert k > 0
        want = base + 1 + s + np.arange(k, dtype=np.int64) * N_SHARDS
        assert t["lsn"].to_numpy().tolist() == want.tolist(), f
        assert set(t["shard"].to_pylist()) == {s}
        assert set((stable_hash(t, ["repo", "path"]) % N_SHARDS).tolist()) \
            == {s}
        assert t.schema.equals(gen.EVENT_SCHEMA)
        out.append(t)
    return out


def test_out_of_band_segment_layout(ray_session, tmp_path):
    from thor_ray.sources.branch import create_branch, merge_branch

    info = gen.write_fixture(
        str(tmp_path / "fixture"), n_keys=300,
        cfg=gen.BinlogConfig(n_events=3_000, n_shards=N_SHARDS,
                             ddl_every=1_000, corrupt_rate=0.02,
                             delete_rate=0.06, seed=5))
    binlog = info["binlog_dir"]
    # the branch tails its own copy of the log, so its divergence leaves
    # the target's binlog alone
    bbinlog = str(tmp_path / "branch_binlog")
    shutil.copytree(binlog, bbinlog)
    end = binlog_src.max_lsn(binlog)
    pipe = CdcPipeline(CdcConfig(
        lake_dir=str(tmp_path / "lake"), binlog_dir=binlog,
        num_partitions=4, epoch_size=1_000))
    pipe.run(base=info["base"])
    bdir = str(tmp_path / "branch")
    create_branch(pipe.cfg.lake_dir, bdir)
    bpipe = CdcPipeline(CdcConfig(lake_dir=bdir, binlog_dir=bbinlog,
                                  num_partitions=4, epoch_size=1_000))
    assert bpipe.delete_where("lang == 'go'") > 0
    bpipe.run()
    live = pipe.final_table().to_pandas()

    # delete_where: shard-SSSS-del<base>
    before, base = _segments(binlog), binlog_src.max_lsn(binlog)
    assert base == end
    n = pipe.delete_where("lang == 'py'")
    segs = _check_layout(binlog, before, base, f"del{base:010d}")
    assert n == sum(t.num_rows for t in segs) == int((live["lang"] == "py").sum())
    assert all(set(t["op"].to_pylist()) == {"D"} for t in segs)

    # update_where: shard-SSSS-upd<ident>-<base>
    def shout(t: pa.Table) -> pa.Table:
        i = t.column_names.index("content")
        return t.set_column(i, "content", pc.utf8_upper(t["content"]))

    before, base = _segments(binlog), binlog_src.max_lsn(binlog)
    n = pipe.update_where("lang == 'go'", shout, ident="u1")
    segs = _check_layout(binlog, before, base, f"updu1-{base:010d}")
    assert n == sum(t.num_rows for t in segs) == int((live["lang"] == "go").sum())
    assert all(set(t["op"].to_pylist()) == {"U"} for t in segs)

    # ingest_dataset: shard-SSSS-ing<ident>-<base>; a re-issue reuses the
    # base lsn of the existing segments (same names, same lsns)
    load = pd.DataFrame({"repo": [f"r{i % 4}" for i in range(40)],
                         "path": [f"p/{i}.py" for i in range(40)],
                         "content": [f"body {i}" for i in range(40)]})
    before, base = _segments(binlog), binlog_src.max_lsn(binlog)
    assert pipe.ingest_dataset(ray.data.from_pandas(load), ident="load1") == 40
    segs = _check_layout(binlog, before, base, f"ingload1-{base:010d}")
    assert sum(t.num_rows for t in segs) == 40
    after = _segments(binlog)
    assert pipe.ingest_dataset(ray.data.from_pandas(load), ident="load1") == 40
    assert _segments(binlog) == after
    _check_layout(binlog, before, base, f"ingload1-{base:010d}")

    # replay_dlq: shard-SSSS-rpl<base>, original-lsn order within a shard
    def fix(t: pa.Table) -> pa.Table:
        idx = t.schema.get_field_index
        t = t.set_column(idx("op"), "op",
                         pc.if_else(pc.is_in(t["op"], pa.array(["I", "U", "D"])),
                                    t["op"], pa.scalar("I")))
        t = t.set_column(idx("repo"), "repo", pc.fill_null(t["repo"], "fix"))
        t = t.set_column(idx("path"), "path", pc.fill_null(t["path"], "fp"))
        # the original lsn rides in the content, to check the order below
        return t.set_column(idx("content"), "content", pc.cast(
            pc.cast(t["lsn"], pa.string()), t.schema.field("content").type))

    before, base = _segments(binlog), binlog_src.max_lsn(binlog)
    n = pipe.replay_dlq(fix)
    assert n > 0
    segs = _check_layout(binlog, before, base, f"rpl{base:010d}")
    assert n == sum(t.num_rows for t in segs)
    for t in segs:
        orig = [int(c) for c in t["content"].to_pylist()]
        assert orig == sorted(orig) and len(set(orig)) == len(orig)

    # merge_branch: shard-SSSS-mrg<fork watermark>x<branch watermark>-<base>
    ident = f"{end}x{binlog_src.max_lsn(bbinlog)}"
    assert ident == (f"{min(m.upto_lsn for m in load_manifests(pipe.cfg.lake_dir).values())}"
                     f"x{min(m.upto_lsn for m in load_manifests(bdir).values())}")
    before, base = _segments(binlog), binlog_src.max_lsn(binlog)
    n = merge_branch(bdir, pipe, strategy="theirs")
    segs = _check_layout(binlog, before, base, f"mrg{ident}-{base:010d}")
    assert n == sum(t.num_rows for t in segs) > 0
