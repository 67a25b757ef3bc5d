"""Zero-copy lake branching — dev/experiment branches over the CDC lake
(the LakeFS/Nessie table-branch shape, re-expressed for this lake's
per-partition manifest layout).

``create_branch`` materializes a fully standalone lake directory WITHOUT
copying data bytes: every committed state file is HARDLINKED into the
branch's partition dirs (parquet files are immutable by construction —
writers only ever create new epoch-stamped files and GC unlinks names, so
two names on one inode can never see torn bytes; on a filesystem without
hardlinks, e.g. across devices, the copy fallback engages). The branch
gets its own manifests / schema registry / engine meta, so every engine
facility — resuming the SAME binlog replay from the copied watermark,
delete_where, compaction, changefeed, time travel — just works on it,
while the source lake is never touched.

The creation-time manifests are also kept under
``<branch>/_manifests/fork/`` — the three-way merge BASE. state/manifest
``gc_lake`` protects fork-referenced files from the branch's own
compactions (a deleted hardlink would orphan the merge base, not the
source's bytes).

``lake_diff`` compares two lakes with the SAME partitioning (a branch and
its source, or two branches): partition-aligned, one task per partition,
no shuffle — the cross-lake generalization of ``snapshot_diff``.

``merge_branch`` folds a branch's changes-since-fork back into a target
pipeline's lake the CDC-idiomatic way: the (fork → branch-now) diff is
written into the TARGET'S BINLOG as ordinary I/U/D events at fresh
interleaved lsns (``sources.binlog.append_events``, the one append path
of every out-of-band writer) and rides the
normal exactly-once apply on the next ``run()`` — the lake itself is
never mutated out-of-band. ``strategy="fail_on_conflict"`` refuses when
the target also changed a branch-modified key since the fork (computed as
the key-intersection of the two fork diffs, distributed);
``strategy="theirs"`` lets the branch win (its events carry the highest
lsns). Re-issuing a merge before the next run() overwrites the identical
segments (deterministic names); re-merging after it re-applies the same
values (value-idempotent).

Scale shape: branch creation is metadata + hardlinks (O(files), no data
I/O); diffs are one task per partition; merge injection is a shard-salted
groupby over the diff rows with the evolved columns JSON-encoded by the
vectorized polars kernel (stages/envelope.py) — nothing corpus-sized
lands on the driver.
"""

from __future__ import annotations

import glob
import json
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

_FORK = "fork"


def _link_or_copy(src: str, dst: str) -> None:
    if os.path.exists(dst):
        os.remove(dst)              # idempotent re-create
    try:
        os.link(src, dst)
    except OSError:                 # cross-device / fs without hardlinks
        shutil.copy2(src, dst)


def create_branch(src_lake: str, branch_dir: str,
                  at_epoch: int | None = None,
                  at_tag: str | None = None) -> dict:
    """Zero-copy branch of a committed lake (module docstring). Returns
    {"partitions", "files", "fork_epoch", "fork_upto_lsn"}.

    ``at_epoch`` branches from a RETAINED time-travel snapshot instead of
    the current state (requires ``CdcConfig.retain_snapshots > 0`` on the
    source — the archived manifests and the files they reference are
    gc-protected on the source for as long as the snapshot is retained;
    the branch hardlinks them, so it keeps them alive independently of
    the source's retention window afterwards). ``at_tag`` resolves a
    named savepoint tag to its epoch (tags pin their archives, so a
    tagged branch point never ages out of retention)."""
    from thor_ray.state import (list_tags, load_manifests,
                                load_manifests_at, snapshot_active,
                                write_manifest)
    from thor_ray.state.manifest import Manifest, _atomic_write

    if at_tag is not None:
        if at_epoch is not None:
            raise ValueError("pass at_epoch or at_tag, not both")
        tags = list_tags(src_lake)
        if at_tag not in tags:
            raise KeyError(f"no savepoint tag {at_tag!r} on {src_lake} "
                           f"(have {sorted(tags)})")
        at_epoch = tags[at_tag]
    if snapshot_active(src_lake):
        raise ValueError("cannot branch while an incremental snapshot is "
                         "in progress (retained tombstones would leak)")
    ms = load_manifests(src_lake) if at_epoch is None \
        else load_manifests_at(src_lake, at_epoch)
    if not ms:
        raise ValueError(
            f"no manifests under {src_lake}" if at_epoch is None else
            f"no retained snapshot at epoch {at_epoch} under {src_lake} "
            "(retain_snapshots off, or pruned)")
    os.makedirs(branch_dir, exist_ok=True)
    fork_dir = os.path.join(branch_dir, "_manifests", _FORK)
    os.makedirs(fork_dir, exist_ok=True)
    n_files = 0
    for pid, m in sorted(ms.items()):
        pdir = os.path.join(branch_dir, f"part={pid:05d}")
        os.makedirs(pdir, exist_ok=True)
        local = []
        for f in m.files:
            dst = os.path.join(pdir, os.path.basename(f))
            _link_or_copy(f, dst)
            local.append(dst)
            n_files += 1
        m2 = Manifest(m.partition_id, m.epoch, m.upto_lsn, m.schema_ver,
                      local, m.row_count, m.content_hash,
                      dict(m.lineage, branched_from=os.path.abspath(src_lake)))
        write_manifest(branch_dir, m2)
        # the merge base: same payload, frozen under _manifests/fork
        _atomic_write(os.path.join(fork_dir, f"part-{pid:05d}.json"),
                      {**json.loads(m2.to_json()),
                       "files": [os.path.relpath(f, branch_dir)
                                 for f in local]})
    # schema registry + engine meta travel with the branch (routing and
    # event decode must match the source exactly)
    os.makedirs(os.path.join(branch_dir, "_schema"), exist_ok=True)
    for name in ("registry.json", "engine.json"):
        p = os.path.join(src_lake, "_schema", name)
        if os.path.exists(p):
            shutil.copy2(p, os.path.join(branch_dir, "_schema", name))
    _atomic_write(os.path.join(branch_dir, "_schema", "branch.json"),
                  {"source": os.path.abspath(src_lake),
                   "fork_epoch": min(m.epoch for m in ms.values()),
                   "fork_upto_lsn": min(m.upto_lsn for m in ms.values())})
    return {"partitions": len(ms), "files": n_files,
            "fork_epoch": min(m.epoch for m in ms.values()),
            "fork_upto_lsn": min(m.upto_lsn for m in ms.values())}


def branch_info(branch_dir: str) -> dict | None:
    """The branch descriptor written at creation, or None if ``branch_dir``
    was not created by create_branch."""
    p = os.path.join(branch_dir, "_schema", "branch.json")
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)


def delete_branch(branch_dir: str) -> int:
    """Tear a branch down wholesale. Safe by construction: every data
    file under the branch is either a hardlink (the source keeps its own
    name on the shared inode) or branch-local — deleting the tree can
    never lose source bytes. Refuses a directory that was not created by
    create_branch (the guard against pointing it at a real lake).
    Returns the number of data files removed."""
    if branch_info(branch_dir) is None:
        raise ValueError(f"{branch_dir} is not a branch "
                         "(no _schema/branch.json) — refusing to delete")
    n = len(glob.glob(os.path.join(branch_dir, "part=*", "*.parquet")))
    shutil.rmtree(branch_dir)
    return n


def load_fork_manifests(branch_dir: str) -> dict:
    """The frozen creation-time manifests (merge base), files absolute."""
    from thor_ray.state.manifest import Manifest
    out = {}
    for p in glob.glob(os.path.join(branch_dir, "_manifests", _FORK,
                                    "part-*.json")):
        with open(p) as f:
            m = Manifest.from_json(f.read())
        m.files = [f_ if os.path.isabs(f_)
                   else os.path.join(branch_dir, f_) for f_ in m.files]
        out[m.partition_id] = m
    return out


def _diff_manifest_sets(ms_a: dict, ms_b: dict,
                        payload_b: bool = False) -> "ray.data.Dataset":
    """Partition-aligned diff of two manifest sets (same key hash + P):
    one task per partition folds both file runs and compares locally —
    the snapshot_diff kernel generalized across lakes. With
    ``payload_b=True`` the I/U rows also carry side-b's payload columns
    (what a merge injects)."""
    from thor_ray.sources.lake import INTERNAL_COLS
    from thor_ray.state.merge import merge_runs
    import pyarrow.parquet as pq

    pids = sorted(set(ms_a) | set(ms_b))
    items = pa.table({
        "files_a": pa.array([json.dumps(ms_a[p].files if p in ms_a else [])
                             for p in pids]),
        "files_b": pa.array([json.dumps(ms_b[p].files if p in ms_b else [])
                             for p in pids]),
    })

    def diff_task(batch: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for fa, fb in zip(batch["files_a"], batch["files_b"]):
            a, b = (merge_runs([pq.read_table(f)
                                for f in json.loads(fs)]).to_pandas()
                    for fs in (fa, fb))
            for df in (a, b):
                for c in ("repo", "path", "_lsn"):
                    if c not in df.columns:
                        df[c] = pd.Series(dtype="object")
            vis = sorted((set(a.columns) | set(b.columns))
                         - set(INTERNAL_COLS) - {"repo", "path"})
            mg = a.merge(b, on=["repo", "path"], how="outer",
                         suffixes=("_a", "_b"), indicator=True)
            na = pd.Series(pd.NA, index=mg.index)

            def side(c: str, suffix: str, present: bool) -> pd.Series:
                if f"{c}{suffix}" in mg.columns:
                    return mg[f"{c}{suffix}"]
                return mg[c] if (present and c in mg.columns) else na

            changed = pd.Series(False, index=mg.index)
            bcols = {}
            for c in vis:
                va = side(c, "_a", c in a.columns)
                vb = side(c, "_b", c in b.columns)
                changed |= ~((va == vb) | (va.isna() & vb.isna()))
                if payload_b:
                    bcols[c] = vb
            out = pd.DataFrame({
                "repo": mg["repo"], "path": mg["path"],
                "change": np.where(mg["_merge"] == "right_only", "I",
                                   np.where(mg["_merge"] == "left_only",
                                            "D", "U")),
                "lsn_a": mg["_lsn_a"], "lsn_b": mg["_lsn_b"],
                **bcols,
            })
            keep = (mg["_merge"] != "both").to_numpy() | changed.to_numpy()
            outs.append(out[keep])
        cols = ["repo", "path", "change", "lsn_a", "lsn_b"]
        res = pd.concat(outs, ignore_index=True) if outs \
            else pd.DataFrame(columns=cols)
        res["lsn_a"] = res["lsn_a"].astype("Int64")
        res["lsn_b"] = res["lsn_b"].astype("Int64")
        return res

    return (ray.data.from_arrow(items)
            .repartition(items.num_rows)
            .map_batches(diff_task, batch_format="pandas", batch_size=None))


def lake_diff(lake_a: str, lake_b: str,
              payload_b: bool = False) -> "ray.data.Dataset":
    """Keys whose visible state differs between two same-partitioned lakes
    — change 'I' (only in b), 'D' (only in a), 'U' (values differ)."""
    from thor_ray.state import load_manifests
    _same_layout_guard(lake_a, lake_b, "lake_diff")
    return _diff_manifest_sets(load_manifests(lake_a),
                               load_manifests(lake_b), payload_b)


def _same_layout_guard(lake_a: str, lake_b: str, who: str) -> None:
    def meta(d):
        p = os.path.join(d, "_schema", "engine.json")
        if not os.path.exists(p):
            return None
        with open(p) as f:
            return json.load(f)
    ma, mb = meta(lake_a), meta(lake_b)
    if ma and mb and (ma.get("hash_impl") != mb.get("hash_impl")
                      or ma.get("num_partitions") != mb.get("num_partitions")):
        raise ValueError(f"{who}: lakes are not partition-aligned "
                         f"({ma} vs {mb})")


def merge_branch(branch_dir: str, target, *,
                 strategy: str = "fail_on_conflict") -> int:
    """Inject the branch's changes-since-fork into ``target``'s binlog
    (module docstring). ``target`` is the CdcPipeline whose lake receives
    the merge; call ``target.run()`` afterwards to apply. Returns the
    number of injected events."""
    from thor_ray.sources.binlog import append_events, row_image_events
    from thor_ray.state import SchemaRegistry, load_manifests

    if strategy not in ("theirs", "fail_on_conflict"):
        raise ValueError(f"strategy must be 'theirs' or "
                         f"'fail_on_conflict', got {strategy!r}")
    cfg = target.cfg
    _same_layout_guard(branch_dir, cfg.lake_dir, "merge_branch")
    reg_b = SchemaRegistry.load(branch_dir)
    reg_t = SchemaRegistry.load(cfg.lake_dir)
    if reg_b.entries != reg_t.entries:
        raise ValueError("merge_branch requires identical schema "
                         "registries on branch and target (divergent DDL "
                         "timelines cannot be merged)")
    fork = load_fork_manifests(branch_dir)
    if not fork:
        raise ValueError(f"{branch_dir} has no fork manifests — not a "
                         "branch created by create_branch()")

    changes = _diff_manifest_sets(fork, load_manifests(branch_dir),
                                  payload_b=True)

    if strategy == "fail_on_conflict":
        from thor_ray.ops.relational import hash_join
        theirs = changes.select_columns(["repo", "path"])
        ours = _diff_manifest_sets(fork, load_manifests(cfg.lake_dir)) \
            .select_columns(["repo", "path"])
        # guard the empty sides before the native join (Ray 2.49's hash
        # join chokes on empty hash partitions)
        if ours.count() > 0 and theirs.count() > 0:
            clash = hash_join(theirs, ours, on=("repo", "path"),
                              join_type="inner").limit(5).to_pandas()
            if len(clash):
                raise ValueError(
                    "merge conflict: target also changed branch-modified "
                    f"keys since the fork, e.g. "
                    f"{clash.to_dict('records')[:3]}"
                    " — resolve or merge with strategy='theirs'")

    # merge identity → true idempotence: a re-issued merge of the SAME
    # (fork, branch-state) pair must overwrite its own segments at the
    # SAME lsns, not append a second copy at the new log end (the first
    # injection raised max_lsn). The identity is encoded in the segment
    # name; on re-issue append_events parses the original base lsn back.
    ident = (f"{min(m.upto_lsn for m in fork.values())}x"
             f"{min(m.upto_lsn for m in load_manifests(branch_dir).values())}")
    evolved = reg_t.columns_at(reg_t.version)

    def to_events(t: pa.Table) -> pa.Table:
        t = t.rename_columns(["op" if c == "change" else c
                              for c in t.column_names])
        return row_image_events(t, evolved)

    return append_events(
        cfg.binlog_dir, changes.map_batches(to_events, batch_format="pyarrow"),
        "mrg", ident=ident, schema_ver=reg_t.version)
