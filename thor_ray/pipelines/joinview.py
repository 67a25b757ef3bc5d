"""Incremental JOIN-view maintenance across two co-partitioned lakes.

``JoinView`` is the two-table sibling of ``pipelines.ivm``: it stitches
TWO delta-mode lakes together on the lake key (repo, path) — the
Debezium "join two topics by primary key" consumer shape (e.g. a
content lake and a metadata lake demuxed from different sources) — and
keeps the joined table current from the changefeeds alone, never
rescanning either lake.

The view state is a per-partition *full-outer stitch ledger*: one row
per key live in EITHER side, holding the selected columns of both sides
plus liveness flags

    view_dir/part=NNNNN/join-a{EA}-b{EB}.parquet
        (repo, path, a_live, b_live, <cols_a...>, <cols_b...>)
    view_dir/_join_manifest.json                  commit point

Inner / left / right / full joins are flag *projections* of the ledger
— one materialization serves all four.

Scale shape: both lakes must be partition-aligned (same partition
count, same router hash, same route_on — enforced against each lake's
``_schema/engine.json``), so maintenance is ONE task per partition with
zero shuffle: each task reads only the two sides' level-0 delta runs
for the advanced epoch ranges (O(changes), column-pruned to the
selected columns) plus its own ledger file, applies last-lsn-wins per
key per side, and rewrites the ledger. No lake state is ever consulted
at advance time — the ledger itself carries the "other side" image, so
a one-sided change never triggers a lookup. The driver moves only
per-partition stat rows (kilobytes).

Exactly-once: ledger files are written under deterministic
epoch-pair-stamped names and the JSON manifest is swapped last (tmp +
rename) — a crashed ``advance()`` re-run overwrites identical files and
commits once (the IVM protocol; pinned in tests/test_joinview.py).

Contracts inherited from sources.lake.read_changefeed: both lakes need
``write_mode='delta'`` with the advanced range still level-0; after a
compaction / DDL fold, ``rebuild()`` re-anchors from the live lakes in
one partition-aligned pass. The epoch-0 bootstrap image (full base
table at _lsn=0) seeds a fresh ledger exactly as it seeds the lake.
"""

from __future__ import annotations

import glob
import json
import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from thor_ray.state.tasks import fan_out, split

_MANIFEST = "_join_manifest.json"
_KEY = ["repo", "path"]
_RESERVED = set(_KEY) | {"a_live", "b_live"}


def _atomic_json(path: str, payload: dict) -> None:
    from thor_ray.state.storage import storage_for

    storage_for(path).put_bytes(path, json.dumps(payload).encode())


def _engine_meta(lake_dir: str) -> dict:
    p = os.path.join(lake_dir, "_schema", "engine.json")
    if not os.path.exists(p):
        raise ValueError(f"no engine meta under {lake_dir} — not a lake "
                         "written by CdcPipeline?")
    with open(p) as f:
        m = json.load(f)
    m.setdefault("route_on", "key")
    return m


def _side_changes(lake_dir: str, pid: int, e0: int, e1: int,
                  src_cols: list[str], fresh: bool) -> pd.DataFrame:
    """One partition's change rows for epochs (e0, e1], last-lsn-wins per
    key, column-pruned to the selected payload columns. ``fresh`` seeds
    from the epoch-0 bootstrap image (full base at _lsn=0) exactly like
    pipelines.ivm._advance_partition."""
    part_dir = os.path.join(lake_dir, f"part={pid:05d}")
    first = e0 if (fresh and e0 == 0) else e0 + 1
    tables = []
    for e in range(first, e1 + 1):
        p = os.path.join(part_dir, f"state-e{e:06d}.parquet")
        if not os.path.exists(p):
            continue                    # no changes for this pid/epoch
        sch = pq.read_schema(p)
        meta = sch.metadata or {}
        if e > 0 and meta.get(b"thor_kind") != b"delta":
            raise ValueError(
                f"epoch {e}: {p} is a compaction product — the change "
                "history was folded; call rebuild() to re-anchor the view")
        names = set(sch.names)
        missing = [c for c in src_cols if c not in names]
        if missing:
            raise ValueError(
                f"epoch {e}: columns {missing} missing from the delta run "
                f"under {part_dir} (DDL rename/drop?) — rebuild() with an "
                "updated selection")
        tables.append(pq.read_table(p, columns=_KEY + src_cols
                                    + ["_op", "_lsn"]))
    if not tables:
        return pd.DataFrame()
    ch = pa.concat_tables(tables).to_pandas()
    return ch.sort_values("_lsn", kind="stable") \
        .drop_duplicates(_KEY, keep="last")


def _empty_ledger(out_a: list[str], out_b: list[str]) -> pd.DataFrame:
    d = {"repo": pd.Series(dtype="object"),
         "path": pd.Series(dtype="object"),
         "a_live": pd.Series(dtype="bool"),
         "b_live": pd.Series(dtype="bool")}
    for c in out_a + out_b:
        d[c] = pd.Series(dtype="object")
    return pd.DataFrame(d)


def _apply_side(led: pd.DataFrame, ch: pd.DataFrame, flag: str,
                src_cols: list[str], out_cols: list[str]) -> pd.DataFrame:
    """Overlay one side's final-per-key change rows onto the stitch
    ledger: touched keys get this side's image (or a dead flag + nulled
    columns on delete); new keys join with the other side absent."""
    if ch.empty:
        return led
    live = (ch["_op"] != "D").to_numpy()
    upd = pd.DataFrame({"repo": ch["repo"].to_numpy(),
                        "path": ch["path"].to_numpy(),
                        flag: live})
    live_s = pd.Series(live, index=ch.index)
    for oc, sc in zip(out_cols, src_cols):
        # object dtype keeps delete-nulled slots as None across advances
        # (a numeric payload column would otherwise flip to float64 NaN
        # and change the ledger's parquet schema between runs)
        upd[oc] = ch[sc].astype(object).where(live_s, None).to_numpy()
    led = led.set_index(_KEY)
    upd = upd.set_index(_KEY)
    led = led.reindex(led.index.union(upd.index, sort=False))
    led.loc[upd.index, [flag] + out_cols] = upd[[flag] + out_cols]
    # keys new to the ledger: the other side is absent, not NaN
    for f in ("a_live", "b_live"):
        led[f] = led[f].fillna(False).astype(bool)
    return led.reset_index()


def _advance_jv_partition(pid: int, *, lake_a: str, lake_b: str,
                          view_dir: str, src_a: list[str],
                          src_b: list[str], out_a: list[str],
                          out_b: list[str], ea0: int, ea1: int,
                          eb0: int, eb1: int,
                          ledger_file: str | None) -> pd.DataFrame:
    fresh = ledger_file is None
    cha = _side_changes(lake_a, pid, ea0, ea1, src_a, fresh)
    chb = _side_changes(lake_b, pid, eb0, eb1, src_b, fresh)
    led = pd.read_parquet(os.path.join(view_dir, ledger_file)) \
        if ledger_file else _empty_ledger(out_a, out_b)
    led = _apply_side(led, cha, "a_live", src_a, out_a)
    led = _apply_side(led, chb, "b_live", src_b, out_b)
    led = led[led["a_live"] | led["b_live"]]
    led = led.sort_values(_KEY, kind="stable").reset_index(drop=True)
    out_dir = os.path.join(view_dir, f"part={pid:05d}")
    os.makedirs(out_dir, exist_ok=True)
    led[_KEY + ["a_live", "b_live"] + out_a + out_b].to_parquet(
        os.path.join(out_dir, f"join-a{ea1:06d}-b{eb1:06d}.parquet"),
        index=False)
    return pd.DataFrame({"pid": [pid], "n_keys": [len(led)],
                         "n_inner": [int((led["a_live"]
                                          & led["b_live"]).sum())]})


def _advance_jv_group(items: list, **kw) -> pd.DataFrame:
    """advance()'s task: _advance_jv_partition for each (pid, ledger
    file)."""
    return pd.concat([_advance_jv_partition(p, ledger_file=f, **kw)
                      for p, f in items], ignore_index=True)


def _rebuild_jv_group(items: list, **kw) -> pd.DataFrame:
    """rebuild()'s task: _rebuild_jv_partition for each (pid, lake-A
    files, lake-B files)."""
    return pd.concat([_rebuild_jv_partition(p, files_a=fa, files_b=fb, **kw)
                      for p, fa, fb in items], ignore_index=True)


def _rebuild_jv_partition(pid: int, *, files_a: list[str],
                          files_b: list[str], view_dir: str,
                          src_a: list[str], src_b: list[str],
                          out_a: list[str], out_b: list[str],
                          ea1: int, eb1: int) -> pd.DataFrame:
    from thor_ray.sources.lake import read_partition_state

    def side(files: list[str], src: list[str], out: list[str],
             flag: str) -> pd.DataFrame:
        st = read_partition_state(files)
        d = pd.DataFrame({"repo": st["repo"] if len(st) else
                          pd.Series(dtype="object"),
                          "path": st["path"] if len(st) else
                          pd.Series(dtype="object")})
        for oc, sc in zip(out, src):
            d[oc] = st[sc].astype(object).to_numpy() if len(st) else \
                pd.Series(dtype="object")
        d[flag] = True
        return d

    a = side(files_a, src_a, out_a, "a_live")
    b = side(files_b, src_b, out_b, "b_live")
    led = a.merge(b, on=_KEY, how="outer")
    for f in ("a_live", "b_live"):
        led[f] = led[f].fillna(False).astype(bool)
    for c in out_a + out_b:
        led[c] = led[c].astype(object).where(pd.notna(led[c]), None)
    led = led.sort_values(_KEY, kind="stable").reset_index(drop=True)
    out_dir = os.path.join(view_dir, f"part={pid:05d}")
    os.makedirs(out_dir, exist_ok=True)
    led[_KEY + ["a_live", "b_live"] + out_a + out_b].to_parquet(
        os.path.join(out_dir, f"join-a{ea1:06d}-b{eb1:06d}.parquet"),
        index=False)
    return pd.DataFrame({"pid": [pid], "n_keys": [len(led)],
                         "n_inner": [int((led["a_live"]
                                          & led["b_live"]).sum())]})


class JoinView:
    """Exactly-once PK join view over two co-partitioned lakes.

    >>> jv = JoinView(lake_a, lake_b, view_dir,
    ...               select_a=["commit", "lang"], select_b=["lang"])
    >>> jv.advance()            # fold both feeds since the last call
    >>> jv.to_pandas("inner")   # repo|path|commit|lang_a|lang_b
    >>> pipe_a.follow(on_apply=[jv.advance])   # stays current

    ``select_*``: payload columns to carry from each side (narrow by
    default is on the caller — ``content`` makes the ledger heavy).
    Colliding names get ``suffixes`` (both sides, pandas-style).
    """

    def __init__(self, lake_a: str, lake_b: str, view_dir: str,
                 select_a: list[str], select_b: list[str],
                 suffixes: tuple[str, str] = ("_a", "_b")):
        self.lake_a, self.lake_b, self.view_dir = lake_a, lake_b, view_dir
        self.src_a, self.src_b = list(select_a), list(select_b)
        bad = (set(self.src_a) | set(self.src_b)) & _RESERVED
        if bad:
            raise ValueError(f"reserved column(s) in selection: {sorted(bad)}"
                             " — keys are always carried, flags are owned "
                             "by the view")
        both = set(self.src_a) & set(self.src_b)
        self.out_a = [c + suffixes[0] if c in both else c for c in self.src_a]
        self.out_b = [c + suffixes[1] if c in both else c for c in self.src_b]
        ma, mb = _engine_meta(lake_a), _engine_meta(lake_b)
        for k in ("num_partitions", "hash_impl", "route_on"):
            if ma.get(k) != mb.get(k):
                raise ValueError(
                    f"lakes are not partition-aligned: {k} differs "
                    f"({ma.get(k)!r} vs {mb.get(k)!r}) — keys would not "
                    "co-route, the per-partition stitch would be wrong")
        self.num_partitions = int(ma["num_partitions"])
        os.makedirs(view_dir, exist_ok=True)

    # -- manifest ------------------------------------------------------
    def _config(self) -> dict:
        return {"lake_a": self.lake_a, "lake_b": self.lake_b,
                "src_a": self.src_a, "src_b": self.src_b,
                "out_a": self.out_a, "out_b": self.out_b}

    def _load(self) -> dict:
        p = os.path.join(self.view_dir, _MANIFEST)
        if not os.path.exists(p):
            return {"epoch_a": 0, "epoch_b": 0, "parts": {},
                    **self._config()}
        with open(p) as f:
            m = json.load(f)
        mine = self._config()
        stored = {k: m.get(k) for k in mine}
        if stored != mine:
            raise ValueError(f"view at {self.view_dir} was built with "
                             f"{stored}, not {mine}")
        return m

    def epochs(self) -> tuple[int, int]:
        m = self._load()
        return int(m["epoch_a"]), int(m["epoch_b"])

    @staticmethod
    def _lake_epoch(lake_dir: str) -> int:
        from thor_ray.state import load_manifests
        ms = load_manifests(lake_dir)
        if not ms:
            raise ValueError(f"no lake manifests under {lake_dir}")
        return min(m.epoch for m in ms.values())

    # -- maintenance ---------------------------------------------------
    def advance(self, upto_a: int | None = None,
                upto_b: int | None = None) -> dict:
        """Fold lake-A epochs (view_a, upto_a] and lake-B epochs
        (view_b, upto_b] into the stitch ledgers. One no-shuffle task
        bundle over partitions; idempotent per range."""
        man = self._load()
        from thor_ray.state import restore_count
        for side, lake in (("a", self.lake_a), ("b", self.lake_b)):
            rc = restore_count(lake)
            if man.get(f"lake_restores_{side}", 0) != rc:
                raise ValueError(
                    f"lake {lake} was point-in-time restored (restore "
                    f"#{rc}) after this join view last advanced — stale "
                    "ledger; rebuild()")
        ea0, eb0 = int(man["epoch_a"]), int(man["epoch_b"])
        ea1 = self._lake_epoch(self.lake_a) if upto_a is None else int(upto_a)
        eb1 = self._lake_epoch(self.lake_b) if upto_b is None else int(upto_b)
        if ea1 < ea0 or eb1 < eb0:
            raise ValueError(f"cannot advance backwards "
                             f"(({ea0},{eb0}) → ({ea1},{eb1}))")
        if (ea1, eb1) == (ea0, eb0):
            return {"epoch_a": ea0, "epoch_b": eb0, "advanced": False}
        ledgers = {int(k): v for k, v in man["parts"].items()}
        pids = list(range(self.num_partitions))
        stats = fan_out(
            _advance_jv_group,
            split([(p, ledgers.get(p)) for p in pids], 32),
            lake_a=self.lake_a, lake_b=self.lake_b, view_dir=self.view_dir,
            src_a=self.src_a, src_b=self.src_b, out_a=self.out_a,
            out_b=self.out_b, ea0=ea0, ea1=ea1, eb0=eb0, eb1=eb1)
        self._commit(ea1, eb1, pids)
        return {"epoch_a": ea1, "epoch_b": eb1, "advanced": True,
                "n_keys": int(stats["n_keys"].sum()),
                "n_inner": int(stats["n_inner"].sum())}

    def rebuild(self) -> dict:
        """Re-anchor from the live lakes (bootstrap onto existing lakes,
        or recover after a compaction folded a feed): one partition-
        aligned pass per side, merged key-local. Same commit shape."""
        from thor_ray.state import load_manifests
        msa = load_manifests(self.lake_a)
        msb = load_manifests(self.lake_b)
        if not msa or not msb:
            raise ValueError("both lakes need committed manifests")
        ea1 = min(m.epoch for m in msa.values())
        eb1 = min(m.epoch for m in msb.values())
        pids = list(range(self.num_partitions))
        stats = fan_out(
            _rebuild_jv_group,
            split([(p, msa[p].files if p in msa else [],
                    msb[p].files if p in msb else []) for p in pids], 32),
            view_dir=self.view_dir, src_a=self.src_a, src_b=self.src_b,
            out_a=self.out_a, out_b=self.out_b, ea1=ea1, eb1=eb1)
        self._commit(ea1, eb1, pids)
        return {"epoch_a": ea1, "epoch_b": eb1, "advanced": True,
                "n_keys": int(stats["n_keys"].sum()),
                "n_inner": int(stats["n_inner"].sum())}

    def _commit(self, ea1: int, eb1: int, pids: list[int]) -> None:
        from thor_ray.state import restore_count
        man = {"epoch_a": ea1, "epoch_b": eb1,
               "lake_restores_a": restore_count(self.lake_a),
               "lake_restores_b": restore_count(self.lake_b),
               "parts": {str(p): os.path.join(
                   f"part={p:05d}", f"join-a{ea1:06d}-b{eb1:06d}.parquet")
                   for p in pids},
               **self._config()}
        _atomic_json(os.path.join(self.view_dir, _MANIFEST), man)
        live = {os.path.join(self.view_dir, r)
                for r in man["parts"].values()}
        for f in glob.glob(os.path.join(self.view_dir, "part=*",
                                        "join-a*-b*.parquet")):
            if f not in live:
                os.remove(f)

    # -- reads -----------------------------------------------------------
    def dataset(self, how: str = "inner") -> "ray.data.Dataset":
        """The joined table as a streaming Dataset — flag projection of
        the committed ledger files (inner/left/right/full)."""
        if how not in ("inner", "left", "right", "full"):
            raise ValueError(f"how must be inner/left/right/full, not {how!r}")
        man = self._load()
        files = [os.path.join(self.view_dir, r)
                 for r in man["parts"].values()]
        if not files:
            raise ValueError("view not built — call advance() or rebuild()")
        ds = ray.data.read_parquet(files)

        def project(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            if how == "inner":
                t = t.filter(pc.and_(t["a_live"], t["b_live"]))
            elif how == "left":
                t = t.filter(t["a_live"])
            elif how == "right":
                t = t.filter(t["b_live"])
            # "part" is hive-inferred from the part=NNNNN dir names
            return t.drop_columns([c for c in ("a_live", "b_live", "part")
                                   if c in t.column_names])

        return ds.map_batches(project, batch_format="pyarrow")

    def to_pandas(self, how: str = "inner") -> pd.DataFrame:
        return self.dataset(how).to_pandas() \
            .sort_values(_KEY, kind="stable").reset_index(drop=True)
