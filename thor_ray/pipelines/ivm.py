"""Incremental materialized-view maintenance over the lake changefeed.

``IncrementalView`` is a downstream CDC consumer (the Debezium-outbox
shape — SURVEY.md §2 A-family): it tails a delta-mode lake's per-epoch
change rows and keeps a grouped aggregate

    group_col → (n_rows, m_sum)        e.g. lang → (live files, bytes)

current WITHOUT ever rescanning the lake. Classic IVM needs the OLD
contribution of every updated/deleted key to subtract — the change row
alone only carries the new image — so the view owns a per-partition
*key-contribution* ledger (key → group, metric), partition-aligned with
the lake:

    view_dir/keys/part=NNNNN/keys-e{EPOCH}.parquet   (repo, path, grp, m)
    view_dir/view-e{EPOCH}.parquet                    (group, n_rows, m_sum)
    view_dir/_view_manifest.json                      commit point

Scale shape: one task per lake partition, zero shuffle (delta runs and
ledger files are co-partitioned by the lake's key hash); each task reads
only the epoch-range delta files (O(changes)) plus its own ledger
(2 narrow columns — key + group + int64, no content), emits an
OUTPUT-sized (group, Δn, Δm) frame; the driver folds kilobytes. Group
migration on update (a key's lang changes) debits the old group and
credits the new one in the same fold.

Exactly-once: ledger/view files are written under deterministic
epoch-stamped names, the JSON manifest is swapped last (tmp + rename) —
re-running a crashed ``advance()`` overwrites identical files and the
view is unchanged (idempotence is pinned in tests/test_ivm.py).

Needs ``write_mode='delta'`` with uncompacted level-0 runs over the
advanced range (same contract as sources.lake.read_changefeed); after a
compaction or DDL folded the runs away, ``rebuild()`` re-derives ledger
and view from the live lake in one partition-aligned pass and re-anchors
the incremental tail there.
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from thor_ray.state.tasks import fan_out, split

_MANIFEST = "_view_manifest.json"
_KEY_COLS = ["repo", "path"]


def _check_restores(lake_dir: str, man: dict, what: str) -> None:
    """A point-in-time restore rewrites lake epochs — a view folded
    before it holds stale aggregates; fail loudly (restore fencing)."""
    from thor_ray.state import restore_count

    rc = restore_count(lake_dir)
    if man.get("lake_restores", 0) != rc:
        raise ValueError(
            f"lake {lake_dir} was point-in-time restored (restore #{rc}) "
            f"after this {what} last advanced — stale state; rebuild()")


def _atomic_json(path: str, payload: dict) -> None:
    from thor_ray.state.storage import storage_for

    storage_for(path).put_bytes(path, json.dumps(payload).encode())


def _metric_values(df: pd.DataFrame, metric: str) -> np.ndarray:
    if metric == "content_bytes":
        return np.array([len(c.encode("utf-8")) if isinstance(c, str)
                         else 0 for c in df["content"]], dtype=np.int64)
    if metric == "rows":
        return np.ones(len(df), dtype=np.int64)
    raise ValueError(f"unknown metric {metric!r}")


def _empty_ledger() -> pd.DataFrame:
    return pd.DataFrame({"repo": pd.Series(dtype="object"),
                         "path": pd.Series(dtype="object"),
                         "grp": pd.Series(dtype="object"),
                         "m": pd.Series(dtype="int64")})


def _group_totals(ledger: pd.DataFrame) -> pd.DataFrame:
    if ledger.empty:
        return pd.DataFrame({"grp": pd.Series(dtype="object"),
                             "dn": pd.Series(dtype="int64"),
                             "dm": pd.Series(dtype="int64")})
    g = ledger.groupby("grp", as_index=False).agg(
        dn=("m", "size"), dm=("m", "sum"))
    g["dn"] = g["dn"].astype("int64")
    g["dm"] = g["dm"].astype("int64")
    return g


def _advance_partition(pid: int, *, lake_dir: str, view_dir: str,
                       group_col: str, metric: str, e0: int, e1: int,
                       ledger_file: str | None) -> pd.DataFrame:
    """Fold one partition's delta runs (e0, e1] into its ledger; write the
    new ledger file (deterministic name → idempotent) and return the
    output-sized group-delta frame."""
    part_dir = os.path.join(lake_dir, f"part={pid:05d}")
    tables = []
    # a fresh ledger must seed from the epoch-0 bootstrap image (full base
    # table, op 'U' / lsn 0, untagged) — it is not part of the changefeed
    first = e0 if (ledger_file is None and e0 == 0) else e0 + 1
    for e in range(first, e1 + 1):
        p = os.path.join(part_dir, f"state-e{e:06d}.parquet")
        if not os.path.exists(p):
            continue                    # no changes for this pid/epoch
        meta = pq.read_schema(p).metadata or {}
        if e > 0 and meta.get(b"thor_kind") != b"delta":
            raise ValueError(
                f"epoch {e}: {p} is a compaction product — the change "
                "history was folded; call rebuild() to re-anchor the view")
        tables.append(pq.read_table(
            p, columns=_KEY_COLS + [group_col, "content", "_op", "_lsn"]))

    old = pd.read_parquet(os.path.join(view_dir, ledger_file)) \
        if ledger_file else _empty_ledger()

    if tables:
        ch = pa.concat_tables(tables).to_pandas()
        # last-lsn-wins per key across the whole range: intermediate
        # changes collapse — only final-vs-ledger contribution matters
        ch = ch.sort_values("_lsn", kind="stable") \
            .drop_duplicates(_KEY_COLS, keep="last")
        live = ch[ch["_op"] != "D"].copy()
        live["grp"] = live[group_col]
        live["m"] = _metric_values(live, metric)
        touched = ch[_KEY_COLS]
        keep = old.merge(touched, on=_KEY_COLS, how="left", indicator=True)
        keep = keep[keep["_merge"] == "left_only"][old.columns]
        new = pd.concat(
            [keep, live[_KEY_COLS + ["grp", "m"]]], ignore_index=True)
    else:
        new = old

    out_dir = os.path.join(view_dir, "keys", f"part={pid:05d}")
    os.makedirs(out_dir, exist_ok=True)
    new = new.sort_values(_KEY_COLS, kind="stable").reset_index(drop=True)
    new.to_parquet(os.path.join(out_dir, f"keys-e{e1:06d}.parquet"),
                   index=False)

    o, n = _group_totals(old), _group_totals(new)
    d = o.merge(n, on="grp", how="outer", suffixes=("_o", "_n")).fillna(0)
    d["dn"] = (d["dn_n"] - d["dn_o"]).astype("int64")
    d["dm"] = (d["dm_n"] - d["dm_o"]).astype("int64")
    d["pid"] = pid
    return d[["pid", "grp", "dn", "dm"]]


class IncrementalView:
    """Exactly-once grouped-aggregate view maintained from the changefeed.

    >>> iv = IncrementalView(lake_dir, view_dir, group_col="lang")
    >>> iv.advance()          # fold every committed epoch since last call
    >>> iv.view()             # lang | n_rows | m_sum  (current, tiny)
    """

    def __init__(self, lake_dir: str, view_dir: str,
                 group_col: str = "lang", metric: str = "content_bytes"):
        self.lake_dir = lake_dir
        self.view_dir = view_dir
        self.group_col = group_col
        self.metric = metric
        os.makedirs(view_dir, exist_ok=True)

    # -- manifest ----------------------------------------------------------
    def _load(self) -> dict:
        p = os.path.join(self.view_dir, _MANIFEST)
        if not os.path.exists(p):
            return {"epoch": 0, "keys": {}, "view": None,
                    "group_col": self.group_col, "metric": self.metric}
        with open(p) as f:
            m = json.load(f)
        if m["group_col"] != self.group_col or m["metric"] != self.metric:
            raise ValueError(
                f"view at {self.view_dir} maintains "
                f"({m['group_col']}, {m['metric']}), not "
                f"({self.group_col}, {self.metric})")
        return m

    def epoch(self) -> int:
        return int(self._load()["epoch"])

    def view(self) -> pd.DataFrame:
        m = self._load()
        if m["view"] is None:
            return pd.DataFrame({self.group_col: pd.Series(dtype="object"),
                                 "n_rows": pd.Series(dtype="int64"),
                                 "m_sum": pd.Series(dtype="int64")})
        return pd.read_parquet(os.path.join(self.view_dir, m["view"]))

    # -- maintenance -------------------------------------------------------
    def _lake_epoch(self) -> int:
        from thor_ray.state import load_manifests
        ms = load_manifests(self.lake_dir)
        if not ms:
            raise ValueError(f"no lake manifests under {self.lake_dir}")
        return min(m.epoch for m in ms.values())

    def advance(self, upto_epoch: int | None = None) -> pd.DataFrame:
        """Fold lake epochs (view_epoch, upto] into ledger + view. One
        no-shuffle task bundle over partitions; driver folds only the
        output-sized group deltas. Idempotent per (range)."""
        man = self._load()
        _check_restores(self.lake_dir, man, "view")
        e0 = int(man["epoch"])
        e1 = self._lake_epoch() if upto_epoch is None else int(upto_epoch)
        if e1 < e0:
            raise ValueError(f"cannot advance backwards ({e0} → {e1})")
        if e1 == e0:
            return self.view()
        parts = sorted(glob.glob(os.path.join(self.lake_dir, "part=*")))
        pids = [int(p.rsplit("=", 1)[1]) for p in parts]
        kw = dict(lake_dir=self.lake_dir, view_dir=self.view_dir,
                  group_col=self.group_col, metric=self.metric,
                  e0=e0, e1=e1)
        ledgers = {int(k): v for k, v in man["keys"].items()}
        deltas = fan_out(_advance_group,
                         split([(p, ledgers.get(p)) for p in pids], 32), **kw)

        if deltas.empty:
            deltas = pd.DataFrame({"grp": pd.Series(dtype="object"),
                                   "dn": pd.Series(dtype="int64"),
                                   "dm": pd.Series(dtype="int64")})
        d = deltas.groupby("grp", as_index=False)[["dn", "dm"]].sum()
        prev = self.view().rename(columns={self.group_col: "grp"})
        v = prev.merge(d, on="grp", how="outer").fillna(0)
        v["n_rows"] = (v["n_rows"] + v["dn"]).astype("int64")
        v["m_sum"] = (v["m_sum"] + v["dm"]).astype("int64")
        v = v[v["n_rows"] > 0][["grp", "n_rows", "m_sum"]] \
            .rename(columns={"grp": self.group_col}) \
            .sort_values(self.group_col, kind="stable") \
            .reset_index(drop=True)

        view_rel = f"view-e{e1:06d}.parquet"
        v.to_parquet(os.path.join(self.view_dir, view_rel), index=False)
        from thor_ray.state import restore_count
        new_man = {
            "epoch": e1, "view": view_rel,
            "keys": {str(p): os.path.join(
                "keys", f"part={p:05d}", f"keys-e{e1:06d}.parquet")
                for p in pids},
            "group_col": self.group_col, "metric": self.metric,
            "lake_restores": restore_count(self.lake_dir),
        }
        _atomic_json(os.path.join(self.view_dir, _MANIFEST), new_man)
        self._gc(new_man)
        return v

    def rebuild(self) -> pd.DataFrame:
        """Re-anchor from the live lake (bootstrap onto an existing lake,
        or recover after compaction folded the delta history): one
        partition-aligned pass rebuilds each ledger from merged partition
        state; the view is the ledger fold. Same commit shape as
        advance()."""
        from thor_ray.state import load_manifests
        ms = load_manifests(self.lake_dir)
        if not ms:
            raise ValueError(f"no lake manifests under {self.lake_dir}")
        e1 = min(m.epoch for m in ms.values())
        totals = fan_out(_rebuild_group,
                         split([(p, ms[p].files) for p in sorted(ms)], 32),
                         view_dir=self.view_dir, group_col=self.group_col,
                         metric=self.metric, e1=e1)
        v = totals.groupby("grp", as_index=False)[["dn", "dm"]].sum() \
            .rename(columns={"grp": self.group_col, "dn": "n_rows",
                             "dm": "m_sum"}) \
            .sort_values(self.group_col, kind="stable") \
            .reset_index(drop=True)
        v["n_rows"] = v["n_rows"].astype("int64")
        v["m_sum"] = v["m_sum"].astype("int64")
        view_rel = f"view-e{e1:06d}.parquet"
        v.to_parquet(os.path.join(self.view_dir, view_rel), index=False)
        from thor_ray.state import restore_count
        new_man = {
            "epoch": e1, "view": view_rel,
            "keys": {str(p): os.path.join(
                "keys", f"part={p:05d}", f"keys-e{e1:06d}.parquet")
                for p in sorted(ms)},
            "group_col": self.group_col, "metric": self.metric,
            "lake_restores": restore_count(self.lake_dir),
        }
        _atomic_json(os.path.join(self.view_dir, _MANIFEST), new_man)
        self._gc(new_man)
        return v

    def _gc(self, man: dict) -> None:
        """Drop ledger/view files no longer referenced by the manifest."""
        live = {os.path.join(self.view_dir, r)
                for r in list(man["keys"].values()) + [man["view"]]}
        pats = [os.path.join(self.view_dir, "keys", "part=*", "keys-e*.parquet"),
                os.path.join(self.view_dir, "view-e*.parquet")]
        for pat in pats:
            for f in glob.glob(pat):
                if f not in live:
                    os.remove(f)


def _advance_group(items: list, **kw) -> pd.DataFrame:
    """advance()'s task: _advance_partition for each (pid, ledger file)."""
    return pd.concat([_advance_partition(p, ledger_file=f, **kw)
                      for p, f in items], ignore_index=True)


def _rebuild_group(items: list, **kw) -> pd.DataFrame:
    """rebuild()'s task: _rebuild_partition for each (pid, files)."""
    return pd.concat([_rebuild_partition(p, files=f, **kw)
                      for p, f in items], ignore_index=True)


def _rebuild_partition(pid: int, *, files: list[str], view_dir: str,
                       group_col: str, metric: str, e1: int) -> pd.DataFrame:
    from thor_ray.sources.lake import read_partition_state
    st = read_partition_state(files)
    led = _empty_ledger()
    if len(st):
        led = pd.DataFrame({
            "repo": st["repo"].to_numpy(),
            "path": st["path"].to_numpy(),
            "grp": st[group_col].to_numpy(),
            "m": _metric_values(st, metric)})
    out_dir = os.path.join(view_dir, "keys", f"part={pid:05d}")
    os.makedirs(out_dir, exist_ok=True)
    led = led.sort_values(_KEY_COLS, kind="stable").reset_index(drop=True)
    led.to_parquet(os.path.join(out_dir, f"keys-e{e1:06d}.parquet"),
                   index=False)
    g = _group_totals(led)
    g["pid"] = pid
    return g[["pid", "grp", "dn", "dm"]]


class RetractionView:
    """LEDGER-FREE grouped-aggregate view maintained from the BEFORE-IMAGE
    changefeed (``sources.read_changefeed_full``) — the classic
    retraction-stream IVM shape: every change row contributes
    ``+after`` and, when the key existed, ``-before``; deltas telescope
    per epoch because the feed's before/after images are exact epoch-
    boundary states.

    Trade against :class:`IncrementalView` (the ledger design): NO
    per-key sidecar files (zero extra storage, zero ledger write
    amplification per advance) — in exchange each advance pays the feed's
    per-partition base fold, COLUMN-PRUNED to key + group + metric (the
    wide ``content`` column stays on disk unless it is the metric). Use
    the ledger when advances are frequent and payloads narrow; use
    retraction when storage/write amplification dominates or many views
    share one feed scan.

    Exactly-once: same commit discipline as IncrementalView —
    deterministic ``view-e{epoch}.parquet`` + atomic JSON manifest swap;
    a crashed advance re-derives the identical file from the same
    committed feed range."""

    def __init__(self, lake_dir: str, view_dir: str,
                 group_col: str = "lang", metric: str = "rows"):
        self.lake_dir = lake_dir
        self.view_dir = view_dir
        self.group_col = group_col
        self.metric = metric
        os.makedirs(view_dir, exist_ok=True)
        self._manifest = os.path.join(view_dir, "_retraction_view.json")

    def _load(self) -> dict:
        if not os.path.exists(self._manifest):
            return {"epoch": 0, "view": None,
                    "group_col": self.group_col, "metric": self.metric}
        with open(self._manifest) as f:
            m = json.load(f)
        if m["group_col"] != self.group_col or m["metric"] != self.metric:
            raise ValueError(
                f"view at {self.view_dir} maintains "
                f"({m['group_col']}, {m['metric']}), not "
                f"({self.group_col}, {self.metric})")
        return m

    def epoch(self) -> int:
        return int(self._load()["epoch"])

    def view(self) -> pd.DataFrame:
        m = self._load()
        if m["view"] is None:
            return pd.DataFrame({self.group_col: pd.Series(dtype="object"),
                                 "n_rows": pd.Series(dtype="int64"),
                                 "m_sum": pd.Series(dtype="int64")})
        return pd.read_parquet(os.path.join(self.view_dir, m["view"]))

    def _lake_epoch(self) -> int:
        from thor_ray.state import load_manifests
        ms = load_manifests(self.lake_dir)
        if not ms:
            raise ValueError(f"no lake manifests under {self.lake_dir}")
        return min(m.epoch for m in ms.values())

    def _cols(self) -> list[str]:
        cols = [self.group_col]
        if self.metric == "content_bytes" and "content" not in cols:
            cols.append("content")
        return cols

    def _seed(self) -> pd.DataFrame:
        """Group totals of the epoch-0 bootstrap image (full base table;
        it is not part of the changefeed, same rule as IncrementalView)."""
        from thor_ray.sources.lake import read_lake_at

        try:
            base = read_lake_at(self.lake_dir, 0, columns=None)
        except ValueError:
            # no snapshot archive: fall back to the epoch-0 run files
            import glob as _glob
            files = sorted(_glob.glob(os.path.join(
                self.lake_dir, "part=*", "state-e000000.parquet")))
            if not files:
                raise
            # partitioning left at the hive default: ray's parquet reader
            # errors on partitioning=None combined with columns=...; the
            # inferred part= column simply isn't requested
            base = ray.data.read_parquet(
                files, columns=self._cols() + ["_op"])

        def partial(t: pa.Table) -> pa.Table:
            df = t.to_pandas()
            if "_op" in df.columns:
                df = df[df["_op"] != "D"]
            g = pd.DataFrame({"grp": df[self.group_col],
                              "m": _metric_values(df, self.metric)})
            out = g.groupby("grp", as_index=False).agg(
                dn=("m", "size"), dm=("m", "sum"))
            return pa.Table.from_pandas(out, preserve_index=False)

        parts = base.map_batches(partial, batch_format="pyarrow").to_pandas()
        if parts.empty:
            return pd.DataFrame({"grp": pd.Series(dtype="object"),
                                 "dn": pd.Series(dtype="int64"),
                                 "dm": pd.Series(dtype="int64")})
        out = parts.groupby("grp", as_index=False)[["dn", "dm"]].sum()
        out["dn"] = out["dn"].astype("int64")
        out["dm"] = out["dm"].astype("int64")
        return out

    def advance(self, upto_epoch: int | None = None) -> pd.DataFrame:
        """Fold lake epochs (view_epoch, upto] into the view via
        retraction deltas. Column-pruned distributed feed scan; the
        driver folds only output-sized (group, dn, dm) partials."""
        from thor_ray.sources import read_changefeed_full

        man = self._load()
        _check_restores(self.lake_dir, man, "view")
        e0 = int(man["epoch"])
        e1 = self._lake_epoch() if upto_epoch is None else int(upto_epoch)
        if e1 < e0:
            raise ValueError(f"cannot advance backwards ({e0} → {e1})")
        if e1 == e0 and man["view"] is not None:
            return self.view()

        gcol, metric = self.group_col, self.metric
        totals = [self._seed()] if man["view"] is None else \
            [self.view().rename(columns={gcol: "grp"})
             .rename(columns={"n_rows": "dn", "m_sum": "dm"})]

        if e1 > e0:
            feed = read_changefeed_full(self.lake_dir, e0, e1,
                                        columns=self._cols())

            def deltas(df: pd.DataFrame) -> pd.DataFrame:
                after = df[df["op"] != "D"]
                a = pd.DataFrame({"grp": after[gcol],
                                  "m": _metric_values(after, metric)})
                a["s"] = np.int64(1)
                sel = [f"before_{c}" for c in
                       [gcol] + (["content"]
                                 if metric == "content_bytes" else [])]
                # select-then-rename: the after-image columns keep their
                # names, so renaming in place would collide
                bef = df.loc[df["before_lsn"].notna(), sel] \
                    .rename(columns=lambda c: c[len("before_"):])
                b = pd.DataFrame({"grp": bef[gcol],
                                  "m": -_metric_values(bef, metric)})
                b["s"] = np.int64(-1)
                g = pd.concat([a, b], ignore_index=True)
                out = g.groupby("grp", as_index=False).agg(
                    dn=("s", "sum"), dm=("m", "sum"))
                out["dn"] = out["dn"].astype("int64")
                out["dm"] = out["dm"].astype("int64")
                return out

            part = feed.map_batches(deltas, batch_format="pandas").to_pandas()
            if not part.empty:
                totals.append(part)

        v = pd.concat(totals, ignore_index=True) \
            .groupby("grp", as_index=False)[["dn", "dm"]].sum()
        v["dn"] = v["dn"].astype("int64")
        v["dm"] = v["dm"].astype("int64")
        v = v[v["dn"] > 0].rename(
            columns={"grp": gcol, "dn": "n_rows", "dm": "m_sum"}) \
            .sort_values(gcol, kind="stable").reset_index(drop=True)

        view_rel = f"view-e{e1:06d}.parquet"
        v.to_parquet(os.path.join(self.view_dir, view_rel), index=False)
        from thor_ray.state import restore_count
        _atomic_json(self._manifest, {
            "epoch": e1, "view": view_rel,
            "group_col": gcol, "metric": metric,
            "lake_restores": restore_count(self.lake_dir)})
        for f in glob.glob(os.path.join(self.view_dir, "view-e*.parquet")):
            if os.path.basename(f) != view_rel:
                os.remove(f)
        return v
