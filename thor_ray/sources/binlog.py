"""Binlog tail source — the FileStreamSource analogue (SURVEY.md §2.1 S2).

An "epoch" is a bounded lsn slice of the sharded change-event log
(micro-batch tail). Two shard formats, same lsn-frontier contract:

- ``shard-*.parquet`` (preferred): predicate-pushed reads — shard files are
  mostly-lsn-sorted (bounded shuffle window), so Parquet row-group
  statistics prune most of the file for a given lsn range, and frontiers
  come from metadata alone (no data read).
- ``shard-*.jsonl`` / ``shard-*.jsonl.gz`` / ``shard-*.csv``: the
  Kafka-Connect-style text wire tiers (JsonConverter / StringConverter
  analogues; the ``.gz`` tier is the compressed JSON wire real log
  shippers emit). None has column statistics, so frontier scans parse
  the (projected) lsn column and epoch reads filter post-parse. Fine for
  ingest compatibility; a production tail should compact text tiers to
  parquet. A dir uses ONE format.

DDL events are tiny and read driver-side (they are broadcast to every
partition's applier, SURVEY.md §7 "cross-partition DDL consistency").
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.json as pajson
import pyarrow.parquet as pq

import ray.data

# JSONL wire schema: ts as int64 epoch-µs (JSON has no timestamp type)
_JSONL_FIELDS = [
    ("lsn", pa.int64()), ("txn", pa.int64()), ("op", pa.string()),
    ("repo", pa.string()), ("path", pa.string()), ("commit", pa.string()),
    ("lang", pa.string()), ("content", pa.string()), ("extra", pa.string()),
    ("ddl", pa.string()), ("ts", pa.int64()),
    ("schema_ver", pa.int32()), ("shard", pa.int32()),
]


def _jsonl_parse_options(columns: list[str] | None = None) -> pajson.ParseOptions:
    fields = [(n, t) for n, t in _JSONL_FIELDS
              if columns is None or n in columns]
    return pajson.ParseOptions(explicit_schema=pa.schema(fields),
                               unexpected_field_behavior="ignore")


def shard_files(binlog_dir: str) -> list[str]:
    for ext in ("parquet", "jsonl", "jsonl.gz", "csv"):
        fs = sorted(glob.glob(os.path.join(binlog_dir, f"shard-*.{ext}")))
        if fs:
            return fs
    return []


# --- cyclic replay view -----------------------------------------------------
# A K-pass virtual log over a base binlog: pass p re-delivers every data
# event with lsn' = lsn + p*span (span = the base log's max lsn), so the
# tail sees K× the events with ZERO extra bytes on storage. DDL events
# replay in pass 0 only (schema evolves once; the data keeps flowing).
# Purpose: load/scaling measurement (bench.py --scaling holds its ≥60 s
# calibration floor with a fixture the sandbox disk can hold) and soak
# testing — the K-pass final lake state equals the 1-pass state because
# each pass re-applies the identical last-writer-wins updates (asserted in
# tests/test_tailing.py). The view is a directory holding one marker file;
# every tail-path reader (max_lsn / safe_frontier / read_epoch /
# read_ddl_events / txn_boundary) resolves it transparently.

_CYCLIC = "_cyclic.json"


def write_cyclic_view(view_dir: str, base_dir: str, passes: int) -> dict:
    """Create (or refresh) a K-pass cyclic view of ``base_dir``."""
    if passes < 1:
        raise ValueError(f"passes must be >= 1, got {passes}")
    span = max_lsn(base_dir)
    if span <= 0:
        raise ValueError(f"base binlog {base_dir} is empty")
    meta = {"base_dir": os.path.abspath(base_dir), "passes": int(passes),
            "span": int(span)}
    os.makedirs(view_dir, exist_ok=True)
    from thor_ray.state.storage import storage_for

    p = os.path.join(view_dir, _CYCLIC)
    storage_for(p).put_bytes(p, json.dumps(meta).encode())
    return meta


def _cyclic_meta(binlog_dir: str) -> dict | None:
    p = os.path.join(binlog_dir, _CYCLIC)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)


def binlog_format(binlog_dir: str) -> str:
    files = shard_files(binlog_dir)
    if not files:
        return "parquet"
    if files[0].endswith(".jsonl.gz"):
        return "jsonl.gz"
    return files[0].rsplit(".", 1)[-1]


def _open_text(p: str):
    """Decompressing reader for text shards (gzip inferred by suffix)."""
    return pa.input_stream(p, compression="detect")


def _read_jsonl_file(p: str, columns: list[str] | None = None,
                     tolerant: bool = False,
                     dlq_dir: str | None = None) -> pa.Table:
    """One JSONL shard file → Table. Fast path is the arrow block parser;
    with ``tolerant`` a parse failure falls back to a per-line pass that
    keeps every well-formed line and (optionally) records the bad ones —
    the Kafka-Connect ``errors.tolerance=all`` analogue. The fallback
    runs ONLY on files the fast path rejects, so clean logs never pay
    for it."""
    opts = _jsonl_parse_options(columns)
    try:
        return pajson.read_json(_open_text(p), parse_options=opts)
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
        if not tolerant:
            raise
    good, bad = [], []
    fields = [(n, t) for n, t in _JSONL_FIELDS
              if columns is None or n in columns]
    with _open_text(p) as f:
        raw = f.read().decode("utf-8", errors="replace")
    for line in raw.splitlines():
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict) or "lsn" not in rec:
                raise ValueError("not an event object")
            int(rec["lsn"])
            good.append(rec)
        except (ValueError, TypeError):
            bad.append(line)
    if bad and dlq_dir:
        os.makedirs(dlq_dir, exist_ok=True)
        # deterministic per-source name: a retried read overwrites
        from thor_ray.state.storage import storage_for

        out = os.path.join(dlq_dir, os.path.basename(p) + ".bad")
        storage_for(out).put_bytes(out, ("\n".join(bad) + "\n").encode())
    arrays = {}
    for n, t in fields:
        vals = [r.get(n) for r in good]
        if pa.types.is_integer(t):
            vals = [int(v) if v is not None else None for v in vals]
        arrays[n] = pa.array(vals, type=t)
    return pa.table(arrays)


def _csv_convert_options(columns: list[str] | None = None):
    import pyarrow.csv as pacsv

    types = {n: t for n, t in _JSONL_FIELDS
             if columns is None or n in columns}
    return pacsv.ConvertOptions(column_types=types,
                                include_columns=list(types),
                                strings_can_be_null=True)


def _file_max_lsn(p: str) -> int:
    """Max lsn of one shard file: parquet via row-group stats (no data
    read); text tiers by parsing only the lsn column."""
    if p.endswith((".jsonl", ".jsonl.gz")):
        # tolerant: a corrupt line carries no valid lsn, so skipping it
        # keeps the frontier sound (the data read decides fail-vs-dlq)
        t = _read_jsonl_file(p, ["lsn"], tolerant=True)
        m = pc.max(t["lsn"]).as_py() if t.num_rows else None
        return int(m) if m is not None else 0
    if p.endswith(".csv"):
        import pyarrow.csv as pacsv
        t = pacsv.read_csv(p, convert_options=_csv_convert_options(["lsn"]))
        m = pc.max(t["lsn"]).as_py() if t.num_rows else None
        return int(m) if m is not None else 0
    md = pq.read_metadata(p)
    idx = md.schema.names.index("lsn")
    hi = 0
    for rg in range(md.num_row_groups):
        st = md.row_group(rg).column(idx).statistics
        if st is not None and st.has_min_max:
            hi = max(hi, st.max)
    return hi


def max_lsn(binlog_dir: str) -> int:
    """Max lsn across shards (parquet: stats only; jsonl: lsn-column scan)."""
    cyc = _cyclic_meta(binlog_dir)
    if cyc is not None:
        return cyc["span"] * cyc["passes"]
    return max((_file_max_lsn(p) for p in shard_files(binlog_dir)), default=0)


def shard_frontiers(binlog_dir: str) -> dict[str, int]:
    """Max lsn per shard (files grouped by the shard-XXXX name prefix)."""
    out: dict[str, int] = {}
    for p in shard_files(binlog_dir):
        shard = os.path.basename(p)[:10]  # "shard-XXXX"
        out[shard] = max(out.get(shard, 0), _file_max_lsn(p))
    return out


def expected_shards(binlog_dir: str) -> list[str] | None:
    """The declared shard set, from the writer's `_shards.json` marker.

    Without it, a shard whose first segment hasn't been delivered yet is
    invisible to shard_frontiers — the frontier min would skip it and
    commit watermarks past its future lower-lsn events (ADVICE round 1)."""
    p = os.path.join(binlog_dir, "_shards.json")
    if os.path.exists(p):
        with open(p) as f:
            return json.load(f)["shards"]
    return None


def safe_frontier(binlog_dir: str, slack: int = 0,
                  expected: list[str] | None = None) -> int:
    """Highest lsn safe to commit past while the log may still grow: the
    slowest shard's max lsn minus a skew allowance. Committing beyond it
    would advance watermarks past events a lagging shard hasn't delivered
    (SURVEY.md §2.9 W2/W3). While any declared shard (the `_shards.json`
    marker, or `expected`) has no data yet, the frontier is 0."""
    cyc = _cyclic_meta(binlog_dir)
    if cyc is not None:
        # The cyclic view is only sound over a FROZEN base: pass k>0
        # replays base lsns shifted by k*span, so if the base grew after
        # view creation, (passes-1)*span + base_frontier would assert
        # delivery of lower-pass events the view will never re-map, and a
        # consumer advancing upto_lsn past them would skip them forever
        # (ADVICE round 3). Enforce the frozen-base contract here rather
        # than silently returning a frontier computed from a shifted grid.
        cur_span = max_lsn(cyc["base_dir"])
        if cur_span != cyc["span"]:
            raise ValueError(
                f"cyclic view over {cyc['base_dir']} requires a frozen "
                f"base log: span recorded at view creation was "
                f"{cyc['span']} but the base now ends at {cur_span}; "
                "recreate the view (write_cyclic_view) over the final log")
        base = safe_frontier(cyc["base_dir"], slack=slack,
                             expected=expected)
        return (cyc["passes"] - 1) * cyc["span"] + base if base else 0
    fr = shard_frontiers(binlog_dir)
    exp = expected if expected is not None else expected_shards(binlog_dir)
    if exp is not None and any(s not in fr for s in exp):
        return 0
    return max(min(fr.values(), default=0) - slack, 0)


def seek_lsn_for_ts(binlog_dir: str, ts) -> int | None:
    """Kafka ``offsetsForTimes`` analogue: the smallest lsn whose
    event-time is >= ``ts`` — an event-time seek for consumers (start the
    next epoch read at ``lo = result - 1``). Returns None when every
    event is older than ``ts`` (seek past the log end).

    ``ts`` accepts a pandas/py datetime or integer microseconds. Parquet
    shards prune whole row groups via (ts) footer statistics (the
    ``filters=`` read) and decode only the surviving groups' (lsn, ts)
    columns; text tiers scan those two columns. With bounded out-of-order
    delivery the result has exactly Kafka's per-partition semantics: an
    event with a LATE timestamp and a smaller offset sorts before the
    seek point and is not re-delivered. Cyclic replay views are refused —
    every pass repeats the same event times, so a time seek is ambiguous
    there (bench-only construct)."""
    if _cyclic_meta(binlog_dir) is not None:
        raise ValueError(
            "seek_lsn_for_ts: cyclic replay views repeat event times "
            "every pass — seek on the base log instead")
    ts_pd = pd.Timestamp(ts, unit="us") if isinstance(ts, (int, np.integer)) \
        else pd.Timestamp(ts)
    ts_us = ts_pd.value // 1000
    best: int | None = None
    for p in shard_files(binlog_dir):
        if p.endswith((".jsonl", ".jsonl.gz", ".csv")):
            if p.endswith(".csv"):
                import pyarrow.csv as pacsv

                t = pacsv.read_csv(p, convert_options=_csv_convert_options(
                    ["lsn", "ts"]))
            else:
                t = _read_jsonl_file(p, ["lsn", "ts"], tolerant=True)
            if not t.num_rows:
                continue
            mask = pc.greater_equal(t["ts"], pa.scalar(ts_us, pa.int64()))
        else:
            md = pq.read_metadata(p)
            names = md.schema.names
            ts_type = pq.read_schema(p).field("ts").type
            target = ts_us if pa.types.is_integer(ts_type) else ts_pd
            idx = names.index("ts")
            keep = []
            for rg in range(md.num_row_groups):
                st = md.row_group(rg).column(idx).statistics
                if st is None or not st.has_min_max:
                    keep.append(rg)
                    continue
                mx = st.max
                mx_cmp = mx if pa.types.is_integer(ts_type) \
                    else pd.Timestamp(mx)
                if mx_cmp >= target:
                    keep.append(rg)
            if not keep:
                continue
            t = pq.ParquetFile(p).read_row_groups(
                keep, columns=["lsn", "ts"])
            mask = pc.greater_equal(
                t["ts"], pa.scalar(target.to_datetime64()
                                   if not pa.types.is_integer(ts_type)
                                   else target))
        hit = t.filter(mask)
        if hit.num_rows:
            m = int(pc.min(hit["lsn"]).as_py())
            best = m if best is None else min(best, m)
    return best


def read_epoch(binlog_dir: str, lo: int, hi: int,
               override_num_blocks: int | None = None,
               columns: list[str] | None = None,
               tolerant: bool = False) -> "ray.data.Dataset":
    """Data events (op != DDL) with lsn in (lo, hi] as a streaming Dataset.

    `columns` prunes at the read (the apply path doesn't need txn/ts/ddl —
    don't decode or shuffle them). ``tolerant`` (JSONL tiers only) keeps
    well-formed lines of a corrupt shard and records the bad lines under
    `<binlog>/_parse_dlq/` — Kafka Connect's errors.tolerance=all."""
    cyc = _cyclic_meta(binlog_dir)
    if cyc is not None:
        return _read_epoch_cyclic(cyc, lo, hi, override_num_blocks,
                                  columns, tolerant)
    files = shard_files(binlog_dir)
    if not files:
        from thor_ray.gen import EVENT_SCHEMA
        sel = columns or EVENT_SCHEMA.names
        return ray.data.from_arrow(EVENT_SCHEMA.empty_table().select(sel))
    kw = {}
    if override_num_blocks:
        kw["override_num_blocks"] = override_num_blocks
    if files[0].endswith((".jsonl", ".jsonl.gz", ".csv")):
        # no stats in text tiers: schema-projected parse, then a vectorized
        # post-parse filter (same lsn contract, no pushdown)
        if tolerant and files[0].endswith((".jsonl", ".jsonl.gz")):
            # per-file tasks with the line-tolerant parser (fast arrow
            # parse first; the line pass only on rejected files)
            dlq = os.path.join(binlog_dir, "_parse_dlq")
            cols = columns

            def parse_files(t: pa.Table) -> pa.Table:
                tabs = [_read_jsonl_file(p, cols, tolerant=True,
                                         dlq_dir=dlq)
                        for p in t["path"].to_pylist()]
                fields = [(n, ty) for n, ty in _JSONL_FIELDS
                          if cols is None or n in cols]
                empty = pa.table({n: pa.array([], type=ty)
                                  for n, ty in fields})
                return pa.concat_tables(tabs) if tabs else empty

            ds = (ray.data.from_arrow(
                pa.table({"path": pa.array(files)}))
                .repartition(len(files))
                .map_batches(parse_files, batch_format="pyarrow"))
        elif files[0].endswith(".jsonl.gz"):
            ds = ray.data.read_json(
                files, file_extensions=["jsonl.gz"],
                arrow_open_stream_args={"compression": "gzip"},
                parse_options=_jsonl_parse_options(columns), **kw)
        elif files[0].endswith(".jsonl"):
            ds = ray.data.read_json(
                files, file_extensions=["jsonl"],
                parse_options=_jsonl_parse_options(columns), **kw)
        else:
            ds = ray.data.read_csv(
                files, file_extensions=["csv"],
                convert_options=_csv_convert_options(columns), **kw)
        lo_, hi_ = lo, hi
        from thor_ray.gen import EVENT_SCHEMA

        def flt_fn(t: pa.Table) -> pa.Table:
            m = pc.and_(pc.and_(pc.greater(t["lsn"], lo_),
                                pc.less_equal(t["lsn"], hi_)),
                        pc.not_equal(pc.fill_null(t["op"], ""), "DDL"))
            t = t.filter(m)
            # align to EVENT_SCHEMA types (content/extra are large_string
            # there; a later union with schema-typed blocks — the marker
            # table in the sort exchange — fails on the mismatch)
            for c in t.column_names:
                want = EVENT_SCHEMA.field(c).type if c in EVENT_SCHEMA.names else None
                if want is not None and c != "ts" and t.schema.field(c).type != want:
                    t = t.set_column(t.schema.get_field_index(c), c,
                                     pc.cast(t[c], want))
            return t

        return ds.map_batches(flt_fn, batch_format="pyarrow")
    flt = (pc.field("lsn") > lo) & (pc.field("lsn") <= hi) & (pc.field("op") != "DDL")
    if columns:
        kw["columns"] = columns
    return ray.data.read_parquet(files, filter=flt, **kw)


def _lsn_txn_window(binlog_dir: str, lo: int, hi: int) -> pa.Table:
    """Driver-side (lsn, txn) pairs for lsn in (lo, hi] — metadata-scale:
    two int columns, parquet row-group pruned; text tiers parse the two
    projected columns."""
    files = shard_files(binlog_dir)
    if not files:
        return pa.table({"lsn": pa.array([], pa.int64()),
                         "txn": pa.array([], pa.int64())})
    if files[0].endswith((".jsonl", ".jsonl.gz", ".csv")):
        parts = []
        for p in files:
            if p.endswith((".jsonl", ".jsonl.gz")):
                t = _read_jsonl_file(p, ["lsn", "txn"], tolerant=True)
            else:
                import pyarrow.csv as pacsv
                t = pacsv.read_csv(
                    p, convert_options=_csv_convert_options(["lsn", "txn"]))
            parts.append(t.filter(pc.and_(pc.greater(t["lsn"], lo),
                                          pc.less_equal(t["lsn"], hi))))
        return pa.concat_tables(parts)
    return pads.dataset(files).to_table(
        columns=["lsn", "txn"],
        filter=(pc.field("lsn") > lo) & (pc.field("lsn") <= hi))


def _read_epoch_cyclic(meta: dict, lo: int, hi: int,
                       override_num_blocks: int | None,
                       columns: list[str] | None,
                       tolerant: bool) -> "ray.data.Dataset":
    """Union of per-pass base reads covering the global (lo, hi] range,
    each pass's lsns shifted by p*span (vectorized column add). Row-group
    pushdown still applies per pass — the base range is always within
    (0, span]."""
    L, K, base = meta["span"], meta["passes"], meta["base_dir"]
    hi = min(hi, K * L)
    parts = []
    for p in range(max(lo // L, 0), K):
        s_lo, s_hi = max(lo, p * L), min(hi, (p + 1) * L)
        if s_lo >= hi:
            break
        if s_hi <= s_lo:
            continue
        off = p * L
        sub = read_epoch(base, s_lo - off, s_hi - off,
                         override_num_blocks=override_num_blocks,
                         columns=columns, tolerant=tolerant)
        if off and (columns is None or "lsn" in columns):
            def shift(t: pa.Table, off=off) -> pa.Table:
                i = t.schema.get_field_index("lsn")
                return t.set_column(
                    i, "lsn", pc.add(t["lsn"], pa.scalar(off, pa.int64())))

            sub = sub.map_batches(shift, batch_format="pyarrow")
        parts.append(sub)
    if not parts:
        return read_epoch(base, 0, 0, columns=columns)
    out = parts[0]
    for s in parts[1:]:
        out = out.union(s)
    return out


def txn_boundary(binlog_dir: str, lo: int, hi: int,
                 probe: int = 4096) -> int:
    """Largest h' in [lo, hi] such that committing upto_lsn=h' splits no
    transaction — the Debezium/Connect "transaction boundary" contract
    (SURVEY.md §2.9 W2): an epoch must apply a txn's events atomically or
    not at all, or a crash between epochs exposes a half-applied txn to
    lake readers.

    Decision rule: let T = txn of the last event at or below `hi`. If the
    first event AFTER `hi` (found by a widening lsn probe — no tail scan)
    belongs to a different txn, or the log ends at `hi`, then `hi` is
    already a boundary. Otherwise clamp to the last lsn of txn T−…, i.e.
    the max lsn in the window whose txn differs from T; a window fully
    inside one giant txn returns `lo` (defer everything — a later, wider
    epoch resolves it, and the drain-final epoch always ends at the log
    end where the boundary is trivially `hi`)."""
    if hi <= lo:
        return hi
    cyc = _cyclic_meta(binlog_dir)
    if cyc is not None:
        # a txn never straddles a pass boundary (each pass replays whole
        # base txns), so resolve within the pass containing `hi`
        L = cyc["span"]
        p = (hi - 1) // L
        off = p * L
        b = txn_boundary(cyc["base_dir"], max(lo - off, 0), hi - off,
                         probe=probe) + off
        return max(b, lo)
    win = _lsn_txn_window(binlog_dir, lo, hi)
    if win.num_rows == 0:
        return hi
    order = pc.sort_indices(win["lsn"])
    last = order[-1].as_py()
    t_last = win["txn"][last].as_py()
    # probe for the first event beyond hi (widening; lsns are mostly
    # dense, so the first window nearly always hits)
    end = max_lsn(binlog_dir)
    nxt = None
    span, cur = probe, hi
    while cur < end:
        peek = _lsn_txn_window(binlog_dir, cur, min(cur + span, end))
        if peek.num_rows:
            i = pc.sort_indices(peek["lsn"])[0].as_py()
            nxt = peek["txn"][i].as_py()
            break
        cur += span
        span *= 8
    if nxt is None or nxt != t_last:
        return hi
    # txn T straddles hi: clamp to the window's last lsn of an earlier txn
    m = pc.not_equal(win["txn"], t_last)
    prev = win.filter(m)
    if prev.num_rows == 0:
        return lo
    return int(pc.max(prev["lsn"]).as_py())


def read_ddl_events(binlog_dir: str, lo: int, hi: int) -> list[dict]:
    """Driver-side read of DDL events in (lo, hi], lsn-ordered, deduped.

    Returns [{"lsn", "schema_ver", "ddl": {...}}, ...]; tiny by contract
    (DDL is rare — SURVEY.md §2.3 A3)."""
    cyc = _cyclic_meta(binlog_dir)
    if cyc is not None:
        # DDLs replay in pass 0 only: the schema evolves once, later
        # passes re-deliver data events against the evolved registry
        L = cyc["span"]
        s_lo, s_hi = min(lo, L), min(hi, L)
        if s_hi <= s_lo:
            return []
        return read_ddl_events(cyc["base_dir"], s_lo, s_hi)
    files = shard_files(binlog_dir)
    if not files:
        return []
    if files[0].endswith((".jsonl", ".jsonl.gz", ".csv")):
        parts = []
        for p in files:
            if p.endswith((".jsonl", ".jsonl.gz")):
                tt = _read_jsonl_file(p, ["lsn", "op", "schema_ver",
                                          "ddl"], tolerant=True)
            else:
                import pyarrow.csv as pacsv
                tt = pacsv.read_csv(p, convert_options=_csv_convert_options(
                    ["lsn", "op", "schema_ver", "ddl"]))
            parts.append(tt.filter(
                pc.and_(pc.and_(pc.greater(tt["lsn"], lo),
                                pc.less_equal(tt["lsn"], hi)),
                        pc.equal(pc.fill_null(tt["op"], ""), "DDL"))))
        t = pa.concat_tables(parts).select(["lsn", "schema_ver", "ddl"])
    else:
        ds = pads.dataset(files)
        t = ds.to_table(
            columns=["lsn", "schema_ver", "ddl"],
            filter=(pc.field("lsn") > lo) & (pc.field("lsn") <= hi)
            & (pc.field("op") == "DDL"),
        )
    rows = sorted(
        {r["lsn"]: r for r in t.to_pylist()}.values(), key=lambda r: r["lsn"]
    )
    return [
        {"lsn": r["lsn"], "schema_ver": r["schema_ver"], "ddl": json.loads(r["ddl"])}
        for r in rows
    ]


# --- out-of-band appends ----------------------------------------------------
# Retention deletes, updates, bulk loads, DLQ replay and branch merges never
# edit the lake: they append ordinary events to the log at fresh lsns, and
# the next run() applies them through the normal exactly-once path.
# append_events is the one writer all of them go through.

def _write_binlog_segment(t: pa.Table, path: str, fmt: str) -> None:
    """Atomically write one binlog segment in the log's wire format
    (append_events' segments and the producer's flush)."""
    from thor_ray.state.storage import storage_for

    def stage(tmp: str) -> None:
        if fmt == "parquet":
            pq.write_table(t, tmp, row_group_size=16 * 1024)
        elif fmt in ("jsonl", "jsonl.gz"):
            df = t.to_pandas()
            df["ts"] = df["ts"].astype("int64")
            df.to_json(tmp, orient="records", lines=True,
                       compression="gzip" if fmt == "jsonl.gz" else None)
        else:  # csv
            import pyarrow.csv as pacsv
            t2 = t.set_column(t.schema.get_field_index("ts"), "ts",
                              t["ts"].cast(pa.int64()))
            pacsv.write_csv(t2, tmp)

    storage_for(path).put_atomic(path, stage)


def binlog_layout(binlog_dir: str) -> tuple[int, str, int]:
    """(max lsn, wire format, shard count) of the binlog — the shape
    facts every appended segment must match."""
    exp = expected_shards(binlog_dir)
    n_shards = len(exp) if exp else max(
        1, len({os.path.basename(p)[:10] for p in shard_files(binlog_dir)}))
    return max_lsn(binlog_dir), binlog_format(binlog_dir), n_shards


def row_image_events(t: pa.Table, evolved: list[str],
                     op: str | None = None) -> pa.Table:
    """Lake row images → event rows for append_events: the evolved
    columns present are JSON-encoded into `extra` (full images), and on
    op='D' rows the payload is nulled and `extra` is "{}" (a tombstone
    carries only its key). `op` sets every row's verb; without it `t`
    must carry an op column."""
    n = t.num_rows
    if op is not None:
        t = t.append_column("op", pa.array([op] * n, type=pa.string()))
    ev = [c for c in evolved if c in t.column_names]
    if ev:
        from thor_ray.stages.envelope import _json_encode_struct
        extra = _json_encode_struct(t, ev)
    else:
        extra = pa.array(["{}"] * n, type=pa.string())
    is_del = pc.fill_null(pc.equal(t["op"], "D"), False)
    cols = {"op": t["op"], "repo": t["repo"], "path": t["path"]}
    for c in ("commit", "lang", "content"):
        if c in t.column_names:
            cols[c] = pc.if_else(is_del, pa.scalar(None, t[c].type), t[c])
    cols["extra"] = pc.if_else(is_del, pa.scalar("{}"), extra)
    return pa.table(cols)


def append_events(binlog_dir: str, events: "ray.data.Dataset", kind: str,
                  ident: str | None = None, order_by: str | None = None,
                  schema_ver: int = 0) -> int:
    """Append `events` to the binlog above its current end; returns the
    event count.

    Rows carry `repo`, `path`, `op` and any of commit / lang / content /
    extra / schema_ver: a missing payload column is null, a missing
    `extra` is "{}", a missing `schema_ver` is `schema_ver` (the lake's
    registry version). Each row goes to shard stable_hash(repo, path) %
    n_shards; one groupby on the shard writes one atomic segment per
    shard. Unique lsns without global coordination: shard s's k-th event
    gets base + 1 + s + k*n_shards (interleaved, all above the observed
    log end), in `order_by` order when given (replay_dlq keeps the
    original lsn order of same-key events that way).

    Segment names are deterministic, so a retried task overwrites its own
    segment: ``shard-SSSS-{kind}{base:010d}`` without an ident, and
    ``shard-SSSS-{kind}{ident}-{base:010d}`` with one. An identity-keyed
    append issued again before the next run() finds its segments by name
    and reuses their base lsn — it overwrites them at the same lsns
    instead of appending a second copy above the end its first issue
    raised. Batch semantics: append while the log is quiescent, then
    run(); in follow mode a lagging shard with no appended events keeps
    safe_frontier below the new lsns until its next data segment."""
    from thor_ray.gen import _EPOCH_TS_US, EVENT_SCHEMA
    from thor_ray.stages.smt import stable_hash

    base_lsn, fmt, n_shards = binlog_layout(binlog_dir)
    if ident is not None:
        prior = glob.glob(os.path.join(
            binlog_dir, f"shard-*-{kind}{ident}-*.{fmt}"))
        if prior:
            base_lsn = int(os.path.basename(prior[0]).rsplit("-", 1)[1]
                           .split(".")[0])
    stem = f"{kind}{base_lsn:010d}" if ident is None \
        else f"{kind}{ident}-{base_lsn:010d}"

    def tag(t: pa.Table) -> pa.Table:
        if "shard" in t.column_names:   # a re-injected event's old shard
            t = t.drop_columns(["shard"])
        s = stable_hash(t, ["repo", "path"]) % n_shards
        return t.append_column("shard", pa.array(s, type=pa.int32()))

    def write(g: pa.Table) -> pa.Table:
        if order_by is not None:
            g = g.sort_by(order_by)
        s, k = g["shard"][0].as_py(), g.num_rows
        lsn = base_lsn + 1 + s + np.arange(k, dtype=np.int64) * n_shards
        own = {
            "lsn": pa.array(lsn),
            "txn": pa.array(np.zeros(k, dtype=np.int64)),
            "ddl": pa.nulls(k, type=pa.string()),
            "ts": pa.array(_EPOCH_TS_US + lsn * 1000).cast(
                pa.timestamp("us")),
            "shard": pa.array(np.full(k, s, dtype=np.int32)),
        }
        default = {
            "extra": pa.array(["{}"] * k, type=pa.large_string()),
            "schema_ver": pa.array(np.full(k, schema_ver, dtype=np.int32)),
        }
        seg = pa.table(
            [own[f.name] if f.name in own
             else g[f.name].cast(f.type) if f.name in g.column_names
             else default.get(f.name, pa.nulls(k, type=f.type))
             for f in EVENT_SCHEMA], schema=EVENT_SCHEMA)
        _write_binlog_segment(
            seg, os.path.join(binlog_dir, f"shard-{s:04d}-{stem}.{fmt}"), fmt)
        return pa.table({"n": pa.array([k], type=pa.int64())})

    out = (events.map_batches(tag, batch_format="pyarrow")
           .groupby("shard")
           .map_groups(write, batch_format="pyarrow")
           .to_pandas())
    return int(out["n"].sum()) if len(out) else 0


def archive_binlog(binlog_dir: str, below_lsn: int) -> int:
    """Retire fully-consumed shard segments: move every shard file whose
    max lsn <= `below_lsn` into ``binlog_dir/_archive/``, EXCEPT each
    shard's newest segment — kept so shard_frontiers / safe_frontier
    still see every declared shard (the Kafka active-segment rule; an
    archived-empty shard would pin safe_frontier to 0 and stall follow).

    `below_lsn` must be an lsn every consumer has committed past (the
    lake's min partition watermark): files at or below it can never be
    read again by read_epoch (which reads lsn > watermark), delete_where's
    pending scan, or replay_dlq. Returns the number of files archived."""
    files = shard_files(binlog_dir)
    by_shard: dict[str, list[str]] = {}
    for p in files:
        by_shard.setdefault(os.path.basename(p)[:10], []).append(p)
    arch = os.path.join(binlog_dir, "_archive")
    n = 0
    for ps in by_shard.values():
        lsns = {p: _file_max_lsn(p) for p in ps}
        newest = max(ps, key=lambda p: (lsns[p], p))
        for p in ps:
            if p != newest and lsns[p] <= below_lsn:
                os.makedirs(arch, exist_ok=True)
                os.replace(p, os.path.join(arch, os.path.basename(p)))
                n += 1
    return n


def envelope_to_binlog(src_dir: str, dst_dir: str,
                       row_group_size: int = 16_384) -> int:
    """Ingest a Debezium-envelope wire log (``shard-NNNN.envelope.jsonl``,
    the shape ``gen.Binlog.write_envelope`` emits and real
    Connect/Debezium JSON sinks produce): unwrap each shard's envelopes
    back into the flat event schema and write the standard parquet binlog
    tier under ``dst_dir`` — shard identity preserved (same name stems →
    same frontier/watermark contract), rows lsn-sorted for row-group
    pruning. Deletes recover their key from the record key and their
    position from ``source``; op='ddl' lines become op='DDL' events with
    the statement from the top-level ``ddl`` field. Lossless: ``ts``
    rides as epoch-µs in ``source.ts_us`` (the envelope's own ``ts_ms``
    is millisecond-truncated). Metadata-scale driver loop, same as
    compact_text_shards. Returns the number of shards converted."""
    from thor_ray.gen import EVENT_SCHEMA

    files = sorted(glob.glob(os.path.join(src_dir,
                                          "shard-*.envelope.jsonl")))
    os.makedirs(dst_dir, exist_ok=True)
    n = 0
    for p in files:
        outer = pajson.read_json(_open_text(p))
        vals = outer["value"].combine_chunks()
        env = pajson.read_json(
            pa.BufferReader(("\n".join(vals.to_pylist())).encode()))
        src = env["source"]
        keys = None
        kcol = outer["key"].combine_chunks().drop_null()
        if len(kcol):
            keys = pajson.read_json(
                pa.BufferReader(("\n".join(
                    outer["key"].fill_null('{"repo":null,"path":null}')
                    .to_pylist())).encode()))

        def field_of(parent, name, typ):
            if parent is not None and pa.types.is_struct(
                    parent.type if hasattr(parent, "type")
                    else parent.chunk(0).type):
                try:
                    return pc.cast(pc.struct_field(parent, name), typ)
                except KeyError:
                    pass
            return pa.nulls(env.num_rows, typ)

        after = env["after"] if "after" in env.column_names else None
        o = env["op"]
        op = pc.if_else(
            pc.equal(o, "c"), pa.scalar("I"),
            pc.if_else(pc.equal(o, "u"), pa.scalar("U"),
                       pc.if_else(pc.equal(o, "d"), pa.scalar("D"),
                                  pa.scalar("DDL"))))
        cols = {
            "lsn": field_of(src, "lsn", pa.int64()),
            "txn": field_of(src, "txn", pa.int64()),
            "op": op,
            "repo": field_of(after, "repo", pa.string()),
            "path": field_of(after, "path", pa.string()),
            "commit": field_of(after, "commit", pa.string()),
            "lang": field_of(after, "lang", pa.string()),
            "content": field_of(after, "content", pa.large_string()),
            "extra": field_of(after, "extra", pa.large_string()),
            "ddl": (pc.cast(env["ddl"], pa.string())
                    if "ddl" in env.column_names
                    else pa.nulls(env.num_rows, pa.string())),
            "ts": pc.cast(field_of(src, "ts_us", pa.int64()),
                          pa.timestamp("us")),
            "schema_ver": field_of(src, "schema_ver", pa.int32()),
            "shard": field_of(src, "shard", pa.int32()),
        }
        if keys is not None:
            # deletes carry a null after-image; identity lives in the key
            cols["repo"] = pc.coalesce(
                cols["repo"], pc.cast(keys["repo"], pa.string()))
            cols["path"] = pc.coalesce(
                cols["path"], pc.cast(keys["path"], pa.string()))
        out = pa.table(cols, schema=EVENT_SCHEMA).sort_by("lsn")
        from thor_ray.state.storage import storage_for

        stem = os.path.basename(p)[:-len(".envelope.jsonl")]
        final = os.path.join(dst_dir, stem + ".parquet")
        storage_for(final).put_atomic(
            final, lambda tmp, out=out: pq.write_table(
                out, tmp, row_group_size=row_group_size))
        n += 1
    marker = os.path.join(src_dir, "_shards.json")
    if os.path.exists(marker) and src_dir != dst_dir:
        with open(marker) as f:
            data = f.read()
        from thor_ray.state.storage import storage_for

        dst = os.path.join(dst_dir, "_shards.json")
        storage_for(dst).put_bytes(dst, data.encode())
    return n


def compact_text_shards(binlog_dir: str, row_group_size: int = 16_384
                        ) -> int:
    """Convert text wire shards (jsonl / jsonl.gz / csv) to the parquet
    tier in place — the production move this module's header prescribes
    (text tiers have no column statistics; parquet gets lsn row-group
    pruning and metadata-only frontiers).

    Each segment keeps its shard name stem (frontier/watermark identity
    unchanged) and its rows are lsn-sorted so row-group stats come out
    tight; originals move to ``_archive/`` only AFTER the parquet final
    is atomically in place, so a crash mid-compaction leaves a readable
    log (a dir with BOTH tiers reads as parquet — shard_files prefers
    it — and the leftover text files are duplicates of the same lsns,
    which re-compaction or manual archive cleans up; the apply's
    lsn-dedup is immune either way). Metadata-scale driver loop (one
    task per file would be the distributed variant). Returns the number
    of segments converted."""
    from thor_ray.gen import EVENT_SCHEMA

    files = shard_files(binlog_dir)
    if not files or files[0].endswith(".parquet"):
        return 0
    arch = os.path.join(binlog_dir, "_archive")
    n = 0
    converted = []
    for p in files:
        if p.endswith(".jsonl.gz"):
            t = _read_jsonl_file(p)
            stem = os.path.basename(p)[:-len(".jsonl.gz")]
        elif p.endswith(".jsonl"):
            t = _read_jsonl_file(p)
            stem = os.path.basename(p)[:-len(".jsonl")]
        else:
            import pyarrow.csv as pacsv
            t = pacsv.read_csv(p, convert_options=_csv_convert_options())
            stem = os.path.basename(p)[:-len(".csv")]
        cols = {}
        for f in EVENT_SCHEMA:
            if f.name in t.column_names:
                col = t[f.name]
                if f.name == "ts":
                    col = pc.cast(col, pa.timestamp("us"))
                elif col.type != f.type:
                    col = pc.cast(col, f.type)
                cols[f.name] = col
            else:
                cols[f.name] = pa.nulls(t.num_rows, f.type)
        out = pa.table(cols).sort_by("lsn")
        from thor_ray.state.storage import storage_for

        final = os.path.join(binlog_dir, stem + ".parquet")
        storage_for(final).put_atomic(
            final, lambda tmp, out=out: pq.write_table(
                out, tmp, row_group_size=row_group_size))
        converted.append(p)
        n += 1
    os.makedirs(arch, exist_ok=True)
    for p in converted:
        os.replace(p, os.path.join(arch, os.path.basename(p)))
    return n


def transaction_feed(binlog_dir: str, lo: int = 0,
                     hi: int | None = None) -> "ray.data.Dataset":
    """Debezium transaction-metadata-topic analogue: one record per
    transaction with lsn span and per-op event counts, derived from the
    log range (lo, hi] in one distributed pass (pre-aggregated per batch
    inside map_batches, then one small groupby over txn ids — the
    partial/combiner shape, so the shuffle carries txn-count-sized rows,
    never events). Columns: txn, n_events, n_i, n_u, n_d, lsn_min,
    lsn_max. DDL events carry their own txn ids and appear as
    single-event transactions (the schema-change feed is the richer
    view of those)."""
    if hi is None:
        hi = max_lsn(binlog_dir)
    ds = read_epoch(binlog_dir, lo, hi, columns=["lsn", "txn", "op"])

    def partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        g = pa.TableGroupBy(t.append_column(
            "is_i", pc.cast(pc.equal(t["op"], "I"), pa.int64()))
            .append_column("is_u", pc.cast(pc.equal(t["op"], "U"),
                                           pa.int64()))
            .append_column("is_d", pc.cast(pc.equal(t["op"], "D"),
                                           pa.int64())), "txn")
        out = g.aggregate([("lsn", "count"), ("is_i", "sum"),
                           ("is_u", "sum"), ("is_d", "sum"),
                           ("lsn", "min"), ("lsn", "max")])
        # rename by NAME — aggregate/key column order differs across
        # pyarrow versions (ADVICE round 1)
        ren = {"lsn_count": "n_events", "is_i_sum": "n_i",
               "is_u_sum": "n_u", "is_d_sum": "n_d",
               "lsn_min": "lsn_min", "lsn_max": "lsn_max"}
        out = out.rename_columns([ren.get(c, c) for c in out.column_names])
        return out.select(["txn", "n_events", "n_i", "n_u", "n_d",
                           "lsn_min", "lsn_max"])

    def combine(g):
        import pandas as pd
        return pd.DataFrame([{
            "txn": g["txn"].iloc[0],
            "n_events": int(g["n_events"].sum()),
            "n_i": int(g["n_i"].sum()), "n_u": int(g["n_u"].sum()),
            "n_d": int(g["n_d"].sum()),
            "lsn_min": int(g["lsn_min"].min()),
            "lsn_max": int(g["lsn_max"].max()),
        }])

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("txn")
            .map_groups(combine, batch_format="pandas"))


class RetentionGapError(RuntimeError):
    """A consumer's committed offset fell below the log's retention floor
    (segments it never consumed were archived) — Kafka's OffsetOutOfRange.
    Resume options: re-seed the consumer, or seek past the gap and accept
    the loss (the consumer's ``on_retention='seek'``)."""


def retention_floor(binlog_dir: str) -> int:
    """Kafka's log-start-offset: the highest lsn RETIRED into
    ``_archive/`` (a consumer whose committed offset is below it has
    lost events to `archive_binlog` — the OffsetOutOfRange condition).
    Judged from the archive, not from the live files' minimum: a
    declared shard whose first segment simply hasn't been DELIVERED yet
    must not read as a retention gap. 0 when nothing was archived."""
    adir = os.path.join(binlog_dir, "_archive")
    if not os.path.isdir(adir):
        return 0
    floors = [_file_max_lsn(os.path.join(adir, f))
              for f in os.listdir(adir)
              if f.startswith("shard-")]
    return max(floors, default=0)


def compact_binlog_keys(binlog_dir: str, upto_lsn: int | None = None
                        ) -> dict:
    """Kafka log compaction (compacted-topic semantics): rewrite each
    shard's fully-consumed segments keeping only the LAST event per key —
    a fresh consumer then bootstraps in O(live keys), not O(history),
    and replaying the compacted log folds to the SAME final state
    (last-writer-wins by lsn; the kept event per key includes the global
    winner because keys are shard-sticky, and any extra per-shard "last"
    is overwritten by a higher lsn on replay).

    Retention rules (Kafka's): delete tombstones are RETAINED (the key's
    last event may be its 'D'); DDL events are all kept (schema-evolution
    replay needs the full timeline); malformed events (null key / unknown
    op) are all kept so the DLQ path replays identically. Only valid for
    FULL-image logs — partial-image (patch-mode) updates carry deltas
    that earlier events complete, exactly like Kafka compaction requires
    full values.

    Whole-segment granularity: only segments with max lsn ≤ ``upto_lsn``
    (default: the log end) are rewritten, one lsn-sorted compacted
    segment per shard (atomic tmp+rename, originals archived only AFTER
    the final lands — a crash leaves duplicate lsns, which the apply's
    lsn dedup absorbs; per-shard max lsn is preserved, so frontiers and
    watermarks are unchanged). Parquet tier only (run
    ``compact_text_shards`` first). Returns {"shards", "events_in",
    "events_out"}."""
    files = shard_files(binlog_dir)
    if not files:
        return {"shards": 0, "events_in": 0, "events_out": 0}
    if not files[0].endswith(".parquet"):
        raise ValueError("key compaction needs the parquet tier — run "
                         "compact_text_shards first")
    marker = os.path.join(binlog_dir, "_shards.json")
    if os.path.exists(marker):
        with open(marker) as f:
            if json.load(f).get("update_mode", "full") == "patch":
                raise ValueError(
                    "key compaction would corrupt a partial-image "
                    "(patch-mode) log: dropped earlier events carry "
                    "field values the kept patches do not (Kafka "
                    "compaction requires full values)")
    if upto_lsn is None:
        upto_lsn = max_lsn(binlog_dir)
    # originals go under _archive/kc/, NOT _archive/ itself: compaction
    # keeps every offset readable (at least the key's latest), so it must
    # not raise the retention_floor the way archive_binlog's prefix
    # deletion does (Kafka: compaction does not advance log-start-offset)
    arch = os.path.join(binlog_dir, "_archive", "kc")
    by_shard: dict[str, list[str]] = {}
    for p in files:
        if _file_max_lsn(p) <= upto_lsn:
            by_shard.setdefault(os.path.basename(p)[:10], []).append(p)

    n_in = n_out = n_shards = 0
    for shard, ps in sorted(by_shard.items()):
        t = pa.concat_tables([pq.read_table(p) for p in ps]) \
            .sort_by("lsn")
        n_in += t.num_rows
        op = t["op"]
        is_data = pc.and_(
            pc.is_in(op, value_set=pa.array(["I", "U", "D"])),
            pc.and_(pc.is_valid(t["repo"]), pc.is_valid(t["path"])))
        keep_all = t.filter(pc.invert(is_data))     # DDL + malformed
        data = t.filter(is_data)
        if data.num_rows:
            # last event per key: lsn-sorted, so keep the final row of
            # each (repo, path) group — vectorized via reverse dedup
            df = pa.table({"repo": data["repo"],
                           "path": data["path"]}).to_pandas()
            last = ~df.duplicated(["repo", "path"], keep="last")
            data = data.filter(pa.array(last.to_numpy()))
        out = pa.concat_tables([keep_all, data]).sort_by("lsn")
        n_out += out.num_rows
        n_shards += 1
        from thor_ray.state.storage import storage_for

        final = os.path.join(binlog_dir,
                             f"{shard}-kc{upto_lsn:012d}.parquet")
        storage_for(final).put_atomic(
            final, lambda tmp, out=out: pq.write_table(out, tmp))
        os.makedirs(arch, exist_ok=True)
        for p in ps:
            # re-compaction input may BE the final name (same upto) —
            # never archive the file just written
            if os.path.abspath(p) != os.path.abspath(final):
                os.replace(p, os.path.join(arch, os.path.basename(p)))
    return {"shards": n_shards, "events_in": int(n_in),
            "events_out": int(n_out)}
