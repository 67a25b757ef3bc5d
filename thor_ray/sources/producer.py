"""BinlogProducer — the public WRITE edge of the binlog (Kafka-producer
analogue; SURVEY.md §2.1 S2's upstream counterpart).

Everything else in the engine treats the binlog as something a CDC
log-shipper already wrote (the `gen` fixtures, `delete_where` /
`update_where` / `merge_branch` injections). This is the missing producer
API: buffer change events programmatically, route each record to a shard
by the SAME stable key hash the engine partitions on (Kafka's
key-partitioning contract — a key's events always land in one shard, so
per-key order is preserved end to end), assign globally contiguous lsns,
and flush one atomic segment file per shard.

Delivery semantics (idempotent-producer shape):

- ``flush()`` assigns the buffered rows lsns ``[next_lsn, next_lsn+k)``
  in append order, writes ``shard-SSSS-pBBBBBBBBBB.<fmt>`` segments
  (tmp + atomic rename), THEN commits the producer state
  (``_producer.json``, atomic). Rows are acknowledged only by flush()
  returning.
- Crash between segment write and state commit: the orphan segments are
  already valid deliveries the reader may have consumed, so a restarted
  producer scans its own segments and resumes ABOVE them — lsns are
  never reused with different payloads (the idempotent-producer epoch
  rule). The unacknowledged rows themselves are gone (the caller
  re-appends; the apply path's key fold makes re-sent updates benign).
- A shard that receives no rows in a flush simply lags the safe
  frontier until its next segment — exactly a quiet Kafka partition.
  Keep flushes comfortably smaller than ``epoch_size`` so the
  bounded-skew contract (SURVEY.md §2.9 W3) holds.

DDL events ride the same log (op='DDL', null key) and bump the
producer's schema_ver, so downstream epoch cutting and the registry see
the standard wire shape.
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa

from thor_ray.gen import _EPOCH_TS_US, EVENT_SCHEMA


def _state_path(binlog_dir: str) -> str:
    return os.path.join(binlog_dir, "_producer.json")


class ProducerFencedError(RuntimeError):
    """A newer BinlogProducer took over this binlog; this instance must
    stop (its lsn allocation is stale — continuing could assign the same
    lsns to different payloads)."""


class BinlogProducer:
    """Buffered, crash-safe binlog writer. Use as a context manager
    (flushes on exit) or call :meth:`flush` explicitly."""

    def __init__(self, binlog_dir: str, n_shards: int | None = None,
                 fmt: str | None = None):
        from thor_ray.sources import binlog as binlog_src

        self.binlog_dir = binlog_dir
        os.makedirs(binlog_dir, exist_ok=True)
        st = None
        if os.path.exists(_state_path(binlog_dir)):
            with open(_state_path(binlog_dir)) as f:
                st = json.load(f)
        declared = binlog_src.expected_shards(binlog_dir)
        if n_shards is None:
            n_shards = (st or {}).get("n_shards") \
                or (len(declared) if declared else 4)
        if declared is not None and len(declared) != n_shards:
            raise ValueError(f"binlog declares {len(declared)} shards; "
                             f"producer configured with {n_shards}")
        self.n_shards = int(n_shards)
        self.fmt = fmt or ((st or {}).get("fmt")
                           or binlog_src.binlog_format(binlog_dir))
        if self.fmt not in ("parquet", "jsonl", "jsonl.gz", "csv"):
            raise ValueError(f"unsupported wire format {self.fmt!r}")
        # resume point: committed state, BUT never below what's already
        # on disk — orphan segments from a torn flush are deliveries
        observed = binlog_src.max_lsn(binlog_dir)
        self.next_lsn = max((st or {}).get("next_lsn", 1), observed + 1)
        self.next_txn = (st or {}).get("next_txn", 1)
        self.schema_ver = (st or {}).get("schema_ver", 0)
        # single-writer fencing (the lake's writer-generation pattern):
        # constructing a producer takes over the log; an older instance's
        # next flush fails closed instead of double-allocating lsns.
        # Check-then-write is not a CAS — the guard covers the zombie
        # case (paused writer resuming after a takeover), not two
        # actively racing writers, same contract as the lake manifests.
        self.writer_gen = (st or {}).get("writer_gen", 0) + 1
        self._buf: list[dict] = []
        self._declare_shards()
        self._commit_state()

    # -- buffering -------------------------------------------------------
    def append(self, op: str, repo: str | None = None,
               path: str | None = None, commit: str | None = None,
               lang: str | None = None, content: str | None = None,
               extra: dict | None = None, txn: int | None = None) -> None:
        """Buffer one change event (op 'I'|'U'|'D'). Payload fields may be
        None per the wire contract (D carries no payload). ``extra``:
        evolved-column values, JSON-encoded on flush. ``txn``: share one
        id across events of a transaction (default: one txn per event)."""
        if op not in ("I", "U", "D"):
            raise ValueError(f"op must be I/U/D (append_ddl for DDL), "
                             f"got {op!r}")
        if repo is None or path is None:
            raise ValueError("data events need a (repo, path) key")
        if txn is None:
            txn, self.next_txn = self.next_txn, self.next_txn + 1
        self._buf.append(dict(op=op, repo=repo, path=path, commit=commit,
                              lang=lang, content=content,
                              extra=json.dumps(extra or {}), ddl=None,
                              txn=txn))

    def append_ddl(self, action: str, name: str, new_name: str | None = None,
                   type: str = "string",  # noqa: A002
                   default=None) -> None:
        """Buffer a schema-change event (op='DDL'); bumps schema_ver for
        every subsequently buffered event. ``default`` backfills existing
        rows at the add_column fold (MySQL ALTER ADD COLUMN shape)."""
        if action not in ("add_column", "rename_column", "drop_column",
                          "alter_type"):
            raise ValueError(f"unknown DDL action {action!r}")
        payload = {"action": action, "name": name, "type": type}
        if new_name is not None:
            payload["new_name"] = new_name
        if default is not None:
            payload["default"] = default
        txn, self.next_txn = self.next_txn, self.next_txn + 1
        self._buf.append(dict(op="DDL", repo=None, path=None, commit=None,
                              lang=None, content=None, extra="{}",
                              ddl=json.dumps(payload), txn=txn))
        self.schema_ver += 1

    def __len__(self) -> int:
        return len(self._buf)

    # -- flush -----------------------------------------------------------
    def flush(self) -> dict:
        """Assign lsns, write one atomic segment per non-empty shard,
        commit producer state. Returns {"events", "segments",
        "first_lsn", "last_lsn"}."""
        from thor_ray.sources.binlog import _write_binlog_segment
        from thor_ray.stages.smt import stable_hash

        if not self._buf:
            return {"events": 0, "segments": 0,
                    "first_lsn": self.next_lsn, "last_lsn": self.next_lsn - 1}
        with open(_state_path(self.binlog_dir)) as f:
            cur_gen = json.load(f).get("writer_gen", 0)
        if cur_gen != self.writer_gen:
            raise ProducerFencedError(
                f"producer gen {self.writer_gen} superseded by {cur_gen} "
                f"on {self.binlog_dir}; this producer must stop")
        k = len(self._buf)
        base = self.next_lsn
        df = pd.DataFrame(self._buf)
        lsn = np.arange(base, base + k, dtype=np.int64)
        # schema_ver at buffer time would need per-row tracking; the wire
        # contract only needs the version each event was written under,
        # which for one flush is: events before the i-th DDL get the
        # pre-DDL version. Reconstruct by cumulative DDL count.
        ddl_mask = (df["op"] == "DDL").to_numpy()
        base_ver = self.schema_ver - int(ddl_mask.sum())
        # gen's wire convention: a DDL event carries the PRE-change
        # version; events after it carry the bumped one (exclusive scan)
        ver = base_ver + np.cumsum(ddl_mask) - ddl_mask
        keys = pa.table({
            "repo": pa.array(df["repo"].fillna(""), type=pa.string()),
            "path": pa.array(df["path"].fillna(""), type=pa.string())})
        shard = (stable_hash(keys, ["repo", "path"])
                 % self.n_shards).astype(np.int32)

        def col(name, typ):
            v = df[name]
            return pa.array(v.astype(object).where(pd.notna(v), None),
                            type=typ)

        t = pa.table({
            "lsn": pa.array(lsn),
            "txn": pa.array(df["txn"].to_numpy(dtype=np.int64)),
            "op": col("op", pa.string()),
            "repo": col("repo", pa.string()),
            "path": col("path", pa.string()),
            "commit": col("commit", pa.string()),
            "lang": col("lang", pa.string()),
            "content": col("content", pa.large_string()),
            "extra": col("extra", pa.large_string()),
            "ddl": col("ddl", pa.string()),
            "ts": pa.array(_EPOCH_TS_US + lsn * 1000).cast(
                pa.timestamp("us")),
            "schema_ver": pa.array(ver.astype(np.int32)),
            "shard": pa.array(shard),
        }, schema=EVENT_SCHEMA)

        segments = 0
        for s in np.unique(shard):
            seg = t.filter(pa.array(shard == s))
            name = f"shard-{int(s):04d}-p{base:010d}.{self.fmt}"
            _write_binlog_segment(seg, os.path.join(self.binlog_dir, name),
                                  self.fmt)
            segments += 1
        self.next_lsn = base + k
        self._buf = []
        self._commit_state()
        return {"events": k, "segments": segments,
                "first_lsn": base, "last_lsn": base + k - 1}

    # -- state / markers -------------------------------------------------
    def _commit_state(self) -> None:
        from thor_ray.state.manifest import _atomic_write  # noqa: SLF001

        _atomic_write(_state_path(self.binlog_dir),
                      {"next_lsn": int(self.next_lsn),
                       "next_txn": int(self.next_txn),
                       "schema_ver": int(self.schema_ver),
                       "n_shards": self.n_shards, "fmt": self.fmt,
                       "writer_gen": int(self.writer_gen)})

    def _declare_shards(self) -> None:
        """Write the `_shards.json` marker so safe_frontier waits for
        shards that haven't received their first segment yet (the
        ADVICE-round-1 invisible-shard hazard)."""
        from thor_ray.state.manifest import _atomic_write  # noqa: SLF001

        p = os.path.join(self.binlog_dir, "_shards.json")
        shards = [f"shard-{s:04d}" for s in range(self.n_shards)]
        if os.path.exists(p):
            with open(p) as f:
                prev = json.load(f)["shards"]
            if prev != shards:
                raise ValueError(f"binlog declares shards {prev}; producer "
                                 f"configured for {shards}")
            return
        _atomic_write(p, {"shards": shards})

    def __enter__(self) -> "BinlogProducer":
        return self

    def __exit__(self, *exc) -> None:
        if exc[0] is None:
            self.flush()


def read_produced_events(binlog_dir: str) -> pa.Table:
    """All events in lsn order across every shard segment — the oracle's
    input view of a produced log (reads every wire tier)."""
    from thor_ray.sources import binlog as binlog_src

    files = binlog_src.shard_files(binlog_dir)
    if not files:
        return EVENT_SCHEMA.empty_table()
    tabs = []
    for f in files:
        if f.endswith(".parquet"):
            import pyarrow.parquet as pq

            t = pq.read_table(f)
        elif f.endswith((".jsonl", ".jsonl.gz")):
            t = binlog_src._read_jsonl_file(f)  # noqa: SLF001
        else:
            import pyarrow.csv as pacsv

            t = pacsv.read_csv(
                f, convert_options=binlog_src._csv_convert_options())  # noqa: SLF001
        if t.schema.field("ts").type == pa.int64():  # text wire: epoch-µs
            t = t.set_column(t.schema.get_field_index("ts"), "ts",
                             t["ts"].cast(pa.timestamp("us")))
        tabs.append(t.select(EVENT_SCHEMA.names).cast(EVENT_SCHEMA))
    return pa.concat_tables(tabs).sort_by("lsn")
