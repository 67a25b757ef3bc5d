"""Single-message-transform (SMT) library as vectorized Arrow batch fns.

Re-expresses the stock Kafka Connect SMT inventory (SURVEY.md §2.2, anchors
`[K]`: public classes under ``org.apache.kafka.connect.transforms.*`` —
reference tree is empty, see SURVEY.md §0) as stateless
``Callable[[pa.Table], pa.Table]`` factories meant for
``Dataset.map_batches(fn, batch_format="pyarrow")``. Every body is a
pyarrow.compute kernel — no per-row Python in the hot path (BASELINE.json:6:
"connector-style SMT record transforms ... become stateless map_batches
stages ahead of the stateful upsert actors").
"""

from __future__ import annotations

import re
from typing import Any, Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

Batch = pa.Table
Transform = Callable[[Batch], Batch]


# --- T1 ExtractField ------------------------------------------------------
def extract_field(struct_col: str, field: str, out: str | None = None,
                  keep_struct: bool = False) -> Transform:
    """Pull one child field out of a struct column (ExtractField$Value)."""
    def fn(t: Batch) -> Batch:
        child = pc.struct_field(t[struct_col], field)
        t = t.append_column(out or field, child)
        if not keep_struct:
            t = t.drop_columns([struct_col])
        return t
    return fn


# --- T2 HoistField --------------------------------------------------------
def hoist_field(cols: list[str], into: str) -> Transform:
    """Wrap columns into a single struct column (HoistField)."""
    def fn(t: Batch) -> Batch:
        arrays = [t[c].combine_chunks() for c in cols]
        struct = pa.StructArray.from_arrays(arrays, names=cols)
        return t.drop_columns(cols).append_column(into, struct)
    return fn


# --- T3 Flatten -----------------------------------------------------------
def flatten(delimiter: str = ".") -> Transform:
    """Recursively flatten struct columns, delimiting nested names (Flatten)."""
    def fn(t: Batch) -> Batch:
        while any(pa.types.is_struct(f.type) for f in t.schema):
            t = t.flatten()
        if delimiter != ".":
            t = t.rename_columns([c.replace(".", delimiter) for c in t.column_names])
        return t
    return fn


# --- T4 ReplaceField ------------------------------------------------------
def replace_field(include: list[str] | None = None,
                  exclude: list[str] | None = None,
                  renames: dict[str, str] | None = None) -> Transform:
    def fn(t: Batch) -> Batch:
        if include:
            t = t.select([c for c in t.column_names if c in include])
        if exclude:
            t = t.drop_columns([c for c in exclude if c in t.column_names])
        if renames:
            t = t.rename_columns([renames.get(c, c) for c in t.column_names])
        return t
    return fn


def select_fields(cols: list[str]) -> Transform:
    return replace_field(include=cols)


def drop_fields(cols: list[str]) -> Transform:
    return replace_field(exclude=cols)


def rename_fields(renames: dict[str, str]) -> Transform:
    return replace_field(renames=renames)


# --- T5 InsertField -------------------------------------------------------
def insert_field(name: str, value: Any = None,
                 derive: Callable[[Batch], pa.Array] | None = None) -> Transform:
    """Add a static field, or one derived from the batch (InsertField)."""
    def fn(t: Batch) -> Batch:
        arr = derive(t) if derive is not None else pa.array([value] * len(t))
        return t.append_column(name, arr)
    return fn


# --- T6 MaskField ---------------------------------------------------------
def mask_field(cols: list[str], replacement: Any = None) -> Transform:
    """Null-out or replace sensitive fields (MaskField)."""
    def fn(t: Batch) -> Batch:
        for c in cols:
            col = t[c]
            if replacement is None:
                masked = pa.nulls(len(t), type=col.type)
            else:
                masked = pa.array([replacement] * len(t), type=col.type)
            t = t.set_column(t.schema.get_field_index(c), c, masked)
        return t
    return fn


# --- T7 Cast --------------------------------------------------------------
def cast_fields(spec: dict[str, pa.DataType]) -> Transform:
    """Cast named columns (Cast; spec analogue of ``f1:int64,...``).

    ``safe=False`` matches Connect's Cast semantics (numeric truncation)."""
    def fn(t: Batch) -> Batch:
        for c, ty in spec.items():
            t = t.set_column(t.schema.get_field_index(c), c,
                             pc.cast(t[c], ty, safe=False))
        return t
    return fn


# --- T8 TimestampConverter ------------------------------------------------
def timestamp_converter(col: str, target: str, fmt: str = "%Y-%m-%d %H:%M:%S",
                        out: str | None = None) -> Transform:
    """unix ⇄ string ⇄ timestamp conversions (TimestampConverter).

    target in {"unix", "string", "timestamp", "date"}.
    """
    def fn(t: Batch) -> Batch:
        src = t[col]
        if pa.types.is_string(src.type) and target != "string":
            src = pc.strptime(src, format=fmt, unit="us")
        if target == "unix":
            res = pc.cast(src, pa.int64())
        elif target == "string":
            if not pa.types.is_timestamp(src.type):
                src = pc.cast(src, pa.timestamp("us"))
            res = pc.strftime(src, format=fmt)
        elif target == "date":
            res = pc.cast(src, pa.date32())
        else:
            res = pc.cast(src, pa.timestamp("us"))
        name = out or col
        if name in t.column_names:
            return t.set_column(t.schema.get_field_index(name), name, res)
        return t.append_column(name, res)
    return fn


# --- T9 TimestampRouter ---------------------------------------------------
def timestamp_router(ts_col: str, fmt: str = "%Y%m%d", prefix: str = "t_",
                     out: str = "table") -> Transform:
    """Derive a routing/partition column from the record timestamp
    (TimestampRouter; "timestamp routing" BASELINE.json:6)."""
    def fn(t: Batch) -> Batch:
        routed = pc.binary_join_element_wise(
            pa.array([prefix] * len(t)), pc.strftime(t[ts_col], format=fmt), "")
        return t.append_column(out, routed)
    return fn


# --- T10 RegexRouter ------------------------------------------------------
def regex_router(col: str, pattern: str, replacement: str,
                 out: str | None = None) -> Transform:
    """topic→table mapping by regex replace (RegexRouter; BASELINE.json:6)."""
    def fn(t: Batch) -> Batch:
        routed = pc.replace_substring_regex(t[col], pattern=pattern,
                                            replacement=replacement)
        name = out or col
        if name in t.column_names:
            return t.set_column(t.schema.get_field_index(name), name, routed)
        return t.append_column(name, routed)
    return fn


# --- T11 ValueToKey: explicit key columns → stable hash -------------------
def key_hash(cols: list[str], out: str = "key_hash",
             num_buckets: int | None = None) -> Transform:
    """Promote columns to a stable 64-bit key hash (ValueToKey analogue).

    Stable across processes/nodes and value-pure (FNV-1a computed with
    numpy over the Arrow string buffers — the loop is over byte POSITION,
    not rows, so cost is O(max_key_len) vectorized passes). NOTE:
    ``pd.util.hash_pandas_object`` is NOT value-pure with its default
    ``categorize=True`` — the same string can hash differently depending on
    the rest of the column — which silently breaks key routing; do not use
    it for partitioning. With ``num_buckets``, emits ``hash % num_buckets``
    — the partition-routing primitive for the upsert shuffle (SURVEY.md
    §4.2: partition on hash(repo,path), not repo alone, so a monorepo
    cannot hot-spot one partition).
    """
    def fn(t: Batch) -> Batch:
        h = stable_hash(t, cols)
        if num_buckets is not None:
            h = h % num_buckets
        return t.append_column(out, pa.array(h, type=pa.int64()))
    return fn


def stable_hash(t: Batch, cols: list[str]) -> np.ndarray:
    """Non-negative int64, value-pure, process-stable hash of key columns.

    Fast path: polars ``hash_rows`` (xxhash, C-vectorized, ~3 M rows/s,
    verified value-pure); fallback: numpy FNV-1a over the Arrow buffers."""
    try:
        import polars as pl

        h = pl.from_arrow(t.select(cols)).hash_rows(seed=42).to_numpy()
        return (h >> np.uint64(1)).astype(np.int64)
    except ImportError:
        pass
    # null keys hash as empty string so routing is DEFINED even when the
    # DLQ stage is disabled and corrupt events reach route(): without the
    # fill, binary_join propagates nulls and an all-null column's data
    # buffer can be None (crash) or rows hash to arbitrary partitions
    joined = pc.fill_null(t[cols[0]], "")
    for c in cols[1:]:
        joined = pc.binary_join_element_wise(joined, pc.fill_null(t[c], ""), "\x00")
    if isinstance(joined, pa.ChunkedArray):
        joined = joined.combine_chunks()
    if pa.types.is_large_string(joined.type):
        joined = pc.cast(joined, pa.string())
    n = len(joined)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    off_buf = np.frombuffer(joined.buffers()[1], dtype=np.int32)
    offs = off_buf[joined.offset : joined.offset + n + 1].astype(np.int64)
    data_buf = joined.buffers()[2]
    data = np.frombuffer(data_buf, dtype=np.uint8) if data_buf is not None \
        else np.empty(0, dtype=np.uint8)
    lens = offs[1:] - offs[:-1]
    starts = offs[:-1]
    h = np.full(n, 0xCBF29CE484222325, dtype=np.uint64)
    prime = np.uint64(0x100000001B3)
    with np.errstate(over="ignore"):
        for j in range(int(lens.max()) if n else 0):
            active = lens > j
            b = data[starts[active] + j].astype(np.uint64)
            h[active] = (h[active] ^ b) * prime
    return (h >> np.uint64(1)).astype(np.int64)


# --- T12 Filter (SMT) -----------------------------------------------------
def smt_filter(predicate: Callable[[Batch], pa.Array]) -> Transform:
    """Keep rows where the vectorized predicate is true (Filter SMT +
    predicates; tombstone drop = ``lambda t: pc.not_equal(t["op"], "D")``)."""
    def fn(t: Batch) -> Batch:
        return t.filter(predicate(t))
    return fn


# --- T13 header SMTs ------------------------------------------------------
# Connect records carry a header list beside the value; in the columnar
# model a header is a column under the HEADER_PREFIX namespace (the
# "headers ≙ columns" mapping SURVEY §2.2 documents). These four give the
# public header SMT inventory (org.apache.kafka.connect.transforms
# InsertHeader / HeaderFrom / DropHeaders and SetSchemaMetadata) explicit
# named implementations with Connect semantics.

HEADER_PREFIX = "hdr_"


def header_col(name: str) -> str:
    """Column name of header `name` under the namespace convention."""
    return name if name.startswith(HEADER_PREFIX) else HEADER_PREFIX + name


def insert_header(name: str, value: Any) -> Transform:
    """InsertHeader: add a literal-valued header to every record. The
    column type is the literal's, so an empty batch carries the same
    field type as a full one."""
    typ = pa.scalar(value).type

    def fn(t: Batch) -> Batch:
        return t.append_column(header_col(name),
                               pa.array([value] * len(t), type=typ))
    return fn


def header_from(fields: list[str], headers: list[str] | None = None,
                operation: str = "copy") -> Transform:
    """HeaderFrom: copy or move value fields into headers.

    ``operation="copy"`` keeps the source fields; ``"move"`` drops them
    after the header is written (the Connect `transforms.*.operation`
    contract). ``headers`` defaults to the field names."""
    if operation not in ("copy", "move"):
        raise ValueError(
            f"header_from: operation must be 'copy' or 'move', "
            f"got {operation!r}")
    headers = headers or list(fields)
    if len(headers) != len(fields):
        raise ValueError("header_from: fields and headers must align")

    def fn(t: Batch) -> Batch:
        for f, hn in zip(fields, headers):
            t = t.append_column(header_col(hn), t[f])
        if operation == "move":
            t = t.drop_columns(list(fields))
        return t
    return fn


def drop_headers(names: list[str]) -> Transform:
    """DropHeaders: remove the named headers (missing ones are ignored,
    matching Connect's remove-if-present behavior)."""
    def fn(t: Batch) -> Batch:
        cols = [header_col(n) for n in names]
        present = [c for c in cols if c in t.column_names]
        return t.drop_columns(present) if present else t
    return fn


def set_schema_metadata(schema_name: str | None = None,
                        schema_version: int | None = None) -> Transform:
    """SetSchemaMetadata: stamp the record schema's name/version. Maps to
    REAL Arrow schema metadata on the batch (carried into parquet footers
    by writers), not a side-channel column."""
    def fn(t: Batch) -> Batch:
        meta = dict(t.schema.metadata or {})
        if schema_name is not None:
            meta[b"connect.schema.name"] = schema_name.encode()
        if schema_version is not None:
            meta[b"connect.schema.version"] = str(schema_version).encode()
        return t.replace_schema_metadata(meta)
    return fn


# --- T12b Connect built-in predicates -------------------------------------
# The public predicate trio (org.apache.kafka.connect.transforms.predicates
# HasHeaderKey / RecordIsTombstone / TopicNameMatches) plus the `negate`
# flag — used standalone with smt_filter or to gate any SMT via
# chain.predicate_gate (Connect's `transforms.*.predicate` mechanism).

def has_header_key(name: str) -> Callable[[Batch], pa.Array]:
    """True for records carrying header `name` (non-null under the
    headers-≙-columns mapping); all-false when the column is absent."""
    def pred(t: Batch) -> pa.Array:
        col = header_col(name)
        if col not in t.column_names:
            return pa.array([False] * len(t))
        return pc.is_valid(t[col])
    return pred


def record_is_tombstone(op_col: str = "op",
                        tombstone_op: str = "D") -> Callable[[Batch], pa.Array]:
    """True for delete tombstones — the null-value record of a compacted
    topic maps to the change-event op column here (null op also counts,
    matching a null-payload wire record)."""
    def pred(t: Batch) -> pa.Array:
        if op_col not in t.column_names:
            return pa.array([False] * len(t))
        return pc.or_kleene(
            pc.equal(t[op_col], tombstone_op),
            pc.is_null(t[op_col])
        ).combine_chunks().fill_null(True)
    return pred


def topic_name_matches(pattern: str,
                       topic_col: str = "topic") -> Callable[[Batch], pa.Array]:
    """True where the record's topic/route column matches the anchored
    regex (Connect matches the ENTIRE topic name — the pattern is
    wrapped in ^...$ like Java's Pattern.matches, whatever anchors the
    pattern already carries)."""
    anchored = f"^(?:{pattern})$"

    def pred(t: Batch) -> pa.Array:
        if topic_col not in t.column_names:
            return pa.array([False] * len(t))
        return pc.match_substring_regex(t[topic_col], pattern=anchored) \
            .combine_chunks().fill_null(False)
    return pred


def negate(pred: Callable[[Batch], pa.Array]) -> Callable[[Batch], pa.Array]:
    """Connect's `negate=true` predicate flag."""
    def fn(t: Batch) -> pa.Array:
        return pc.invert(pred(t))
    return fn


# --- T14 field extraction from semi-structured payload --------------------
def json_extract(col: str, key: str, out: str, as_type: pa.DataType | None = None,
                 strict: bool = False) -> Transform:
    """Extract a top-level key from a flat JSON-object string column.

    Fast path: a compiled-regex scalar extract via pyarrow
    (``pc.extract_regex``) that handles flat objects with string/number
    values — the shape of ``events.props`` (FIXTURES.md §4). ``strict=True``
    switches to per-row ``json.loads`` for arbitrary JSON (slower; only for
    cold paths).
    """
    # single capture group: bare scalars and simple quoted strings (no
    # embedded quotes/commas — use strict=True for those)
    pattern = r'"' + re.escape(key) + r'"\s*:\s*"?(?P<v>[^,"}]*)"?'

    def fn(t: Batch) -> Batch:
        if strict:
            import json as _json

            vals = [
                (_json.loads(v).get(key) if v is not None else None)
                for v in t[col].to_pylist()
            ]
            arr = pa.array([None if v is None else str(v) for v in vals])
        else:
            m = pc.extract_regex(t[col], pattern=pattern)
            arr = pc.utf8_trim_whitespace(pc.struct_field(m, "v"))
        if as_type is not None:
            arr = pc.cast(arr, as_type)
        return t.append_column(out, arr)
    return fn


# --- T15 Outbox EventRouter -------------------------------------------------
def outbox_router(route_by: str = "aggregatetype",
                  key_col: str = "aggregateid",
                  payload_col: str = "payload",
                  topic_template: str = "outbox.event.${routedByValue}",
                  extra_fields: "dict[str, str] | None" = None) -> Transform:
    """Debezium-style outbox event router (public ``EventRouter`` SMT
    shape): turn rows of an application 'outbox' table into routed
    messages — ``topic`` from the aggregate type via a template, ``key``
    from the aggregate id (stringified, the Kafka partition key), and the
    opaque ``payload`` passed through untouched.

    ``extra_fields`` maps source column -> output column for values that
    should ride along (the ``table.fields.additional.placement`` analogue,
    e.g. ``{"id": "event_id", "ts": "ts"}``). A null routing value yields
    a null topic (callers DLQ or filter; Debezium errors hard here —
    filtering keeps the batch path total).

    Fully vectorized: one template split at build time, one element-wise
    concat per batch."""
    pre, _, suf = topic_template.partition("${routedByValue}")
    extra_fields = extra_fields or {}

    def fn(t: Batch) -> Batch:
        topic = pc.binary_join_element_wise(
            pa.scalar(pre), pc.cast(t[route_by], pa.string()),
            pa.scalar(suf), "")
        cols = {"topic": topic,
                "key": pc.cast(t[key_col], pa.string()),
                "payload": t[payload_col]}
        for src, out in extra_fields.items():
            cols[out] = t[src]
        return pa.table(cols)
    return fn
