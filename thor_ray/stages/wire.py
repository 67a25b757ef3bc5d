"""Schema-id-framed binary wire codec — the Connect-converter analogue
for binary, registry-versioned serialization (SURVEY.md §2.1 converter
boundary; Kafka's public wire framing for schema-registry payloads is
``magic byte 0x00 | 4-byte big-endian schema id | payload bytes`` [K]).

``encode_wire`` frames a Debezium envelope batch (the ``key``/``value``
JSON strings produced by ``stages.envelope.to_change_envelope``) into
binary columns, stamping each record with its schema version (per-row
from a ``schema_ver`` column — the engine's schema registry version — or
a constant id). ``decode_wire`` is the exact inverse and VALIDATES the
magic byte, so a foreign or corrupted payload fails loudly instead of
parsing garbage JSON.

Both directions are vectorized: framing is one numpy scatter over the
batch's concatenated payload bytes (no per-row Python), unframing is a
zero-copy offset rewrite + one slice copy.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .smt import Batch, Transform

WIRE_MAGIC = 0
_HDR = 5  # magic (1) + schema id (4, big-endian)
_MAX_BINARY_BYTES = 2 ** 31  # pa.binary() int32 offset ceiling


def _concat_ranges(counts: np.ndarray) -> np.ndarray:
    """[0..c0) ++ [0..c1) ++ ... (offset-vectorized)."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    starts = ends - counts
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def _string_bytes(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(offsets int64, data uint8) views of a string/binary array."""
    n = len(arr)
    if pa.types.is_large_string(arr.type) or \
            pa.types.is_large_binary(arr.type):
        arr = pc.cast(arr, pa.string() if pa.types.is_large_string(arr.type)
                      else pa.binary())
    width = np.int32
    offs = np.frombuffer(arr.buffers()[1], dtype=width)[
        arr.offset : arr.offset + n + 1].astype(np.int64)
    buf = arr.buffers()[2]
    data = np.frombuffer(buf, dtype=np.uint8) if buf is not None \
        else np.empty(0, np.uint8)
    return offs, data


def frame_column(payload: "pa.Array | pa.ChunkedArray",
                 schema_ids: np.ndarray) -> pa.Array:
    """magic|schema_id|payload binary per row (fully vectorized)."""
    arr = payload.combine_chunks() if isinstance(payload, pa.ChunkedArray) \
        else payload
    if arr.null_count:
        raise ValueError("frame_column: null payloads are not framable "
                         "(encode tombstones upstream)")
    n = len(arr)
    offs, data = _string_bytes(arr)
    lens = np.diff(offs)
    new_offs = np.concatenate(
        [[0], np.cumsum(lens + _HDR)]).astype(np.int64)
    if int(new_offs[-1]) >= _MAX_BINARY_BYTES:
        # pa.binary() carries int32 offsets; a silent downcast below
        # would wrap them into a corrupt column (ADVICE round 3). Callers
        # hitting this should shrink the batch (map_batches batch_size).
        raise ValueError(
            f"frame_column: framed payload is {int(new_offs[-1])} bytes, "
            "exceeding the 2^31-1 int32 offset limit of pa.binary(); "
            "reduce batch_size")
    out = np.empty(int(new_offs[-1]), dtype=np.uint8)
    heads = new_offs[:-1]
    out[heads] = WIRE_MAGIC
    sid_be = np.ascontiguousarray(
        schema_ids.astype(">u4")).view(np.uint8).reshape(n, 4)
    for j in range(4):
        out[heads + 1 + j] = sid_be[:, j]
    if lens.sum():
        tgt = np.repeat(heads + _HDR, lens) + _concat_ranges(lens)
        src = np.repeat(offs[:-1], lens) + _concat_ranges(lens)
        out[tgt] = data[src]
    return pa.Array.from_buffers(
        pa.binary(), n,
        [None, pa.py_buffer(new_offs.astype(np.int32).tobytes()),
         pa.py_buffer(out.tobytes())])


def unframe_column(framed: "pa.Array | pa.ChunkedArray"
                   ) -> tuple[pa.Array, pa.Array]:
    """(payload string, schema_id int32) from framed binary; raises on a
    bad magic byte, a record shorter than the header, or a payload that
    is not valid UTF-8."""
    arr = framed.combine_chunks() if isinstance(framed, pa.ChunkedArray) \
        else framed
    n = len(arr)
    offs, data = _string_bytes(arr)
    lens = np.diff(offs)
    if n and (lens < _HDR).any():
        raise ValueError("unframe_column: record shorter than the 5-byte "
                         "wire header")
    heads = offs[:-1]
    if n and (data[heads] != WIRE_MAGIC).any():
        bad = int(np.argmax(data[heads] != WIRE_MAGIC))
        raise ValueError(
            f"unframe_column: bad magic byte {int(data[heads[bad]])} at "
            f"row {bad} (expected {WIRE_MAGIC}) — not a wire-framed "
            "payload")
    sid = np.zeros(n, dtype=np.uint32)
    for j in range(4):
        sid = (sid << np.uint32(8)) | data[heads + 1 + j].astype(np.uint32)
    plens = lens - _HDR
    new_offs = np.concatenate([[0], np.cumsum(plens)]).astype(np.int64)
    out = np.empty(int(new_offs[-1]), dtype=np.uint8)
    if plens.sum():
        tgt = np.repeat(new_offs[:-1], plens) + _concat_ranges(plens)
        src = np.repeat(heads + _HDR, plens) + _concat_ranges(plens)
        out[tgt] = data[src]
    payload = pa.Array.from_buffers(
        pa.binary(), n,
        [None, pa.py_buffer(new_offs.astype(np.int32).tobytes()),
         pa.py_buffer(out.tobytes())])
    try:   # the binary→string cast validates UTF-8
        payload = pc.cast(payload, pa.string())
    except pa.ArrowInvalid as e:
        raise ValueError(f"unframe_column: payload is not valid UTF-8 "
                         f"({e})") from e
    return payload, pa.array(sid.astype(np.int32), type=pa.int32())


def encode_wire(key_col: str = "key", value_col: str = "value",
                schema_ver_col: str | None = None,
                schema_id: int = 0) -> Transform:
    """Envelope strings → framed binary ``key_wire``/``value_wire``
    columns. Schema id per record from ``schema_ver_col`` (the registry
    version the event was written under) when given, else the constant
    ``schema_id``."""
    def fn(t: Batch) -> Batch:
        n = t.num_rows
        if schema_ver_col is not None:
            sids = t[schema_ver_col].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            if n and ((sids < 0) | (sids > 0xFFFFFFFF)).any():
                raise ValueError("encode_wire: schema id out of u32 range")
            sids = sids.astype(np.uint32)
        else:
            sids = np.full(n, schema_id, dtype=np.uint32)
        return pa.table({
            "key_wire": frame_column(t[key_col], sids),
            "value_wire": frame_column(t[value_col], sids),
        })
    return fn


def decode_wire(key_col: str = "key_wire",
                value_col: str = "value_wire") -> Transform:
    """Framed binary → ``key``/``value`` envelope strings + ``schema_id``
    (int32, from the value frame). Compose with
    ``envelope.extract_new_record_state`` to flatten the value JSON."""
    def fn(t: Batch) -> Batch:
        key, _ = unframe_column(t[key_col])
        value, sid = unframe_column(t[value_col])
        return pa.table({"key": key, "value": value, "schema_id": sid})
    return fn
