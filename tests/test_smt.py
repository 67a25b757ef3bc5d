"""Unit tests for the SMT library (SURVEY.md §2.2) on tiny in-memory tables."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from thor_ray import stages as S


@pytest.fixture
def t():
    return pa.table({
        "topic": ["db.orders", "db.users", "db.orders"],
        "ts": pa.array([1_600_000_000_000_000, 1_600_086_400_000_000,
                        1_600_172_800_000_000], type=pa.timestamp("us")),
        "amount": pa.array([1.5, 2.5, 3.5]),
        "props": ['{"k": 87, "s": "x"}', '{"k": 1}', '{"s": "y"}'],
        "secret": ["a", "b", "c"],
    })


def test_extract_and_hoist_roundtrip(t):
    hoisted = S.hoist_field(["topic", "amount"], into="payload")(t)
    assert pa.types.is_struct(hoisted["payload"].type)
    back = S.extract_field("payload", "amount", keep_struct=True)(hoisted)
    assert back["amount"].to_pylist() == [1.5, 2.5, 3.5]


def test_flatten(t):
    hoisted = S.hoist_field(["topic", "amount"], into="payload")(t)
    flat = S.flatten(delimiter="_")(hoisted)
    assert "payload_topic" in flat.column_names
    assert "payload_amount" in flat.column_names


def test_replace_mask_cast(t):
    out = S.rename_fields({"amount": "amt"})(t)
    assert "amt" in out.column_names
    out = S.mask_field(["secret"])(t)
    assert out["secret"].null_count == 3
    out = S.mask_field(["secret"], replacement="***")(t)
    assert out["secret"].to_pylist() == ["***"] * 3
    out = S.cast_fields({"amount": pa.int64()})(t)
    assert out["amount"].type == pa.int64()
    out = S.select_fields(["topic"])(t)
    assert out.column_names == ["topic"]
    out = S.drop_fields(["secret", "props"])(t)
    assert "secret" not in out.column_names


def test_insert_field(t):
    out = S.insert_field("source", value="binlog")(t)
    assert out["source"].to_pylist() == ["binlog"] * 3
    out = S.insert_field("double_amt", derive=lambda b: pc.multiply(b["amount"], 2))(t)
    assert out["double_amt"].to_pylist() == [3.0, 5.0, 7.0]


def test_timestamp_converter_and_router(t):
    out = S.timestamp_converter("ts", "string", fmt="%Y-%m-%d")(t)
    assert out["ts"].to_pylist()[0] == "2020-09-13"
    out = S.timestamp_converter("ts", "unix")(t)
    assert out["ts"].to_pylist()[0] == 1_600_000_000_000_000
    out = S.timestamp_router("ts", fmt="%Y%m", prefix="t_")(t)
    assert out["table"].to_pylist() == ["t_202009", "t_202009", "t_202009"]


def test_regex_router(t):
    out = S.regex_router("topic", r"^db\.(.*)$", r"lake_\1", out="table")(t)
    assert out["table"].to_pylist() == ["lake_orders", "lake_users", "lake_orders"]


def test_smt_filter_and_predicate_gate(t):
    out = S.smt_filter(lambda b: pc.greater(b["amount"], 2.0))(t)
    assert out.num_rows == 2
    gated = S.predicate_gate(
        lambda b: pc.equal(b["topic"], "db.orders"),
        S.mask_field(["secret"], replacement="X"),
    )(t)
    got = dict(zip(gated["topic"].to_pylist(), gated["secret"].to_pylist()))
    assert got["db.orders"] == "X" and got["db.users"] == "b"


def test_json_extract(t):
    out = S.json_extract("props", "k", out="k", as_type=pa.int64())(t)
    assert out["k"].to_pylist() == [87, 1, None]
    out = S.json_extract("props", "s", out="s")(t)
    assert out["s"].to_pylist() == ["x", None, "y"]
    out = S.json_extract("props", "k", out="k2", strict=True)(t)
    assert out["k2"].to_pylist() == ["87", "1", None]


def test_key_hash_stable_and_value_pure(t):
    out = S.key_hash(["topic", "secret"], num_buckets=16)(t)
    h1 = out["key_hash"].to_pylist()
    # value-pure: same values alone hash identically
    solo = pa.table({"topic": ["db.users"], "secret": ["b"]})
    h_solo = S.key_hash(["topic", "secret"], num_buckets=16)(solo)["key_hash"].to_pylist()
    assert h_solo[0] == h1[1]
    # sliced (non-zero offset) arrays hash identically
    sl = t.slice(1, 2)
    h_sl = S.key_hash(["topic", "secret"], num_buckets=16)(sl)["key_hash"].to_pylist()
    assert h_sl == h1[1:]
    assert all(0 <= v < 16 for v in h1)


def test_split_valid_and_chain(t):
    valid, invalid = S.split_valid(t, [lambda b: pc.greater(b["amount"], 2.0)])
    assert valid.num_rows == 2 and invalid.num_rows == 1
    chain = S.TransformChain(
        S.regex_router("topic", r"^db\.", "", out="table"),
        S.drop_fields(["secret"]),
    )
    out = chain(t)
    assert out["table"].to_pylist() == ["orders", "users", "orders"]
    assert "secret" not in out.column_names


def test_stable_hash_null_keys_defined(monkeypatch):
    """Null key columns must hash deterministically (as empty string) in the
    FNV fallback — previously an all-null column's missing data buffer
    crashed, or null rows hashed to arbitrary partitions (ADVICE round 1)."""
    import sys
    import numpy as np
    import pyarrow as pa
    from thor_ray.stages.smt import stable_hash
    t = pa.table({"repo": pa.array([None, "a", None], type=pa.string()),
                  "path": pa.array(["x", None, None], type=pa.string())})
    all_null = pa.table({"repo": pa.array([None, None], type=pa.string()),
                         "path": pa.array([None, None], type=pa.string())})
    # force the FNV fallback by hiding polars
    monkeypatch.setitem(sys.modules, "polars", None)
    try:
        h = stable_hash(t, ["repo", "path"])
        assert len(h) == 3 and (h >= 0).all()
        h2 = stable_hash(all_null, ["repo", "path"])
        assert len(h2) == 2 and h2[0] == h2[1]
        # null hashes like empty string -> defined and consistent
        empty = pa.table({"repo": pa.array(["", ""]), "path": pa.array(["", ""])})
        assert (stable_hash(empty, ["repo", "path"]) == h2).all()
    finally:
        pass


def test_outbox_router_routes_keys_and_payload():
    """T15 EventRouter: templated topic, stringified key, opaque payload,
    extra fields ride along; null routing value -> null topic (filterable,
    not a crash)."""
    import pyarrow as pa
    from thor_ray.stages import outbox_router

    t = pa.table({
        "id": [1, 2, 3],
        "aggregatetype": ["order", "customer", None],
        "aggregateid": [10, 20, 30],
        "payload": ['{"a":1}', '{"b":2}', "{}"],
    })
    fn = outbox_router(extra_fields={"id": "event_id"})
    out = fn(t)
    assert out.column_names == ["topic", "key", "payload", "event_id"]
    assert out["topic"].to_pylist() == [
        "outbox.event.order", "outbox.event.customer", None]
    assert out["key"].to_pylist() == ["10", "20", "30"]
    assert out["payload"].to_pylist() == t["payload"].to_pylist()
    # template with a suffix after the routed value
    fn2 = outbox_router(topic_template="pre.${routedByValue}.post")
    assert fn2(t)["topic"].to_pylist()[0] == "pre.order.post"


def test_change_envelope_roundtrip_and_delete_modes():
    """Debezium envelope pair: serialize → parse reproduces the rows;
    deletes carry after=null and honor drop vs rewrite; tombstones
    (null value) always drop; source fields surface as __<field>."""
    import json

    from thor_ray.stages import extract_new_record_state, to_change_envelope

    t = pa.table({
        "lsn": pa.array([1, 2, 3, 4], pa.int64()),
        "shard": pa.array([0, 1, 0, 1], pa.int32()),
        "op": ["I", "U", "D", "I"],
        "repo": ['r"1', "r2", "r3", None],
        "path": ["a/b", "c\nd", "e", "f"],
        "n": pa.array([10, None, 3, 7], pa.int64()),
        "ts": pa.array([1_000_000, 2_000_000, None, 4_000_000],
                       pa.timestamp("us")),
    })
    env = to_change_envelope(
        key_cols=["repo", "path"], payload_cols=["repo", "path", "n"],
        op_col="op", ts_col="ts", source_cols=["lsn", "shard"],
        source_name="t1")(t)
    assert env.column_names == ["key", "value"]
    # every value line is valid standalone JSON with the envelope shape
    v0 = json.loads(env["value"][0].as_py())
    assert v0 == {"before": None,
                  "after": {"repo": 'r"1', "path": "a/b", "n": 10},
                  "op": "c", "ts_ms": 1000,
                  "source": {"name": "t1", "lsn": 1, "shard": 0}}
    v2 = json.loads(env["value"][2].as_py())
    assert v2["after"] is None and v2["op"] == "d" and v2["ts_ms"] is None
    assert json.loads(env["key"][3].as_py()) == {"repo": None, "path": "f"}

    # drop mode removes the delete; embedded newline/quote survive
    flat = extract_new_record_state()(env)
    assert flat["op"].to_pylist() == ["c", "u", "c"]
    assert flat["repo"].to_pylist() == ['r"1', "r2", None]
    assert flat["path"].to_pylist() == ["a/b", "c\nd", "f"]
    assert flat["n"].to_pylist() == [10, None, 7]

    # rewrite keeps the delete row with __deleted + provenance
    rw = extract_new_record_state(delete_mode="rewrite",
                                  add_source_fields=["lsn"])(env)
    assert rw["__deleted"].to_pylist() == ["false", "false", "true", "false"]
    assert rw["__lsn"].to_pylist() == [1, 2, 3, 4]

    # pinned payload schema fixes dtypes regardless of inference
    ps = pa.schema([("repo", pa.string()), ("path", pa.string()),
                    ("n", pa.int64())])
    pin = extract_new_record_state(payload_schema=ps,
                                   add_source_fields=["lsn", "shard"])(env)
    assert pin.schema.field("n").type == pa.int64()
    assert pin.schema.field("__shard").type == pa.int64()

    # tombstones (null value) drop in both modes; empty batch is total
    tomb = env.set_column(1, "value", pa.array([None] * 4, pa.string()))
    assert extract_new_record_state()(tomb).num_rows == 0
    assert extract_new_record_state(delete_mode="rewrite")(tomb).num_rows == 0
    with pytest.raises(ValueError):
        extract_new_record_state(delete_mode="bogus")


def test_wire_codec_roundtrip():
    """Schema-id-framed binary wire pair: frame → unframe reproduces the
    strings and per-row schema ids; magic byte is validated; empty and
    unicode payloads survive; chained composition with the envelope pair
    reproduces the rows through the binary boundary."""
    import numpy as np

    from thor_ray.stages import decode_wire, encode_wire
    from thor_ray.stages.wire import (WIRE_MAGIC, frame_column,
                                      unframe_column)

    vals = ['{"a":1}', "", "ünïcødé \n quote\"", "x" * 5000]
    sids = np.array([0, 1, 7, 0xFFFFFFFF], dtype=np.uint32)
    framed = frame_column(pa.array(vals, pa.string()), sids)
    # wire layout: magic, 4-byte BE schema id, payload bytes
    b0 = framed[0].as_py()
    assert b0[0] == WIRE_MAGIC and b0[1:5] == b"\x00\x00\x00\x00"
    assert b0[5:] == b'{"a":1}'
    assert framed[3].as_py()[1:5] == b"\xff\xff\xff\xff"
    back, got_sids = unframe_column(framed)
    assert back.to_pylist() == vals
    assert [s & 0xFFFFFFFF for s in
            np.asarray(got_sids, dtype=np.uint32).tolist()] == \
        [int(s) for s in sids]

    # magic validation fails loudly on foreign bytes
    with pytest.raises(ValueError, match="bad magic"):
        unframe_column(pa.array([b"\x01\x00\x00\x00\x00hi"], pa.binary()))
    with pytest.raises(ValueError, match="shorter than"):
        unframe_column(pa.array([b"\x00\x00"], pa.binary()))
    # a well-framed record whose payload is not UTF-8 must not come back
    # as a corrupt string array
    with pytest.raises(ValueError, match="not valid UTF-8"):
        unframe_column(pa.array([b"\x00\x00\x00\x00\x01\xff"], pa.binary()))
    with pytest.raises(ValueError, match="null payloads"):
        frame_column(pa.array(["a", None], pa.string()),
                     np.zeros(2, np.uint32))

    # transform pair over an envelope batch, per-row schema version
    t = pa.table({"key": ['{"id":1}', '{"id":2}'],
                  "value": ['{"after":{"id":1}}', '{"after":{"id":2}}'],
                  "schema_ver": pa.array([3, 4], pa.int32())})
    wired = encode_wire(schema_ver_col="schema_ver")(t)
    assert wired.column_names == ["key_wire", "value_wire"]
    assert wired.schema.field("key_wire").type == pa.binary()
    out = decode_wire()(wired)
    assert out["key"].to_pylist() == t["key"].to_pylist()
    assert out["value"].to_pylist() == t["value"].to_pylist()
    assert out["schema_id"].to_pylist() == [3, 4]


def test_wire_codec_vectorized_large_batch():
    """The framing is one numpy scatter — a 50k-row batch frames and
    unframes exactly (spot + aggregate checks)."""
    import numpy as np

    from thor_ray.stages.wire import frame_column, unframe_column

    rng = np.random.default_rng(3)
    vals = [("p%d_" % i) * int(rng.integers(0, 20)) for i in range(50_000)]
    sids = rng.integers(0, 2**32, size=50_000, dtype=np.uint32)
    back, got = unframe_column(frame_column(pa.array(vals), sids))
    assert back.to_pylist() == vals
    assert (np.asarray(got, dtype=np.uint32) == sids).all()


def test_wire_codec_adversarial_bytes():
    """Property: unframe over arbitrary byte payloads either round-trips
    a valid frame (magic byte, full header, UTF-8 payload) or raises
    ValueError — never an index/buffer crash, and never silently returns
    garbage for a bad magic or a non-UTF-8 payload."""
    import numpy as np
    from hypothesis import given, settings, strategies as st

    from thor_ray.stages.wire import (WIRE_MAGIC, frame_column,
                                      unframe_column)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.binary(min_size=0, max_size=24), min_size=1,
                    max_size=8))
    def prop(blobs):
        import pyarrow as pa
        arr = pa.array(blobs, pa.binary())

        def utf8(b: bytes) -> bool:
            try:
                b.decode("utf-8")
                return True
            except UnicodeDecodeError:
                return False
        ok = all(len(b) >= 5 and b[0] == WIRE_MAGIC and utf8(b[5:])
                 for b in blobs)
        if ok:
            payload, sids = unframe_column(arr)
            payload.validate(full=True)
            for b, p, s in zip(blobs, payload.to_pylist(),
                               sids.to_pylist()):
                assert p == b[5:].decode("utf-8")
                assert (s & 0xFFFFFFFF) == int.from_bytes(b[1:5], "big")
        else:
            with pytest.raises(ValueError):
                unframe_column(arr)

    prop()

    # frame→unframe fuzz over text payloads incl. NUL and high unicode
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.text(max_size=40), min_size=1, max_size=10),
           st.integers(min_value=0, max_value=2**32 - 1))
    def rt(texts, sid):
        import pyarrow as pa
        sids = np.full(len(texts), sid, dtype=np.uint32)
        back, got = unframe_column(frame_column(pa.array(texts), sids))
        assert back.to_pylist() == texts
        assert all((g & 0xFFFFFFFF) == sid for g in got.to_pylist())

    rt()


def test_header_smts_connect_semantics():
    """T13 explicit forms: InsertHeader literal, HeaderFrom copy vs move,
    DropHeaders remove-if-present, SetSchemaMetadata real Arrow schema
    metadata."""
    import pyarrow as pa

    from thor_ray.stages.chain import TransformChain
    from thor_ray.stages.smt import (drop_headers, header_col, header_from,
                                     insert_header, set_schema_metadata)

    t = pa.table({"a": [1, 2], "b": ["x", "y"], "c": [0.5, 1.5]})
    assert header_col("k") == "hdr_k" and header_col("hdr_k") == "hdr_k"

    out = insert_header("env", "prod")(t)
    assert out["hdr_env"].to_pylist() == ["prod", "prod"]

    out = header_from(["a", "b"], ["ka", "kb"], operation="copy")(t)
    assert out["hdr_ka"].to_pylist() == [1, 2]
    assert "a" in out.column_names and "b" in out.column_names

    out = header_from(["b"], operation="move")(t)
    assert out["hdr_b"].to_pylist() == ["x", "y"]
    assert "b" not in out.column_names

    out = drop_headers(["env", "missing"])(insert_header("env", 1)(t))
    assert "hdr_env" not in out.column_names
    assert out.column_names == t.column_names   # untouched otherwise

    out = set_schema_metadata("rec.v", 7)(t)
    md = out.schema.metadata
    assert md[b"connect.schema.name"] == b"rec.v"
    assert md[b"connect.schema.version"] == b"7"
    assert out.to_pydict() == t.to_pydict()     # values untouched

    with pytest.raises(ValueError, match="operation"):
        header_from(["a"], operation="rename")
    with pytest.raises(ValueError, match="align"):
        header_from(["a", "b"], ["only_one"])

    # chain composes: move then drop leaves neither source nor header
    chain = TransformChain(header_from(["c"], operation="move"),
                           drop_headers(["c"]))
    out = chain(t)
    assert "c" not in out.column_names and "hdr_c" not in out.column_names


def test_insert_header_type_independent_of_batch_size():
    """An empty batch and a full one get the same header field type (the
    literal's), so batches of one stream concatenate."""
    import pyarrow as pa

    from thor_ray.stages.smt import insert_header

    full = pa.table({"a": [1, 2]})
    for value, typ in (("prod", pa.string()), (7, pa.int64()),
                       (None, pa.null())):
        ins = insert_header("env", value)
        got = [ins(t).schema.field("hdr_env").type
               for t in (full.slice(0, 0), full)]
        assert got == [typ, typ], (value, got)
    assert insert_header("env", "prod")(full)["hdr_env"].to_pylist() == \
        ["prod", "prod"]


def test_connect_builtin_predicates():
    """T12b: HasHeaderKey / RecordIsTombstone / TopicNameMatches +
    negate, standalone and gating an SMT."""
    import pyarrow as pa

    from thor_ray.stages.chain import predicate_gate
    from thor_ray.stages.smt import (has_header_key, insert_field, negate,
                                     record_is_tombstone, smt_filter,
                                     topic_name_matches)

    t = pa.table({
        "op": ["I", "D", None, "U"],
        "topic": ["t_orders", "t_orders", "x_audit", "t_cust"],
        "hdr_env": ["p", None, "q", "r"],
        "v": [1, 2, 3, 4],
    })
    assert has_header_key("env")(t).to_pylist() == [True, False, True, True]
    assert has_header_key("missing")(t).to_pylist() == [False] * 4
    # tombstone: op == D or null op (null-payload wire record)
    assert record_is_tombstone()(t).to_pylist() == [False, True, True, False]
    # Connect matches the WHOLE topic name
    assert topic_name_matches("t_.*")(t).to_pylist() == \
        [True, True, False, True]
    assert topic_name_matches("t_orders")(t).to_pylist() == \
        [True, True, False, False]   # no substring match on t_cust etc.
    # a pattern's own leading ^ does not turn off the whole-name match
    foo = pa.table({"topic": ["foo", "foobar"]})
    assert topic_name_matches("^foo")(foo).to_pylist() == [True, False]
    assert negate(record_is_tombstone())(t).to_pylist() == \
        [True, False, False, True]

    # gate an SMT with a predicate (the transforms.*.predicate mechanism)
    gated = predicate_gate(topic_name_matches("t_.*"),
                           insert_field("routed", value=1))
    out = gated(t)
    assert out["routed"].to_pylist() == [1, 1, None, 1]
    # and filter tombstones out of a stream
    kept = smt_filter(negate(record_is_tombstone()))(t)
    assert kept["v"].to_pylist() == [1, 4]
