"""The lake's merge-on-read kernel (state/merge.py merge_runs) against a
pure-Python last-writer-wins fold, over random LSM runs."""

from __future__ import annotations

import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from thor_ray.state.merge import merge_runs

_ROW = st.fixed_dictionaries({
    "repo": st.sampled_from(["r0", "r1"]),
    "path": st.sampled_from(["a.py", "b.py", "c.py"]),
    "_lsn": st.integers(0, 4),          # a narrow range forces _lsn ties
    "_op": st.sampled_from(["U", "U", "D"]),
    "content": st.text(alphabet="xyz", max_size=3),
    "x": st.one_of(st.none(), st.integers(-5, 5)),
})
# how a table carries the evolved column x: typed, null-typed (every
# value None), or absent (a snapshot-chunk file that predates it)
_SHAPE = st.sampled_from(["typed", "null", "chunk"])
_TABLE = st.tuples(st.lists(_ROW, max_size=8), _SHAPE)


def _table(rows: list[dict], shape: str) -> pa.Table:
    cols = ["repo", "path", "_lsn", "_op", "content"]
    data = {c: [r[c] for r in rows] for c in cols}
    types = {"repo": pa.string(), "path": pa.string(), "_lsn": pa.int64(),
             "_op": pa.string(), "content": pa.string()}
    arrays = {c: pa.array(data[c], types[c]) for c in cols}
    if shape == "typed":
        arrays["x"] = pa.array([r["x"] for r in rows], pa.int64())
    elif shape == "null":
        arrays["x"] = pa.nulls(len(rows))
    return pa.table(arrays)


def _fold(runs: list[tuple[list[dict], str]], keep_tombstones: bool
          ) -> list[dict]:
    """Last writer wins per (repo, path): a row replaces the current one
    when its _lsn is >= (equal _lsn: the later file, or the later row of
    one file, wins). Winners in (_lsn, position) order."""
    best: dict = {}
    pos = 0
    for rows, shape in runs:
        for r in rows:
            row = dict(r)
            if shape != "typed":
                row["x"] = None
            k = (row["repo"], row["path"])
            if k not in best or row["_lsn"] >= best[k][0]["_lsn"]:
                best[k] = (row, pos)
            pos += 1
    won = sorted(best.values(), key=lambda rp: (rp[0]["_lsn"], rp[1]))
    return [r for r, _ in won if keep_tombstones or r["_op"] != "D"]


@settings(max_examples=300, deadline=None)
@given(runs=st.lists(_TABLE, min_size=1, max_size=4),
       keep_tombstones=st.booleans())
def test_merge_runs_matches_python_fold(runs, keep_tombstones):
    got = merge_runs([_table(rows, shape) for rows, shape in runs],
                     keep_tombstones=keep_tombstones)
    want = _fold(runs, keep_tombstones)
    cols = ["repo", "path", "_lsn", "_op", "content", "x"]
    if any(shape == "typed" for _, shape in runs):
        assert got.schema.field("x").type == pa.int64()
    rows = got.to_pylist()
    assert [{c: r.get(c) for c in cols} for r in rows] == \
        [{c: r[c] for c in cols} for r in want]
    assert got.schema.metadata is None


def test_equal_lsn_later_file_wins():
    older = _table([{"repo": "r", "path": "p", "_lsn": 7, "_op": "U",
                     "content": "old", "x": 1}], "typed")
    newer = _table([{"repo": "r", "path": "p", "_lsn": 7, "_op": "U",
                     "content": "new", "x": 2}], "typed")
    assert merge_runs([older, newer])["content"].to_pylist() == ["new"]
    assert merge_runs([newer, older])["content"].to_pylist() == ["old"]


@pytest.mark.parametrize("keep", [False, True])
def test_tombstone_winner(keep):
    live = _table([{"repo": "r", "path": "p", "_lsn": 1, "_op": "U",
                    "content": "v", "x": None}], "typed")
    dead = _table([{"repo": "r", "path": "p", "_lsn": 2, "_op": "D",
                    "content": "", "x": None}], "chunk")
    out = merge_runs([live, dead], keep_tombstones=keep)
    assert out["_op"].to_pylist() == (["D"] if keep else [])


def test_empty_inputs():
    assert merge_runs([]).num_rows == 0
    empty = _table([], "typed").replace_schema_metadata({b"k": b"v"})
    out = merge_runs([empty, empty])
    assert out.num_rows == 0 and out.schema.metadata is None
    assert out.column_names == empty.column_names
