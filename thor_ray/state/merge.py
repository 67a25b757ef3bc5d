"""The lake's one merge-on-read rule, as an Arrow kernel.

A partition's file run is an LSM run: every file carries ``repo``/``path``
keys plus ``_lsn`` (last-writer lsn) and ``_op`` ('U' live / 'D'
tombstone). Reading the run means: the newest ``_lsn`` per key wins, and
of two rows of one key with the SAME ``_lsn`` the one from the later file
wins; winning tombstones then drop. Every lake reader (merge-on-read
scans, point lookups, apply-side state reads, the changefeed base fold,
branch diffs) folds through :func:`merge_runs`.

The per-row work stays in Arrow and numpy: the keys become dictionary
codes, one stable lexsort orders (key, ``_lsn``, concat position), and a
single ``take`` gathers the winners — payload columns are never sorted or
converted to Python objects. Imports pyarrow and numpy only, so any task
can use it without loading the pipeline modules."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def dict_codes(col: "pa.ChunkedArray") -> tuple[np.ndarray, int]:
    """(global dictionary codes, dictionary size) for a string column —
    combined first so codes are table-global, not per-chunk."""
    arr = col.combine_chunks()
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.chunk(0) if arr.num_chunks else pa.array([], type=pa.string())
    d = pc.dictionary_encode(pc.fill_null(arr, ""))  # null key ≙ ""
    return np.asarray(d.indices, dtype=np.int64), len(d.dictionary)


def merge_runs(tables: "list[pa.Table]",
               keep_tombstones: bool = False) -> pa.Table:
    """LSM merge of one partition's file run, oldest file first: the
    newest ``_lsn`` row per (repo, path) wins, equal ``_lsn`` ties go to
    the later table, and winning 'D' rows drop unless ``keep_tombstones``
    (an incremental snapshot in progress keeps them, so a delete keeps
    outranking a base-image chunk row that lands later).

    Tables concatenate with permissive promotion: a snapshot-chunk file
    carries only the base columns, and its rows get typed nulls in the
    evolved columns — the oracle's value for a base row after an
    add_column. The result carries no schema metadata (it is no one
    file's footer). Winners come out in (``_lsn``, concat position)
    order, the order a stable sort on ``_lsn`` leaves them in."""
    if not tables:
        return pa.table({})
    t = pa.concat_tables(tables, promote_options="permissive") \
        .replace_schema_metadata(None)
    n = t.num_rows
    if n == 0:
        return t
    rc, _ = dict_codes(t["repo"])
    pcc, pcard = dict_codes(t["path"])
    key = rc * pcard + pcc
    lsn = np.asarray(pc.fill_null(t["_lsn"], 0).to_numpy(), dtype=np.int64)
    # np.lexsort is stable: rows equal on (key, _lsn) keep concat order,
    # so the last row of each key run is the later file's on a tie
    order = np.lexsort((lsn, key))
    ks = key[order]
    last = np.empty(n, dtype=bool)
    last[-1] = True
    np.not_equal(ks[1:], ks[:-1], out=last[:-1])
    win = order[last]
    if not keep_tombstones and "_op" in t.column_names:
        dead = pc.fill_null(pc.equal(t["_op"], "D"), False).to_numpy()
        win = win[~dead[win]]
    win = win[np.lexsort((win, lsn[win]))]
    return t.take(win)
