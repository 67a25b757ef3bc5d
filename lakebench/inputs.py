"""Benchmark inputs: generated with ``thor_ray.gen.write_fixture`` from the
seed, and pinned by a digest of their values.

The digest hashes every value as text, so it does not change when a
column changes Arrow type (``string`` vs ``large_string``) but does
change when any value, row or file changes.
"""

from __future__ import annotations

import glob
import hashlib
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from workloads import Workload

HERE = os.path.dirname(os.path.abspath(__file__))
README = os.path.join(HERE, "README.md")

# The canary: every workload's generator knobs at a pinned seed and a
# tenth of the size. Every run regenerates it and checks its digest, so a
# change to the generator shows whatever seed the run was given.
CANARY_SEED = 0
CANARY_DIV = 10


def binlog_config(w: Workload, seed: int, div: int = 1):
    from thor_ray import gen

    return gen.BinlogConfig(
        n_events=w.n_events // div, n_shards=8, dup_rate=0.05,
        shuffle_window=512, ddl_every=w.ddl_period // div,
        corrupt_rate=w.corrupt_rate, seed=seed)


def make_inputs(out_dir: str, w: Workload, seed: int, div: int = 1) -> dict:
    """Write base.parquet and binlog/ for workload ``w`` under ``out_dir``."""
    from thor_ray import gen

    return gen.write_fixture(out_dir, n_keys=w.n_keys // div,
                             cfg=binlog_config(w, seed, div), seed=seed)


def input_files(fixture_dir: str) -> list[str]:
    return [os.path.join(fixture_dir, "base.parquet")] + sorted(
        glob.glob(os.path.join(fixture_dir, "binlog", "*.parquet")))


def _column_bytes(col: pa.ChunkedArray) -> tuple[bytes, bytes]:
    """(lengths, value bytes) of a column rendered as text; null = -1."""
    txt = pc.cast(col, pa.large_string()).combine_chunks()
    lengths = pc.fill_null(pc.binary_length(txt), -1).to_numpy()
    offs = np.frombuffer(txt.buffers()[1], dtype=np.int64,
                         count=len(txt) + 1, offset=txt.offset * 8)
    data = txt.buffers()[2]
    body = b"" if data is None else data.to_pybytes()[offs[0]:offs[-1]]
    return lengths.astype("<i8").tobytes(), body


def value_digest(fixture_dir: str) -> str:
    h = hashlib.sha256()
    for path in input_files(fixture_dir):
        t = pq.read_table(path)
        h.update(os.path.relpath(path, fixture_dir).encode() + b"\0")
        for name in t.column_names:
            lengths, body = _column_bytes(t.column(name))
            h.update(name.encode() + b"\0")
            h.update(lengths)
            h.update(body)
    return h.hexdigest()


_ROW = re.compile(r"^\|\s*([a-z_]+)\s*\|\s*(canary|\d+)\s*\|\s*([0-9a-f]{64})\s*\|\s*$")


def recorded_digests(readme: str = README) -> dict[tuple[str, str], str]:
    """{(workload, seed or "canary"): digest} from the README's table."""
    out = {}
    with open(readme) as f:
        for line in f:
            m = _ROW.match(line.strip())
            if m:
                out[(m.group(1), m.group(2))] = m.group(3)
    return out
