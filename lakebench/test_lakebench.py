"""Tests of the benchmark's reference fold and of its output checks.

    python3 -m pytest lakebench -q        # from the root of a checkout

The check tests run the engine once on a small fixture, confirm the
check passes on that lake, then corrupt copies of it and confirm the
check fails on each.
"""

from __future__ import annotations

import glob
import os
import shutil
import sys

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.dirname(HERE)]

import inputs  # noqa: E402
import reference as refm  # noqa: E402
from workloads import Workload  # noqa: E402

SMALL = Workload(name="small", why="tests", n_keys=500, n_events=3_000,
                 epoch_size=1_000, num_partitions=4, corrupt_rate=0.02)


@pytest.fixture(scope="module")
def fixture(tmp_path_factory) -> str:
    d = str(tmp_path_factory.mktemp("inputs"))
    inputs.make_inputs(d, SMALL, seed=5)
    return d


@pytest.fixture(scope="module")
def ref(fixture) -> refm.Reference:
    return refm.Reference(*refm.load_inputs(fixture))


@pytest.mark.parametrize("upto", [1_500, 3_000])
def test_reference_fold_equals_oracle(fixture, ref, upto):
    from thor_ray import oracle

    base, events = refm.load_inputs(fixture)
    want, _ = oracle.apply_events(
        events.filter(pc.less_equal(events["lsn"], upto)), base)
    got = ref.fold(upto)
    assert list(got.columns) == list(want.columns)
    assert len(got.columns) > 5, "the fixture's DDLs add evolved columns"
    assert refm.check_table(got, want, "fold", check_sha=False) == []


def test_invalid_lsns_are_the_corrupt_events(fixture, ref):
    _, events = refm.load_inputs(fixture)
    bad = events.filter(pc.equal(events["repo"], "bad/repo"))
    assert ref.invalid_lsns() >= set(bad["lsn"].to_pylist())
    assert len(ref.invalid_lsns()) > 10


@pytest.fixture(scope="module")
def lake(fixture, tmp_path_factory):
    import ray
    from thor_ray.pipelines.cdc import CdcConfig, CdcPipeline

    ray.init(num_cpus=2, include_dashboard=False, logging_level="ERROR",
             log_to_driver=False)
    try:
        d = str(tmp_path_factory.mktemp("lake") / "lake")
        # copy-on-write: one state file per partition, so editing a file
        # edits the live rows
        CdcPipeline(CdcConfig(
            lake_dir=d, binlog_dir=os.path.join(fixture, "binlog"),
            num_partitions=SMALL.num_partitions,
            epoch_size=SMALL.epoch_size, write_mode="cow",
        )).run(base=os.path.join(fixture, "base.parquet"))
        yield d
    finally:
        ray.shutdown()


def problems(lake_dir: str, ref: refm.Reference) -> list[str]:
    from thor_ray.sources.lake import read_lake

    scan = read_lake(lake_dir, keep_internal=True).to_pandas()
    return (refm.check_table(scan, ref.fold(SMALL.n_events), "scan",
                             check_sha=True)
            + refm.check_dlq(lake_dir, ref.invalid_lsns()))


def corrupted_copy(lake: str, tmp_path, edit) -> str:
    """A copy of ``lake`` with ``edit(table) -> table`` applied to the
    first state file that holds a live row."""
    d = str(tmp_path / "copy")
    shutil.copytree(lake, d)
    for f in sorted(glob.glob(os.path.join(d, "part=*", "*.parquet"))):
        t = pq.read_table(f)
        if t.num_rows and "U" in t["_op"].to_pylist():
            pq.write_table(edit(t), f)
            return d
    raise AssertionError("no state file with a live row")


def first_live(t: pa.Table) -> int:
    return t["_op"].to_pylist().index("U")


def test_check_passes_on_the_engine_lake(lake, ref):
    assert problems(lake, ref) == []


def test_check_catches_altered_content(lake, ref, tmp_path):
    def edit(t):
        i = first_live(t)
        content = t["content"].to_pylist()
        content[i] += " "
        return t.set_column(t.schema.get_field_index("content"), "content",
                            pa.array(content, t.schema.field("content").type))

    found = problems(corrupted_copy(lake, tmp_path, edit), ref)
    assert any("content digest" in p for p in found), found
    assert any("_sha" in p for p in found), found


def test_check_catches_a_deleted_live_key(lake, ref, tmp_path):
    def edit(t):
        i = first_live(t)
        return pa.concat_tables([t.slice(0, i), t.slice(i + 1)])

    found = problems(corrupted_copy(lake, tmp_path, edit), ref)
    assert any("reference keys missing" in p for p in found), found


def test_check_catches_a_removed_dlq_row(lake, ref, tmp_path):
    d = str(tmp_path / "copy")
    shutil.copytree(lake, d)
    files = sorted(glob.glob(os.path.join(d, "_dlq", "*.parquet")))
    lsn = pq.read_table(files[0])["lsn"][0].as_py()
    # a duplicate delivery of the event may sit in another DLQ file too
    for f in files:
        t = pq.read_table(f)
        pq.write_table(t.filter(pc.not_equal(t["lsn"], lsn)), f)
    found = problems(d, ref)
    assert any(p.startswith("dlq:") for p in found), found


def test_input_digest_ignores_string_type_but_not_values(fixture, tmp_path):
    d = str(tmp_path / "copy")
    shutil.copytree(fixture, d)
    want = inputs.value_digest(d)
    base = os.path.join(d, "base.parquet")
    t = pq.read_table(base)
    i = t.schema.get_field_index("content")
    pq.write_table(t.set_column(i, "content", t["content"].cast(pa.string())),
                   base)
    assert inputs.value_digest(d) == want
    content = t["content"].to_pylist()
    content[0] += " "
    pq.write_table(t.set_column(i, "content", pa.array(content)), base)
    assert inputs.value_digest(d) != want


def test_benchmark_json_matches_the_benchmark():
    import json

    from worker import METRIC_UNITS
    from workloads import WORKLOADS

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"] + spec["per_layer"]
    assert {m["name"]: m["unit"] for m in metrics} == METRIC_UNITS
    for w in spec["workloads"]:
        assert WORKLOADS[w["name"]].why == w["why"]
