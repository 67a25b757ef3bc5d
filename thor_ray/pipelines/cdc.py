"""The flagship CDC apply pipeline (SURVEY.md §3.2 lifecycle).

Per epoch, expressed Ray-Data-first:

  TAIL    read_parquet(shards, filter=lsn∈(lo,hi] ∧ op≠DDL)      (pushdown)
  SMT     stateless map_batches chain: DLQ split, routing         (tasks)
  ROUTE   pid = stable_hash(repo,path) % P                        (map_batches)
  SHUFFLE the single wide step per epoch: the spill exchange (shared
          directory) or a sort on pid ranges (object store only)
  APPLY   per pid: watermark-drop → lsn-dedup → last-writer-wins in
          Arrow/numpy (_reduce_slot_events), then merge with partition
          state, DDL applied in lsn order (_fold_pids)
                                    (plain Ray tasks, one per spill slot)
  COMMIT  deterministic per-(pid,epoch) state file + atomic
          manifest swap — the only commit point (exactly-once)
  METRICS per-partition lineage + events/s JSON per epoch

Correctness contract: replaying the full binlog reproduces
``thor_ray.oracle.apply_events`` exactly (per-row sha256(content) equality,
BASELINE.json:15), under injected duplicates, bounded out-of-order delivery,
mid-stream DDL, forced checkpoint-restore, and epoch re-runs
(BASELINE.json:6).

Scale notes (SURVEY.md §4.2): the shuffle key is hash(repo,path) % P with
P ≫ workers; DDL events are broadcast driver-side (rare, tiny) instead of
shuffled; per-partition state is read/written inside the apply task from
shared storage, so no actor holds unbounded state and restore is "read the
manifests".
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data

from thor_ray.sources import binlog as binlog_src
from thor_ray.stages import chain as chain_mod
from thor_ray.stages.smt import stable_hash
from thor_ray.state import (Manifest, SchemaRegistry, archive_manifest,
                            gc_lake, load_manifests, prune_history,
                            read_snapshot_meta, snapshot_active,
                            write_manifest, write_snapshot_meta)
from thor_ray.state.merge import dict_codes, merge_runs
from thor_ray.state.storage import storage_for
from thor_ray.state.tasks import fan_out, split

BASE_COLS = ["repo", "path", "commit", "lang", "content"]
# event columns the apply path needs — txn/ts/ddl are pruned at the read
APPLY_COLS = ["lsn", "op", "repo", "path", "commit", "lang", "content",
              "extra", "schema_ver", "shard"]


_EVOLVED_TYPES = {"string": pa.string(), "int64": pa.int64(),
                  "double": pa.float64()}


def _state_schema(evolved: list[str],
                  types: dict[str, str] | None = None) -> pa.Schema:
    """State-file schema. Evolved columns carry their registry type
    (alter_type widening changes it; values written under the narrower
    type cast losslessly at the next compact's write)."""
    tys = types or {}
    return pa.schema(
        [(c, pa.string()) for c in BASE_COLS]
        + [(c, _EVOLVED_TYPES[tys.get(c, "string")]) for c in evolved]
        + [("_lsn", pa.int64()), ("_sha", pa.string()), ("_op", pa.string())]
    )


_ROUTE_MIX = np.uint64(0x9E3779B97F4A7C15)


def _route(t: pa.Table, *, num_partitions: int, route: tuple | None,
           route_on: str, stages: tuple = ()) -> pa.Table:
    """The one router: demux filter (only this lake's route), then the
    DLQ/CHECK `stages`, then append pid = stable_hash(repo, path) % P.
    route_on='key' demuxes on the full (repo, path) key; 'repo' on the
    repo alone (all paths of a repo co-route — the Debezium table→topic
    shape)."""
    h = None
    if route is not None:
        # demux filter FIRST, so a corrupt event lands in exactly one
        # route's DLQ (null keys hash via fill_null → one route)
        hr = stable_hash(t, ["repo"] if route_on == "repo"
                         else ["repo", "path"])
        keep = route_of(hr, route[1]) == route[0]
        # key-routed fast path: reuse the full-key hash for pid. DLQ
        # stages drop rows without exposing the mask, and repo-routing
        # hashes a different column set — recompute.
        if route_on == "key" and not stages:
            h = hr[keep]
        t = t.filter(pa.array(keep))
    for s in stages:
        t = s(t)
    if h is None:
        h = stable_hash(t, ["repo", "path"])
    return t.append_column("pid", pa.array(h % num_partitions,
                                           type=pa.int64()))


def route_of(h: "np.ndarray", n_routes: int) -> "np.ndarray":
    """Demux route id from the stable key hash — an INDEPENDENT mix of the
    pid hash. Plain ``h % n_routes`` would correlate with ``pid = h % P``:
    whenever gcd(P, n_routes) > 1, every pid not ≡ route (mod gcd) would be
    permanently empty in that route's lake."""
    x = h.astype(np.uint64) * _ROUTE_MIX
    x ^= x >> np.uint64(31)
    return (x % np.uint64(n_routes)).astype(np.int64)


def _dlq_rules(update_mode: str = "full") -> list:
    """Event-validity rules shared by the ingest router's dead-letter
    split and replay_dlq's re-validation: a known DML verb, a present
    key, and content on full-image events (I/U in full mode; in patch
    mode a U with null content is a legal partial image, so only I
    requires content)."""
    no_content_ok = ["D"] if update_mode == "full" else ["D", "U"]
    return [
        lambda t: pc.is_in(t["op"], value_set=pa.array(["I", "U", "D"])),
        lambda t: pc.and_(pc.is_valid(t["repo"]), pc.is_valid(t["path"])),
        lambda t: pc.or_(pc.is_in(t["op"], value_set=pa.array(no_content_ok)),
                         pc.is_valid(t["content"])),
    ]


def _sha256_series(s: pd.Series) -> pd.Series:
    """Per-row sha256 hex of string content. hashlib is the floor (there is
    no batch sha256 kernel); the wins over the old ``.map(lambda ...)`` are
    skipping pandas' per-row dispatch and the redundant str() of values
    that are already str (BASELINE.md §3 'vectorize the apply inner loop')."""
    sha = hashlib.sha256
    return pd.Series(
        [sha((v if isinstance(v, str) else str(v)).encode()).hexdigest()
         for v in s.to_numpy()],
        index=s.index, dtype="object")


def _content_hash(shas: pd.Series) -> str:
    """Order-independent partition audit fingerprint: byte-wise XOR of the
    per-row sha256 digests — O(n) vectorized, no O(n log n) string sort +
    re-hash of the whole SHA set per epoch (the round-1 per-epoch CPU tax).
    XOR cancels identical digests (two rows with equal content), which is
    acceptable for an audit field — the strong invariant remains the
    per-row `_sha` column checked against the oracle."""
    if not len(shas):
        return ""
    import numpy as np
    a = np.frombuffer(bytes.fromhex("".join(shas.tolist())),
                      dtype=np.uint8).reshape(len(shas), 32)
    return np.bitwise_xor.reduce(a, axis=0).tobytes().hex()


@dataclass
class CdcConfig:
    lake_dir: str
    binlog_dir: str
    num_partitions: int = 64
    epoch_size: int = 250_000          # lsn per epoch (micro-batch width)
    compute_content_hash: bool = True  # manifest content_hash (incremental)
    dlq: bool = True
    # declarative CHECK constraints (data-quality gate, Connect
    # errors.tolerance DLQ + Debezium column-filter analogue): list of
    # (name, rule) pairs where rule is a vectorized
    # Callable[[pa.Table], BooleanArray] over the EVENT batch; events
    # failing any rule are dead-lettered (never applied, never silently
    # dropped) with a `_violation` column naming the first failed rule.
    # replay_dlq re-validates against the same constraints. Rules must
    # be null-safe (a null verdict counts as a violation) and op-aware
    # (e.g. exempt op='D' tombstones whose payload is null by contract).
    constraints: "list | None" = None
    metrics: bool = True
    # the epoch exchange, one per deployment shape:
    # "spill": Spark-style two-stage exchange through the filesystem —
    # stage 1 tasks split each block by pid-slot and write Arrow IPC spill
    # files (lz4), stage 2 applies them (plain Ray tasks, one per spill
    # slot). Both stages are embarrassingly parallel; measured to scale
    # where Ray's all-to-all ops flatten. Retries are safe: spill names are
    # content-derived (overwrite) and the apply's lsn-dedup absorbs
    # leftovers. MULTI-NODE REQUIREMENT: exchange_dir (default
    # <lake>/_exchange) must live on storage every node can reach
    # (S3/NFS/shared mount) — stage-2 tasks read spill files written by
    # stage-1 tasks on other nodes.
    # "sort": a sort on pid over explicit pid ranges (_pid_sort) through
    # Ray's object store with NO shared directory — the path for a
    # cluster without shared storage
    # (`bench.py --exchange`, shm lakes, 32 CPUs, 1M events: sort =
    # 0.67–0.70× spill at both 1M-row and 250k-row epochs; on a slow
    # shared disk the gap closes to ~parity because the disk bounds
    # both). Both exchanges reduce winners with the same Arrow reducer
    # (_fold_pids).
    shuffle: str = "spill"
    exchange_dir: str | None = None    # spill root (default <lake>/_exchange)
    # "cow": rewrite each partition's single state file per epoch (simple,
    # read-optimal). "delta": LSM write path — winners-only delta files with
    # tombstones, merge-on-read, compaction at DDL epochs or when the file
    # run exceeds compact_every (write-optimal for hot micro-batches).
    write_mode: str = "cow"
    compact_every: int = 8
    # delta-mode compaction policy: "count" folds a partition when its
    # level-0 run exceeds compact_every files; "size" folds when the
    # level-0 BYTES exceed compact_ratio × the base-file bytes (true
    # size-tiered LSM amortization — write amplification stays O(log)
    # under hot-key updates where count-based folding rewrites the whole
    # base over and over). compact_every remains the file-count backstop
    # under "size" (merge-on-read cost grows with file count even when
    # the bytes are small) — raise it when choosing the size policy.
    compact_policy: str = "count"
    compact_ratio: float = 1.0
    # >0: archive each partition's committed manifest per epoch under
    # _manifests/history so the lake is readable AS OF any retained epoch
    # (time travel: CdcPipeline.table_at / sources.lake.read_lake_at).
    # gc protects every file a retained snapshot still references; roughly
    # this many trailing epochs stay readable. 0 = off (no extra files).
    retain_snapshots: int = 0
    # overlap epoch N+1's read+route+spill (stage 1) with epoch N's apply
    # (stage 2): the two-stage barrier per epoch was the measured fixed
    # cost capping scaling efficiency (BASELINE.md §3). Spill mode only.
    pipeline_epochs: bool = True
    # writer fencing (zombie-writer protection): the pipeline takes a
    # monotonically increasing writer generation before its first commit
    # and every later commit verifies the token is still its own — a
    # paused driver that resumes after a newer writer took over the lake
    # raises FencedWriterError instead of swapping stale manifests.
    fencing: bool = True
    # JSONL wire tiers only: "fail" (default) raises on a malformed shard
    # line; "dlq" keeps well-formed lines and records bad ones under
    # <binlog>/_parse_dlq/ (Kafka Connect errors.tolerance=all analogue).
    text_errors: str = "fail"
    # transaction-atomic epoch boundaries (the Debezium/Connect
    # "transaction boundary" contract): never commit a watermark that
    # splits a multi-event transaction across epochs — the epoch's upper
    # bound is clamped to the last complete txn (binlog_src.txn_boundary)
    # and the deferred tail applies in the next epoch. Assumes a
    # commit-ordered binlog (txns contiguous in lsn — MySQL-binlog-style).
    # Disables pipeline_epochs (stage-1 prespill uses grid bounds, which a
    # data-dependent boundary would invalidate).
    txn_atomic: bool = False
    # DDL compatibility enforcement (Confluent-schema-registry analogue):
    # "none" folds every DDL; "additive" rejects drop_column /
    # rename_column / narrowing alter_type — rejected DDLs keep their
    # registry slot (schema_ver numbering is load-bearing for event
    # decode) but have NO effect, and are counted in epoch metrics as
    # ddl_rejected. Values writers send under a rejected evolution
    # (e.g. a column name from a rejected rename) are discarded, exactly
    # as the oracle (thor_ray.oracle.apply_events(ddl_policy=...)) does.
    ddl_policy: str = "none"
    # "full": a U event carries the whole row image (last-writer-wins on
    # the row). "patch": a U event is a PARTIAL image (Debezium/Hudi
    # partial update): null commit/lang/content = unchanged, and `extra`
    # carries only the evolved columns being set — the apply folds
    # per-COLUMN last-non-null after each key's last reset (I = full
    # image, D = clear), then inherits still-unset columns from the
    # partition's prior state. A patch can never set a column to null
    # (the standard partial-image limitation), and in patch mode only I
    # events require content (U with null content is legal, not DLQ).
    # Patch folding is inherently multi-event-per-key, so the epoch
    # reduction gathers kept events rather than last-wins winners, and
    # delta mode reads prior state each epoch to materialize full rows
    # (merge-on-read stays wholesale-row; blooms/changefeed/time travel
    # are untouched).
    update_mode: str = "full"
    # (route_id, n_routes): demux tier — this pipeline applies ONLY events
    # whose key hashes to route_id (Kafka-Connect topic-routing analogue:
    # one binlog fans out into n_routes independent exactly-once lakes; run
    # one CdcPipeline per route). DDL events fold into EVERY route's
    # registry; watermarks stay whole-log (skipping another route's events
    # is intentional, not loss). None = single-lake (all keys).
    route: "tuple[int, int] | None" = None
    # what the demux hashes: "key" = the full (repo, path) key (uniform
    # fan-out); "repo" = the repo ONLY — every path of a repo lands in the
    # same lake, the Debezium table→topic shape (repo ≙ source table,
    # path ≙ primary key), so per-repo consumers read one lake. pid
    # routing inside a lake always uses the full key hash regardless.
    route_on: str = "key"

    def __post_init__(self) -> None:
        if self.update_mode not in ("full", "patch"):
            raise ValueError(f"update_mode must be 'full' or 'patch', "
                             f"got {self.update_mode!r}")
        if self.compact_policy not in ("count", "size"):
            raise ValueError(f"compact_policy must be 'count' or 'size', "
                             f"got {self.compact_policy!r}")
        if self.shuffle not in ("spill", "sort"):
            raise ValueError(f"shuffle must be 'spill' or 'sort', "
                             f"got {self.shuffle!r}")
        if self.route_on not in ("key", "repo"):
            raise ValueError(f"route_on must be 'key' or 'repo', "
                             f"got {self.route_on!r}")
        if self.route is not None:
            rid, nr = self.route
            if not (nr >= 1 and 0 <= rid < nr):
                raise ValueError(f"route must be (route_id, n_routes) with "
                                 f"0 <= route_id < n_routes, got {self.route}")

    def exchange_root(self) -> str:
        return self.exchange_dir or os.path.join(self.lake_dir, "_exchange")

    def n_apply_blocks(self) -> int:
        """Apply task count: spill slots / sort pid ranges. At most one
        per pid, so no apply task is left without a pid."""
        ncpu = int(ray.cluster_resources().get("CPU", 8))
        return min(self.num_partitions, max(8, ncpu * 2))

    def n_read_blocks(self) -> int:
        """Explicit read block count: Ray's default splitting makes hundreds
        of ~1k-row blocks for a filtered epoch read, and the sort shuffle's
        per-block overhead then dominates (measured 6.5s → 1.4s at 32 CPUs
        by fixing the block count to 2×CPU)."""
        return int(ray.cluster_resources().get("CPU", 8)) * 2


@dataclass
class EpochReport:
    epoch: int
    lo: int
    hi: int
    n_events: int
    n_applied: dict = field(default_factory=dict)
    wall_sec: float = 0.0
    events_per_sec: float = 0.0
    # ddl/spill/fold/apply/commit seconds. apply is the whole exchange
    # (stage 1 when not prespilled, stage 2, spill cleanup); spill is
    # stage 1's own wall and fold the stage-2 task wall. Under
    # pipeline_epochs an epoch's spill ran during the previous epoch's
    # fold, so it is not part of this epoch's apply. The sort exchange
    # reports spill 0 and fold = apply (exchange and fold are one job).
    phase_sec: dict = field(default_factory=dict)


# ----------------------------------------------------------------------------
# per-partition apply (runs inside the exchange's apply tasks)
# ----------------------------------------------------------------------------

def _spill_stage1(t: pa.Table, *, ex_dir: str, n_slots: int) -> pa.Table:
    """Write this block's rows into per-slot Arrow IPC spill files.

    slot = pid % n_slots. File names are content-derived (lsn digest), so a
    retried task overwrites its own output instead of duplicating."""
    import numpy as np

    pid = t["pid"].to_numpy()
    slots = pid % n_slots
    lsns = t["lsn"].to_numpy()
    order = np.argsort(slots, kind="stable")
    # ONE gather then zero-copy slices per slot: a scattered take() per
    # slot on a multi-chunk block (filtered parquet reads arrive with one
    # chunk per row group) measured 55 ms per 2k-row take — 3.5 s per
    # block, the round-2 scaling bottleneck; this form is ~40× cheaper
    sorted_t = t.take(pa.array(order))
    sorted_slots = slots[order]
    bounds = np.searchsorted(sorted_slots, np.arange(n_slots + 1))
    counts = {"slot": [], "rows": []}
    for s in np.unique(sorted_slots):
        sub = sorted_t.slice(bounds[s], bounds[s + 1] - bounds[s])
        sl = lsns[order[bounds[s] : bounds[s + 1]]]
        # full-content digest: (count,min,max,xor) alone can collide between
        # two blocks of the same slot and silently clobber rows
        digest = hashlib.sha256(np.sort(sl).tobytes()).hexdigest()[:20]
        d = os.path.join(ex_dir, f"slot={int(s):05d}")
        storage_for(d).makedirs(d)   # scheme-routed exchange dirs work too
        path = os.path.join(d, f"b-{digest}.arrow")

        def stage(tmp: str, sub=sub) -> None:
            # lz4 trades bytes for (parallelizable) CPU: text payloads
            # shrink ~3x, and the exchange is bandwidth-bound once
            # compute vectorizes
            opts = pa.ipc.IpcWriteOptions(compression="lz4")
            with pa.OSFile(tmp, "wb") as f:
                with pa.ipc.new_stream(f, sub.schema, options=opts) as w:
                    w.write_table(sub)

        # durable=False: spill blocks are transient intra-epoch exchange
        # state — a crash recomputes them; fsync here is pure hot-path tax
        storage_for(path).put_atomic(path, stage, durable=False)
        counts["slot"].append(int(s))
        counts["rows"].append(len(sl))
    return pa.table(counts, schema=pa.schema([("slot", pa.int64()),
                                              ("rows", pa.int64())]))


def _reduce_slot_events(t: pa.Table, *, ctx: dict, num_partitions: int
                        ) -> dict[int, tuple[pd.DataFrame, dict]]:
    """Vectorized Arrow/numpy reduction of one slot's epoch events to
    per-pid (winners, stats) WITHOUT materializing the events as pandas:
    a full epoch's to_pandas() builds millions of Python strings (the
    round-2 apply bottleneck); only the last-writer-wins winners — bounded
    by keys touched, not events — cross into Python objects.

    Reproduces the pandas reduction exactly: watermark drop, per-pid lsn
    dedup (keep first), last-wins per (pid, repo, path), op counts and
    shard sets over the deduped events."""
    import numpy as np

    if t.num_rows == 0:
        return {}

    # index-space reduction: the table itself is NEVER sorted or gathered
    # wholesale (a full-slot take copies the whole content payload — ~7 GB
    # per 8M-event epoch); only the key/lsn/op/shard columns become numpy,
    # and the single take at the end gathers winners only
    pid0 = t["pid"].to_numpy()
    lsn0 = t["lsn"].to_numpy()
    n = len(pid0)
    order = np.lexsort((lsn0, pid0))  # pid primary, lsn secondary
    pid = pid0[order]
    lsn = lsn0[order]
    wm = np.zeros(num_partitions, dtype=np.int64)
    for p, m in ctx["manifests"].items():
        wm[int(p)] = m["upto_lsn"]
    valid = lsn > wm[pid]
    dup = np.zeros(n, dtype=bool)
    if n > 1:
        dup[1:] = (pid[1:] == pid[:-1]) & (lsn[1:] == lsn[:-1])
    dup &= valid
    keep = valid & ~dup

    def percount(mask) -> np.ndarray:
        return np.bincount(pid[mask], minlength=num_partitions)

    n_in = percount(slice(None))
    n_wm = percount(~valid)
    n_dup = percount(dup)
    op_arr = t["op"].combine_chunks()
    if isinstance(op_arr, pa.ChunkedArray):
        op_arr = op_arr.chunk(0)
    op_d = pc.dictionary_encode(pc.fill_null(op_arr, ""))
    oc = np.asarray(op_d.indices)[order]
    opvals = op_d.dictionary.to_pylist()
    op_counts = {v: percount(keep & (oc == i)) for i, v in enumerate(opvals)}
    # shard sets: match the pandas path's dropna() — null shards (float
    # NaN after to_numpy) must not be packed (NaN→int64 is platform UB)
    shard_raw = t["shard"].to_numpy(zero_copy_only=False)[order]
    sh_ok = keep.copy()
    if shard_raw.dtype.kind == "f":
        sh_ok &= ~np.isnan(shard_raw)
    shard_np = np.where(sh_ok, shard_raw, 0).astype(np.int64)
    sh_ok &= shard_np >= 0  # negative sentinel would corrupt the pid pack
    pk = np.unique((pid[sh_ok].astype(np.int64) << np.int64(32))
                   | shard_np[sh_ok])
    shard_sets: dict[int, list[int]] = {}
    for v in pk:
        shard_sets.setdefault(int(v >> 32), []).append(int(v & 0xFFFFFFFF))

    def stats_of(p: int) -> dict:
        return {
            "n_I": int(op_counts["I"][p]) if "I" in op_counts else 0,
            "n_U": int(op_counts["U"][p]) if "U" in op_counts else 0,
            "n_D": int(op_counts["D"][p]) if "D" in op_counts else 0,
            "n_dup": int(n_dup[p]), "n_wm_dropped": int(n_wm[p]),
            "n_events": int(n_in[p]), "shards": sorted(shard_sets.get(p, [])),
        }

    if ctx.get("update_mode") == "patch":
        # patch folding needs every kept event per key (per-column
        # last-non-null), not just the last row — gather kept rows once
        # (epoch-sized content copy, patch mode only) and fold vectorized
        kept_t = t.take(pa.array(order[np.flatnonzero(keep)]))
        pdf = _patch_fold_table(kept_t, ctx["all_entries"])
        pgroups = {int(p): g for p, g in pdf.groupby("pid", sort=True)}
        return {int(p): (pgroups.get(int(p), pdf.iloc[0:0]), stats_of(int(p)))
                for p in np.flatnonzero(n_in > 0)}

    # last-wins winners per (pid, key): dictionary-encode the key columns
    # (C-level; combined so codes are table-global), combine to one int64,
    # take the LAST occurrence in (pid, lsn) order via np.unique reversed
    rc, repo_card = dict_codes(t["repo"])
    pcc, path_card = dict_codes(t["path"])
    key = (rc * np.int64(path_card + 1) + pcc)[order]
    kidx = np.flatnonzero(keep)
    key_bound = np.int64(repo_card + 1) * np.int64(path_card + 1)
    pid_max = int(pid[-1]) if n else 0
    if (pid_max + 1) * int(key_bound) < (1 << 62):
        combo = pid[kidx].astype(np.int64) * key_bound + key[kidx]
        _, first_rev = np.unique(combo[::-1], return_index=True)
    else:
        # overflow-safe fallback (huge slots): structured unique — slower,
        # never silently collides
        arr = np.empty(len(kidx), dtype=[("p", "i8"), ("k", "i8")])
        arr["p"], arr["k"] = pid[kidx], key[kidx]
        _, first_rev = np.unique(arr[::-1], return_index=True)
    win_sorted_pos = np.sort(kidx[len(kidx) - 1 - first_rev])
    winners_t = t.take(pa.array(order[win_sorted_pos]))
    wdf = winners_t.to_pandas()  # winners only — small
    out: dict[int, tuple[pd.DataFrame, dict]] = {}
    groups = {int(p): g for p, g in wdf.groupby("pid", sort=True)}
    for p in np.flatnonzero(n_in > 0):
        p = int(p)
        out[p] = (groups.get(p, wdf.iloc[0:0]), stats_of(p))
    return out


_EMPTY_STATS = {"n_I": 0, "n_U": 0, "n_D": 0, "n_dup": 0,
                "n_wm_dropped": 0, "n_events": 0, "shards": []}
# winners of a pid with no events this epoch (_fold_partition copies
# before it mutates, so one shared frame is safe)
_EMPTY_WINNERS = pd.DataFrame(
    {c: pd.Series(dtype="object") for c in APPLY_COLS}
    | {"lsn": pd.Series(dtype="int64"), "schema_ver": pd.Series(dtype="int64"),
       "pid": pd.Series(dtype="int64")})


_PATCH_COLS = ["lsn", "op", "repo", "path", "commit", "lang", "content",
               "extra", "schema_ver", "pid", "_reset"]


def _patch_fold_table(t: pa.Table, all_entries: list) -> pd.DataFrame:
    """Patch-mode epoch reduction: ONE folded row per (pid, repo, path).

    Input: KEPT events (already watermark-filtered and lsn-deduped) of one
    or more pids, any order, APPLY_COLS+pid. Semantics (mirrors
    oracle.apply_events(update_mode="patch")): within a key's lsn-ordered
    event sequence, I is a full-image reset, D clears the row, and each U
    sets only its non-null commit/lang/content plus the evolved columns
    present (non-null) in `extra`. The fold is per-column last-non-null
    AFTER the key's last reset, falling back to the reset row's literal
    value when the reset is an I. Output rows carry:

      op          "D" iff the key's LAST kept event is a delete, else "U"
      lsn         the key's max kept lsn
      extra       the MERGED evolved mapping, re-serialized in FINAL-name
                  space with schema_ver = the registry's final version
                  (so _materialize_evolved maps it through identity)
      _reset      False = pure patch: columns still null must inherit from
                  the partition's prior state (_fold_partition resolves)

    Vectorized in index space like _reduce_slot_events: per-column
    last-non-null via np.maximum.at over sorted positions; only
    winner-sized gathers touch Python objects. The evolved `extra` merge
    is a Python loop, but only over reset rows and rows carrying a
    non-trivial extra — zero when no DDL has ever run."""
    import numpy as np

    if t.num_rows == 0:
        return pd.DataFrame({c: pd.Series(dtype="object") for c in _PATCH_COLS})

    # all-null object columns arrive as arrow null type (from_pandas
    # inference); cast so fill_null / string kernels below are well-typed
    for c in ("op", "repo", "path", "commit", "lang", "content", "extra"):
        if pa.types.is_null(t.schema.field(c).type):
            t = t.set_column(t.schema.get_field_index(c), c,
                             t[c].cast(pa.string()))

    pid0 = t["pid"].to_numpy()
    lsn0 = t["lsn"].to_numpy()
    n = len(pid0)
    order = np.lexsort((lsn0, pid0))
    rc, _ = dict_codes(t["repo"])
    pcc, pcard = dict_codes(t["path"])
    # (pid, key) combo via structured unique — no overflow concern
    arr = np.empty(n, dtype=[("p", "i8"), ("k", "i8"), ("q", "i8")])
    arr["p"], arr["k"], arr["q"] = pid0[order], rc[order], pcc[order]
    _, cid = np.unique(arr, return_inverse=True)
    K = int(cid.max()) + 1
    pos = np.arange(n)

    op_arr = t["op"].combine_chunks()
    if isinstance(op_arr, pa.ChunkedArray):
        op_arr = op_arr.chunk(0) if op_arr.num_chunks else pa.array([], type=pa.string())
    od = pc.dictionary_encode(pc.fill_null(op_arr, ""))
    op_idx = np.asarray(od.indices, dtype=np.int64)[order]
    opvals = od.dictionary.to_pylist()
    i_code = opvals.index("I") if "I" in opvals else -2
    d_code = opvals.index("D") if "D" in opvals else -2

    reset_m = (op_idx == i_code) | (op_idx == d_code)
    lr = np.full(K, -1, dtype=np.int64)         # last reset pos per key
    np.maximum.at(lr, cid[reset_m], pos[reset_m])
    lastp = np.zeros(K, dtype=np.int64)         # last kept pos per key
    np.maximum.at(lastp, cid, pos)
    has_reset = lr >= 0
    reset_is_i = np.zeros(K, dtype=bool)
    reset_is_i[has_reset] = op_idx[lr[has_reset]] == i_code

    def gather(name: str, idxs: np.ndarray) -> list:
        """Column values at per-key source positions; -1 → None."""
        safe = np.where(idxs >= 0, idxs, 0)
        vals = t[name].take(pa.array(order[safe])).to_pylist()
        return [v if i >= 0 else None for v, i in zip(vals, idxs)]

    out: dict[str, list] = {
        "repo": gather("repo", lastp), "path": gather("path", lastp),
    }
    for c in ("commit", "lang", "content"):
        nullm = np.asarray(pc.is_null(t[c]).combine_chunks(),
                           dtype=bool)[order]
        validc = (~nullm) & (pos > lr[cid])
        w = np.full(K, -1, dtype=np.int64)
        np.maximum.at(w, cid[validc], pos[validc])
        src = np.where(w >= 0, w, np.where(reset_is_i, lr, -1))
        out[c] = gather(c, src)

    # merged evolved mapping in final-name space; rows that matter: resets
    # (I replaces the whole mapping, D clears it) + non-trivial patches
    ver_end = SchemaRegistry(all_entries).version
    extra_null = np.asarray(pc.is_null(t["extra"]).combine_chunks(),
                            dtype=bool)[order]
    extra_trivial = np.asarray(
        pc.equal(pc.fill_null(t["extra"].combine_chunks(), "{}"), "{}"),
        dtype=bool)[order]
    needs = reset_m | ~(extra_null | extra_trivial)
    extras: list[str] = ["{}"] * K
    if needs.any():
        registry = SchemaRegistry(all_entries)
        rename_cache: dict[int, dict[str, str]] = {}
        sel = np.flatnonzero(needs)               # pos order = lsn order
        e_vals = t["extra"].take(pa.array(order[sel])).to_pylist()
        v_vals = t["schema_ver"].take(pa.array(order[sel])).to_pylist()
        accs: dict[int, dict] = {}
        for sp, ex, ver in zip(sel, e_vals, v_vals):
            c = int(cid[sp])
            o = op_idx[sp]
            if o == d_code:
                accs[c] = {}
                continue
            ver = int(ver)
            m = rename_cache.get(ver)
            if m is None:
                m = registry.rename_into(ver)
                rename_cache[ver] = m
            vals = json.loads(ex) if ex else {}
            if o == i_code:                        # full replacement
                accs[c] = {m[k]: v for k, v in vals.items() if k in m}
            else:                                  # patch: non-null sets
                acc = accs.setdefault(c, {})
                acc.update({m[k]: v for k, v in vals.items()
                            if k in m and v is not None})
        for c, acc in accs.items():
            extras[c] = json.dumps(acc, sort_keys=True)

    # DDL defaults (add_column with "default"): the oracle backfills every
    # row PRESENT at the DDL lsn L. Keys present only via prior state are
    # handled by the backfilled-state inheritance (_reset=False); here we
    # inject for keys whose own epoch chain establishes presence at L —
    # last pre-L event is I/U (not D) — unless a post-L reset wipes the
    # row (I full image / D). Nothing can write the column before L (it
    # did not exist; strict rename mapping drops unknown keys), so
    # setdefault never overrides a real post-L write.
    registry_d = SchemaRegistry(all_entries)
    lsn0o = lsn0[order]
    for e in registry_d.entries:
        a = e["ddl"]
        if (e.get("rejected") or a["action"] != "add_column"
                or "default" not in a):
            continue
        fname = registry_d.rename_into(e["schema_ver"] + 1).get(a["name"])
        if not fname:
            continue
        L = e["lsn"]
        prem = lsn0o < L
        if not prem.any():
            continue
        lastpre = np.full(K, -1, dtype=np.int64)
        np.maximum.at(lastpre, cid[prem], pos[prem])
        present = (lastpre >= 0) & (op_idx[np.maximum(lastpre, 0)] != d_code)
        reset_after = has_reset.copy()
        reset_after[has_reset] = lsn0o[lr[has_reset]] > L
        for ck in np.flatnonzero(present & ~reset_after):
            acc = json.loads(extras[ck])
            if acc.get(fname) is None:
                acc[fname] = a["default"]
                extras[int(ck)] = json.dumps(acc, sort_keys=True)

    out["lsn"] = lsn0[order[lastp]].tolist()
    out["pid"] = pid0[order[lastp]].tolist()
    out["op"] = np.where(op_idx[lastp] == d_code, "D", "U").tolist()
    out["extra"] = extras
    out["schema_ver"] = [ver_end] * K
    out["_reset"] = has_reset.tolist()
    return pd.DataFrame(out, columns=_PATCH_COLS)


def _cleanup_exchange(ex_dir: str) -> None:
    """Remove a consumed epoch's spill directory (best effort — leftovers
    are transient and re-created deterministically). Plain paths use
    shutil; scheme paths delete through the resolved pyarrow filesystem."""
    if "://" not in ex_dir:
        import shutil as _shutil

        _shutil.rmtree(ex_dir, ignore_errors=True)
        return
    from thor_ray.state.storage import PyArrowFSStorage, storage_for

    store = storage_for(ex_dir)
    if isinstance(store, PyArrowFSStorage):
        try:
            store.fs.delete_dir(store._map(ex_dir))
        except (OSError, FileNotFoundError):
            pass


def _apply_slot(slots: list[int], *, ex_dir: str, ctx: dict,
                n_slots: int, num_partitions: int) -> pd.DataFrame:
    """Stage 2 of the spill exchange: each slot's files → apply every owned
    pid (slot s owns {p : p % n_slots == s})."""
    # scheme-routed exchange dirs (s3://, file://) list/read through the
    # storage layer — workers auto-resolve the scheme via pyarrow.fs;
    # plain paths keep the mmap-friendly OSFile fast path
    remote = "://" in ex_dir
    store = storage_for(ex_dir)
    outs = []
    for slot in slots:
        files = store.list(
            os.path.join(ex_dir, f"slot={slot:05d}", "b-*.arrow"))
        tables = []
        for f in files:
            if remote:
                tables.append(pa.ipc.open_stream(
                    pa.BufferReader(store.read_bytes(f))).read_all())
                continue
            with pa.OSFile(f, "rb") as fh:
                tables.append(pa.ipc.open_stream(fh).read_all())
        outs += _fold_pids(pa.concat_tables(tables) if tables else None,
                           range(slot, num_partitions, n_slots),
                           ctx=ctx, num_partitions=num_partitions)
    return pd.concat(outs, ignore_index=True)


def _fold_group(pids: list[int], *, ctx: dict,
                num_partitions: int) -> pd.DataFrame:
    """compact()'s task: fold each pid in `pids` with no new events."""
    return pd.concat(_fold_pids(None, pids, ctx=ctx,
                                num_partitions=num_partitions),
                     ignore_index=True)


def _pid_sort(ds: "ray.data.Dataset", num_partitions: int,
              n_ranges: int) -> "ray.data.Dataset":
    """The sort exchange: one output block per contiguous pid range, so
    every block holds whole pids. The cut points are explicit — Ray's
    sampled ones repeat when few distinct pids fall in a block, and each
    repeat is an empty block that Ray Data logs as a schema change."""
    k = min(num_partitions, n_ranges)
    return ds.sort("pid", boundaries=[num_partitions * i // k
                                      for i in range(1, k)])


def _write_pid_groups(ds: "ray.data.Dataset", router, num_partitions: int,
                      n_ranges: int, write) -> pd.DataFrame:
    """The state-writing exchange of bootstrap, snapshot chunks and
    repartition_lake: rows routed by `router`, with their key hash as
    `_kh` (the footer bloom's input, hashed next to the router so the
    write tasks never load the hash library), sorted into _pid_sort
    ranges, then `write(pid, rows)` per pid that has rows, each
    returning one result row (a dict)."""
    def route(t: pa.Table) -> pa.Table:
        t = router(t)
        return t.append_column(
            "_kh", pa.array(stable_hash(t, ["repo", "path"])))

    def block(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame([write(int(p), g) for p, g in b.groupby("pid")])

    return (_pid_sort(ds.map_batches(route, batch_format="pyarrow"),
                      num_partitions, n_ranges)
            .map_batches(block, batch_format="pandas", batch_size=None)
            .to_pandas())


def _apply_range(t: pa.Table, *, ctx: dict,
                 num_partitions: int) -> pd.DataFrame:
    """Apply of the sort exchange: one _pid_sort block — the routed events
    of a pid range plus one NOOP marker row per pid (the marker puts a pid
    in its block in an epoch where it got no events)."""
    pids = np.unique(t["pid"].to_numpy()).tolist()
    events = t.filter(pc.fill_null(pc.not_equal(t["op"], "NOOP"), True))
    return pd.concat(_fold_pids(events, pids, ctx=ctx,
                                num_partitions=num_partitions),
                     ignore_index=True)


def _fold_pids(events: pa.Table | None, pids, *, ctx: dict,
               num_partitions: int) -> list[pd.DataFrame]:
    """Reduce routed epoch events (APPLY_COLS + pid) to per-pid winners
    and fold every pid in `pids` into its state, one manifest-candidate
    row each — INCLUDING pids with no events (an empty fold advances the
    watermark and applies the epoch's DDL)."""
    reduced = {} if events is None else _reduce_slot_events(
        events, ctx=ctx, num_partitions=num_partitions)
    return [_fold_partition(*reduced.get(p, (_EMPTY_WINNERS, _EMPTY_STATS)),
                            ctx=ctx, pid=p) for p in pids]


def _fold_partition(winners: pd.DataFrame, stats: dict, *, ctx: dict,
                    pid: int) -> pd.DataFrame:
    """Merge pre-reduced last-writer-wins winners into the partition state.

    `winners` has one row per touched (repo, path) — the epoch's surviving
    event per key, lsn-ascending — with the APPLY_COLS columns, as
    _reduce_slot_events produces them."""
    man = ctx["manifests"].get(pid)
    ver_start = man["schema_ver"] if man else 0
    if ctx.get("preserve_position"):   # standalone compaction: watermarks
        epoch = man["epoch"] if man else 0   # and epochs must NOT move
        hi = man["upto_lsn"] if man else 0
    else:
        epoch, hi = ctx["epoch"], ctx["hi"]
    epoch_ddls: list[dict] = ctx["epoch_ddls"]
    registry = SchemaRegistry(ctx["all_entries"])
    ver_end = registry.version
    evolved_final = registry.columns_at(ver_end)
    types_final = registry.types_at(ver_end)

    # Guard by ver_start: on an epoch re-run (restore path) a partition that
    # already committed this epoch is at ver_end — re-applying add_column
    # would wipe its values. Only not-yet-seen transitions apply; policy-
    # rejected entries hold a version slot but have no state effect (and
    # must not force a delta-mode compaction).
    applied_ddls = [d for d in epoch_ddls
                    if d["schema_ver"] >= ver_start and not d.get("rejected")]
    mode = ctx.get("write_mode", "cow")
    compact_every = ctx.get("compact_every", 8)
    prior_files = man["files"] if man else []

    force = bool(ctx.get("force_compact")) and (
        len(prior_files) > 1 or bool(ctx.get("force_single")))
    changed = (len(winners) > 0) or bool(applied_ddls) or force
    if not changed:
        new_files, row_count, chash = prior_files, \
            (man["row_count"] if man else 0), (man["content_hash"] if man else "")
    else:
        winners = winners.copy()
        reset_np = (winners.pop("_reset").to_numpy(dtype=bool)
                    if "_reset" in winners.columns else None)
        wcols = _materialize_evolved(winners, registry, evolved_final)
        winners = winners[["repo", "path", "commit", "lang", "content", "op", "lsn"]]
        for c in evolved_final:
            winners[c] = wcols[c]
        state0: pd.DataFrame | None = None
        if reset_np is not None and (~reset_np).any():
            # patch mode: pure-patch winners (no I/D reset this epoch)
            # inherit still-null columns from the prior state, so every
            # written row is a FULL image (merge-on-read / changefeed /
            # time travel stay wholesale-row). Costs a state read per
            # epoch even in delta mode — the documented patch-mode tax.
            state0 = _state_with_ddls(prior_files, applied_ddls,
                                      registry.columns_at(ver_start))
            pure = ~reset_np
            cols_payload = ["commit", "lang", "content"] + evolved_final
            have = [c for c in cols_payload if c in state0.columns]
            j = winners.loc[pure, ["repo", "path"]].merge(
                state0[["repo", "path"] + have],
                on=["repo", "path"], how="left")
            for c in have:
                cur = winners.loc[pure, c].to_numpy(dtype=object)
                inh = j[c].to_numpy(dtype=object)
                winners.loc[pure, c] = np.where(pd.notna(cur), cur, inh)
        winners = winners.rename(columns={"lsn": "_lsn", "op": "_op"})
        winners["_sha"] = ""
        live = winners["_op"] != "D"
        winners.loc[live, "_sha"] = _sha256_series(winners.loc[live, "content"])

        out_dir = os.path.join(ctx["lake_dir"], f"part={pid:05d}")
        os.makedirs(out_dir, exist_ok=True)
        final_path = os.path.join(out_dir, f"state-e{epoch:06d}.parquet")
        # delta mode (LSM write path): append a winners-only delta file —
        # tombstones included — and merge on read; compact to a single file
        # when a DDL must rewrite schemas (keeps the per-partition file-set
        # schema-uniform), the level-0 run grows past compact_every, or —
        # under compact_policy="size" — the level-0 bytes outgrow
        # compact_ratio × the base file (size-tiered LSM amortization).
        size_trigger = False
        if (mode == "delta" and ctx.get("compact_policy") == "size"
                and len(prior_files) > 1):
            sizes = [os.path.getsize(f) for f in prior_files
                     if os.path.exists(f)]
            base_b = max(sizes, default=0)
            size_trigger = (sum(sizes) - base_b) > \
                ctx.get("compact_ratio", 1.0) * base_b
        compact = (mode != "delta") or bool(applied_ddls) \
            or (len(prior_files) + 1 > compact_every) \
            or size_trigger or force
        if compact:
            retain = bool(ctx.get("retain_tombstones"))
            state = state0 if state0 is not None else _state_with_ddls(
                prior_files, applied_ddls, registry.columns_at(ver_start),
                keep_tombstones=retain)
            # an incremental-snapshot chunk file carries only BASE_COLS;
            # evolved columns a DDL added in an EARLIER epoch exist in the
            # compacted sibling files but may be absent from a snap-only
            # concat — reindex so the selection below is total
            for c in evolved_final:
                if c not in state.columns:
                    state[c] = None
            merged = pd.concat(
                [state[BASE_COLS + evolved_final + ["_lsn", "_sha", "_op"]],
                 winners],
                ignore_index=True,
            )
            merged = merged.sort_values("_lsn", kind="stable").drop_duplicates(
                ["repo", "path"], keep="last")
            if retain:
                # incremental snapshot in progress: winning tombstones stay
                # in the compacted file (with their _lsn) so a base-image
                # chunk (_lsn=0) arriving later cannot resurrect a deleted
                # key; run_incremental's finalize drops them
                merged = merged.sort_values(["repo", "path"], kind="stable")
            else:
                merged = merged[merged["_op"] != "D"]
                merged = merged.assign(_op="U").sort_values(
                    ["repo", "path"], kind="stable")
            _write_state_file(merged, final_path, evolved_final, types_final)
            new_files, row_count = [final_path], len(merged)
            live_sha = merged.loc[merged["_op"] != "D", "_sha"] if retain \
                else merged["_sha"]
            chash = _content_hash(live_sha) if ctx["compute_content_hash"] else ""
        else:
            delta = winners.sort_values(["repo", "path"], kind="stable")
            _write_state_file(delta, final_path, evolved_final, types_final,
                              kind="delta")
            new_files, row_count, chash = prior_files + [final_path], -1, ""

    return pd.DataFrame(
        [{
            "pid": pid, "epoch": epoch, "upto_lsn": hi, "schema_ver": ver_end,
            "files": json.dumps(new_files), "row_count": row_count,
            "content_hash": chash,
            "n_I": stats["n_I"], "n_U": stats["n_U"], "n_D": stats["n_D"],
            "n_dup": stats["n_dup"], "n_wm_dropped": stats["n_wm_dropped"],
            "n_events": stats["n_events"],
            "input_shards": json.dumps(stats["shards"]),
        }]
    )


def _write_state_file(df: pd.DataFrame, final_path: str, evolved: list[str],
                      types: dict[str, str] | None = None,
                      kind: str = "full",
                      key_hash: "np.ndarray | None" = None) -> None:
    # cast only the non-object columns: astype costs ~0.5 ms a column
    # even when it changes nothing (bootstrap writes one file per pid)
    cast = {c: "object" for c in BASE_COLS + evolved if df[c].dtype != object}
    tbl = pa.Table.from_pandas(
        df.astype(cast) if cast else df,
        schema=_state_schema(evolved, types), preserve_index=False)
    # footer markers: thor_kind "delta" = one epoch's change rows (a
    # changefeed segment, read by sources.lake.read_changefeed); "full" =
    # a merged compaction product (whole-state, NOT changes). thor_bloom =
    # key bloom for point-lookup file skipping (state/bloom.py) — built
    # over ALL written rows incl. tombstones, with the lake's pinned
    # routing hash (one vectorized pass; negligible vs the parquet write).
    from thor_ray.state import bloom as _bloom
    from thor_ray.stages.smt import stable_hash
    kh = key_hash if key_hash is not None else stable_hash(pa.table({
        "repo": pa.array(df["repo"], pa.string()),
        "path": pa.array(df["path"], pa.string())}), ["repo", "path"])
    blob = _bloom.build(kh, impl=_hash_impl())
    tbl = tbl.replace_schema_metadata({
        b"thor_kind": kind.encode(),
        b"thor_bloom": _bloom.encode_footer(blob)})
    # deterministic final name: a retried task overwrites, never dups
    storage_for(final_path).put_atomic(
        final_path, lambda tmp: pq.write_table(tbl, tmp))


def _read_state(files: list[str], keep_tombstones: bool = False) -> pd.DataFrame:
    """Merge-on-read: newest (_lsn) row per key wins; tombstones drop
    (kept, still winning, while an incremental snapshot retains them)."""
    return merge_runs([pq.read_table(f) for f in files],
                      keep_tombstones=keep_tombstones).to_pandas()


def _state_with_ddls(prior_files: list[str], applied_ddls: list[dict],
                     start_cols: list[str],
                     keep_tombstones: bool = False) -> pd.DataFrame:
    """Prior partition state with this epoch's accepted DDLs folded in
    (column add → null, or the DDL's DEFAULT backfilled onto existing
    rows — MySQL ALTER ADD COLUMN semantics, later events unchanged;
    an incremental-snapshot chunk landing AFTER the DDL fold carries
    nulls, the same documented window rule as renames;
    drop → discarded, rename → carried over;
    alter_type values cast at the write — the output schema carries the
    widened type, nothing to do in-frame)."""
    state = _read_state(prior_files, keep_tombstones) if prior_files \
        else _empty_state(start_cols)
    for d in applied_ddls:
        a = d["ddl"]
        if a["action"] == "add_column":
            state[a["name"]] = a.get("default")
        elif a["action"] == "drop_column":
            state = state.drop(columns=[a["name"]], errors="ignore")
        elif a["action"] == "rename_column":
            state = state.rename(columns={a["name"]: a["new_name"]})
    return state


def _empty_state(evolved: list[str]) -> pd.DataFrame:
    return pd.DataFrame(
        {c: pd.Series(dtype="object") for c in BASE_COLS + evolved}
        | {"_lsn": pd.Series(dtype="int64"), "_sha": pd.Series(dtype="object"),
           "_op": pd.Series(dtype="object")}
    )


def _materialize_evolved(winners: pd.DataFrame, registry: SchemaRegistry,
                         evolved_final: list[str]) -> dict[str, list]:
    """Winner rows' evolved-column values: parse `extra` (full replacement at
    the event's schema version), mapping names through later renames.

    Python loop over *winners only* (≤ distinct keys touched per partition
    per epoch — already reduced by last-writer-wins), not over all events."""
    out: dict[str, list] = {c: [] for c in evolved_final}
    if not evolved_final:
        return out
    rename_cache: dict[int, dict[str, str]] = {}
    dflt_cache: dict[int, dict[str, object]] = {}

    def later_defaults(ver: int) -> dict[str, object]:
        """Columns ADDED after this event's version whose add_column DDL
        carries a DEFAULT: the row image written at `ver` predates the
        column, so the DDL backfill applies to it (same rule as prior
        state — the oracle folds in lsn order, event first, DDL after)."""
        d = dflt_cache.get(ver)
        if d is None:
            d = {}
            for e in registry.entries:
                a = e["ddl"]
                if (e["schema_ver"] >= ver and not e.get("rejected")
                        and a["action"] == "add_column"
                        and "default" in a):
                    fname = registry.rename_into(
                        e["schema_ver"] + 1).get(a["name"])
                    if fname:
                        d[fname] = a["default"]
            dflt_cache[ver] = d
        return d

    for extra, ver, op in zip(winners["extra"], winners["schema_ver"], winners["op"]):
        if op == "D" or extra is None or extra == "{}":
            ver = int(ver)
            dflt = None if op == "D" else later_defaults(ver)
            for c in evolved_final:
                out[c].append(None if op == "D" else dflt.get(c))
            continue
        ver = int(ver)
        m = rename_cache.get(ver)
        if m is None:
            m = registry.rename_into(ver)
            rename_cache[ver] = m
        vals = json.loads(extra)
        # strict mapping: a key absent from m was DROPPED after this event's
        # version — its value must not leak into a later same-named column
        row = {m[k]: v for k, v in vals.items() if k in m}
        dflt = later_defaults(ver)
        for c in evolved_final:
            v = row.get(c)
            out[c].append(v if v is not None else dflt.get(c))
    return out


# ----------------------------------------------------------------------------
# the pipeline driver object
# ----------------------------------------------------------------------------

def _hash_impl() -> str:
    # find_spec, not import: a state-file write handed its key hashes
    # (_write_pid_groups) must not pay the polars import (~0.16 s in a
    # fresh Ray worker)
    import importlib.util

    return "polars-xxh" if importlib.util.find_spec("polars") else "fnv1a"


class CdcPipeline:
    def __init__(self, cfg: CdcConfig):
        self.cfg = cfg
        self.reports: list[EpochReport] = []
        self.replay_wall_sec: float = 0.0  # epoch-loop wall of the last run()
        self._writer_gen: int | None = None  # fencing token (lazy)

    def _fence(self) -> None:
        """Acquire the writer generation on first commit; fail closed if a
        newer writer has taken the lake since (exactly-once under zombie
        drivers — see state/manifest.py fencing section)."""
        if not self.cfg.fencing:
            return
        from thor_ray.state import (FencedWriterError, acquire_writer_gen,
                                    current_writer_gen)
        if self._writer_gen is None:
            self._writer_gen = acquire_writer_gen(self.cfg.lake_dir)
            return
        cur = current_writer_gen(self.cfg.lake_dir)
        if cur != self._writer_gen:
            raise FencedWriterError(
                f"writer gen {self._writer_gen} superseded by {cur} on "
                f"{self.cfg.lake_dir}; this pipeline must stop")

    def _engine_meta(self, num_partitions: int) -> dict:
        """engine.json of a lake with `num_partitions` written under this
        config: what routes a key to its partition and its lake."""
        cfg = self.cfg
        return {"hash_impl": _hash_impl(), "num_partitions": num_partitions,
                "route": list(cfg.route) if cfg.route else None,
                "route_on": cfg.route_on}

    def _check_engine_meta(self) -> None:
        """Routing is hash-based; a lake written under one hash impl must
        not be resumed under another (keys would re-route and duplicate)."""
        p = os.path.join(self.cfg.lake_dir, "_schema", "engine.json")
        meta = self._engine_meta(self.cfg.num_partitions)
        if os.path.exists(p):
            with open(p) as f:
                prev = json.load(f)
            # lakes written before the demux tier carry no "route" key;
            # absent == None (unrouted), not a mismatch — ditto route_on
            prev.setdefault("route", None)
            prev.setdefault("route_on", "key")
            if prev != meta:
                raise RuntimeError(
                    f"lake engine meta mismatch: lake={prev}, runtime={meta}")
        else:
            os.makedirs(os.path.dirname(p), exist_ok=True)
            storage_for(p).put_bytes(p, json.dumps(meta).encode())

    # ---- bootstrap / recover --------------------------------------------
    def bootstrap(self, base: "ray.data.Dataset | str | None" = None) -> None:
        """Epoch 0: partition the base table into the lake (or init empty).

        Idempotent: skipped if manifests already exist (restore path)."""
        cfg = self.cfg
        if load_manifests(cfg.lake_dir):
            return
        os.makedirs(cfg.lake_dir, exist_ok=True)
        self._fence()
        # every pid starts empty; a base table fills the pids its rows
        # route to (a pid no base row routes to has no group below)
        mans = {pid: Manifest(pid, 0, 0, 0, [], 0, "", {})
                for pid in range(cfg.num_partitions)}
        if base is not None:
            for r in self._bootstrap_base(base).itertuples(index=False):
                mans[int(r.pid)] = Manifest(
                    int(r.pid), 0, 0, 0, json.loads(r.files),
                    int(r.row_count), r.content_hash,
                    {"counts": {}, "input_shards": []})
        for m in mans.values():
            write_manifest(cfg.lake_dir, m)
            if cfg.retain_snapshots:
                archive_manifest(cfg.lake_dir, m)
        SchemaRegistry().save(cfg.lake_dir)

    def _bootstrap_base(self, base: "ray.data.Dataset | str") -> pd.DataFrame:
        """Write each pid's epoch-0 state file from the base table; one
        manifest-candidate row per pid that got base rows."""
        cfg = self.cfg
        lake_dir, compute_hash = cfg.lake_dir, cfg.compute_content_hash

        def init_group(pid: int, g: pd.DataFrame) -> dict:
            kh = g["_kh"].to_numpy()
            g = g[BASE_COLS].copy().sort_values(["repo", "path"], kind="stable")
            g["_lsn"] = 0
            g["_sha"] = _sha256_series(g["content"])
            g["_op"] = "U"
            out_dir = os.path.join(lake_dir, f"part={pid:05d}")
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, "state-e000000.parquet")
            _write_state_file(g, path, [], key_hash=kh)
            return {"pid": pid, "files": json.dumps([path]),
                    "row_count": len(g),
                    "content_hash": _content_hash(g["_sha"]) if compute_hash
                    else ""}

        if isinstance(base, str):
            base = ray.data.read_parquet(base)
        return _write_pid_groups(base, self._make_router(),
                                 cfg.num_partitions, cfg.n_apply_blocks(),
                                 init_group)

    # ---- epoch loop ------------------------------------------------------
    def run(self, base: "ray.data.Dataset | str | None" = None,
            max_epochs: int | None = None, until_lsn: int | None = None,
            complete: bool = True) -> list[EpochReport]:
        """Bootstrap (or recover from manifests) and replay the log.

        complete=True (default): the log is finished — drain to its global
        max lsn. complete=False: the log may still be GROWING — drain only
        to the safe frontier (slowest shard's max lsn minus a skew
        allowance); committing past it would watermark-drop events a
        lagging shard delivers later. Safe to kill and re-run: resumes from
        committed manifests."""
        cfg = self.cfg
        self._check_engine_meta()
        self.bootstrap(base)
        manifests = load_manifests(cfg.lake_dir)
        max_l, epochs = self._plan_epochs(manifests, max_epochs, until_lsn,
                                          complete)

        t_replay = time.perf_counter()
        if cfg.shuffle == "spill" and cfg.pipeline_epochs \
                and len(epochs) > 1 and not cfg.txn_atomic:
            # software pipeline: stage 1 (read+route+spill) of epoch N+1
            # runs concurrently with stage 2 (apply+commit) of epoch N —
            # both are Ray jobs sharing the cluster; the per-epoch barrier
            # cost is paid once, not per epoch. Crash-safe: a spilled but
            # uncommitted epoch is simply re-spilled on restart
            # (content-derived spill names overwrite; lsn-dedup absorbs).
            from concurrent.futures import ThreadPoolExecutor

            def bounds(ep: int) -> tuple[int, int]:
                return (ep - 1) * cfg.epoch_size, min(ep * cfg.epoch_size, max_l)

            with ThreadPoolExecutor(max_workers=1) as pool:
                fut = pool.submit(self._run_spill, epochs[0], *bounds(epochs[0]))
                for i, ep in enumerate(epochs):
                    spilled = fut.result()
                    if i + 1 < len(epochs):
                        nxt = epochs[i + 1]
                        fut = pool.submit(self._run_spill, nxt, *bounds(nxt))
                    self.run_epoch(ep, manifests, ceiling=max_l,
                                   prespilled=spilled)
                    manifests = load_manifests(cfg.lake_dir)
        else:
            for ep in epochs:
                self.run_epoch(ep, manifests, ceiling=max_l)
                manifests = load_manifests(cfg.lake_dir)
        # honest throughput denominator under pipelining: overlapped epoch
        # walls double-count, so bench uses this end-to-end replay wall
        self.replay_wall_sec = round(time.perf_counter() - t_replay, 4)
        return self.reports

    def _plan_epochs(self, manifests: dict[int, Manifest],
                     max_epochs: int | None, until_lsn: int | None,
                     complete: bool) -> tuple[int, list[int]]:
        """(drain ceiling, epochs to run). The ceiling is `until_lsn`, the
        log's max lsn (complete) or its safe frontier (still growing)."""
        cfg = self.cfg
        if until_lsn is not None:
            max_l = until_lsn
        elif complete:
            max_l = binlog_src.max_lsn(cfg.binlog_dir)
        else:
            max_l = binlog_src.safe_frontier(
                cfg.binlog_dir, slack=cfg.epoch_size // 4)
        # resume from the WATERMARK grid position: a previous run may have
        # committed a partial tail epoch (upto_lsn < epoch*E); re-entering
        # that epoch re-reads its range and the per-partition watermark
        # drops what was already applied
        first = min(m.upto_lsn for m in manifests.values()) \
            // cfg.epoch_size + 1
        last = -(-max_l // cfg.epoch_size)     # ceil: covers max_l
        if max_epochs is not None:
            last = min(last, first + max_epochs - 1)
        return max_l, list(range(first, last + 1))

    # ---- incremental snapshot (DBLog-style snapshot-while-tailing) --------
    def run_incremental(self, base: "ray.data.Dataset | str",
                        n_chunks: int = 8, max_epochs: int | None = None,
                        until_lsn: int | None = None,
                        complete: bool = True) -> list[EpochReport]:
        """Snapshot-while-tailing: bootstrap the lake EMPTY and fold the
        base table in as key-disjoint chunks interleaved with live binlog
        epochs — the DBLog / Debezium incremental-snapshot shape (snapshot
        a table without pausing the change stream), re-expressed for a
        partitioned LSM lake.

        DBLog dedups chunk rows against events inside a low/high watermark
        window because its chunks are read from the LIVE table (earlier
        changes are already in the chunk image). Here the chunk is a
        STATIC base image, so the rule is simpler and stricter: a chunk
        row is older than every event and must lose to ANY event that ever
        touched its key. That falls out of the existing LSM merge by
        injecting each chunk as a delta file at _lsn=0 (every event lsn is
        >= 1), with one extra obligation: delete tombstones are RETAINED
        through every fold until the last chunk lands — a compaction that
        dropped a D would let a later chunk resurrect the deleted key.
        Readers are unaffected (merge-on-read filters tombstones; single-
        file reads take the merge path while the snapshot sidecar says
        active); the finalize step rewrites every partition tombstone-free
        and then flips the flag.

        Crash-safe/resumable: chunk progress persists in
        _schema/snapshot.json, chunk files have deterministic names (a
        retried injection overwrites), and manifest file-list appends are
        idempotent. Epochs resume from the committed watermark as in
        run(). full update_mode only: a patch U folded before its base
        chunk arrives could not inherit the base image's column values.

        Mid-snapshot reads see all applied events but only the injected
        chunks' base rows (the documented DBLog behavior); the final state
        equals oracle.apply_events(events, initial=base) exactly.
        """
        cfg = self.cfg
        if cfg.update_mode != "full":
            raise ValueError(
                "run_incremental requires update_mode='full': a partial-"
                "image U applied before its key's base chunk arrives "
                "cannot inherit the base row's values")
        self._check_engine_meta()
        self.bootstrap(None)   # EMPTY lake; no-op on resume
        return self._snapshot_run(base, n_chunks, max_epochs, until_lsn,
                                  complete, fresh=True)

    def adhoc_snapshot(self, source: "ray.data.Dataset | str",
                       n_chunks: int = 4,
                       predicate=None,
                       max_epochs: int | None = None,
                       until_lsn: int | None = None,
                       complete: bool = True) -> list[EpochReport]:
        """Ad-hoc re-snapshot of a LIVE lake — the Debezium
        `execute-snapshot` signal shape (re-deliver base images for lost
        or late rows without pausing the stream).

        CONTRACT on `source`: it must be a read of the live source table
        taken at or after this lake's committed watermark — i.e. it
        REFLECTS every event already applied (Debezium reads the live
        table for exactly this reason). Then the _lsn=0 injection is
        sound with no retroactive tombstones: a key deleted BEFORE the
        snapshot started is absent from the source image (never
        re-injected), a key deleted DURING it is protected by the same
        tombstone retention as run_incremental, and a key present in
        both source and state keeps the state row (they agree by the
        contract, and the event row outranks). Keys present only in the
        source — the lost/late rows — are restored.

        `predicate` (optional, Callable[[pa.Table], BooleanArray])
        narrows the snapshot to matching source rows — the signal's
        additional-condition. Each chunk applies it before routing.

        Starts a NEW snapshot generation (chunk files are
        snap-g{gen}-c{chunk}); an in-progress generation must finish
        first (call run_incremental / adhoc_snapshot again to resume)."""
        cfg = self.cfg
        if cfg.update_mode != "full":
            raise ValueError(
                "adhoc_snapshot requires update_mode='full': a partial-"
                "image U applied before its key's source chunk arrives "
                "cannot inherit the source row's values")
        self._check_engine_meta()
        if not load_manifests(cfg.lake_dir):
            raise ValueError(
                "adhoc_snapshot needs a live lake (no manifests found); "
                "use run_incremental for a first-time snapshot")
        return self._snapshot_run(source, n_chunks, max_epochs, until_lsn,
                                  complete, fresh=False, predicate=predicate)

    def _snapshot_run(self, base, n_chunks, max_epochs, until_lsn, complete,
                      fresh: bool, predicate=None) -> list[EpochReport]:
        cfg = self.cfg
        chunks = self._plan_chunks(base, n_chunks)
        if predicate is not None:
            def filtered(thunk):
                def make():
                    return thunk().map_batches(
                        lambda t: t.filter(predicate(t)),
                        batch_format="pyarrow")
                return make
            chunks = [filtered(th) for th in chunks]
        meta = read_snapshot_meta(cfg.lake_dir)
        if meta is not None:
            meta.setdefault("generation", 0)
        if meta is None or (not meta["active"] and not fresh):
            gen_ = 0 if meta is None else meta["generation"] + 1
            meta = {"generation": gen_, "n_chunks": len(chunks),
                    "done": 0, "active": True}
            write_snapshot_meta(cfg.lake_dir, meta)
        elif meta["active"] and meta["n_chunks"] != len(chunks):
            raise ValueError(
                f"resuming an in-progress snapshot with a different chunk "
                f"plan ({meta['n_chunks']} committed vs {len(chunks)} "
                f"requested) would skip or repeat key ranges")

        manifests = load_manifests(cfg.lake_dir)
        max_l, epochs = self._plan_epochs(manifests, max_epochs, until_lsn,
                                          complete)

        def inject_next() -> None:
            nonlocal manifests
            if meta["active"] and meta["done"] < len(chunks):
                self._inject_chunk(meta["done"], chunks[meta["done"]](),
                                   generation=meta["generation"])
                meta["done"] += 1
                write_snapshot_meta(cfg.lake_dir, meta)
                # the injection appended snap files to the ON-DISK
                # manifests; the next run_epoch must fold from the fresh
                # view or its commit would drop the chunk's file reference
                # (and with it the chunk's rows) from the partition
                manifests = load_manifests(cfg.lake_dir)

        t_replay = time.perf_counter()
        # interleave: one chunk up front, one after every epoch, the
        # remainder (short logs) after the loop — any order is correct
        # (chunks always lose the merge); interleaving bounds the extra
        # read-amplification each epoch's fold pays for the snap deltas
        inject_next()
        for ep in epochs:
            self.run_epoch(ep, manifests, ceiling=max_l)
            manifests = load_manifests(cfg.lake_dir)
            inject_next()
        while meta["active"] and meta["done"] < len(chunks):
            inject_next()
        if meta["active"]:
            # drop retained tombstones everywhere FIRST, then flip the
            # flag — a crash in between leaves active=true, so readers
            # keep the tombstone-filtering merge path (conservative)
            self.compact(all_partitions=True, _retain_tombstones=False)
            meta["active"] = False
            write_snapshot_meta(cfg.lake_dir, meta)
        self.replay_wall_sec = round(time.perf_counter() - t_replay, 4)
        return self.reports

    def _plan_chunks(self, base: "ray.data.Dataset | str",
                     n_chunks: int) -> list:
        """Deterministic key-disjoint chunk plan; list of thunks so chunk
        reads stay lazy. A path base with >= n_chunks parquet files splits
        BY FILE (each chunk reads only its slice — no rescans; at 100 TB
        the base is always many files). Otherwise chunks are hash-mod key
        slices, each a filtered scan of the base (documented n_chunks×
        read amplification, only ever paid at test scale)."""
        import glob as _glob

        if isinstance(base, str):
            files = sorted(_glob.glob(os.path.join(base, "*.parquet"))) \
                if os.path.isdir(base) else [base]
            if not files:
                raise ValueError(f"no parquet files under {base}")
            if len(files) >= n_chunks:
                groups = [list(g) for g in np.array_split(
                    np.array(files, dtype=object), n_chunks)]
                return [
                    (lambda fs=g: ray.data.read_parquet(fs))
                    for g in groups if len(g)
                ]
            def base_ds() -> "ray.data.Dataset":
                return ray.data.read_parquet(files)
        else:
            def base_ds() -> "ray.data.Dataset":
                return base

        def chunk_thunk(c: int):
            def make() -> "ray.data.Dataset":
                def filt(t: pa.Table) -> pa.Table:
                    h = stable_hash(t, ["repo", "path"])
                    # >>16 decorrelates the chunk slice from pid = h % P
                    sel = (h >> np.uint64(16)) % np.uint64(n_chunks) \
                        == np.uint64(c)
                    return t.filter(pa.array(sel))
                return base_ds().map_batches(filt, batch_format="pyarrow")
            return make

        return [chunk_thunk(c) for c in range(n_chunks)]

    def _inject_chunk(self, chunk_id: int, ds: "ray.data.Dataset",
                      generation: int = 0) -> None:
        """Distributed write of one snapshot chunk: route rows to their
        lake partition, append one delta file per touched partition at
        _lsn=0 (loses every merge against real events), swap manifests.
        Idempotent: deterministic file names + append-if-absent."""
        cfg = self.cfg
        lake_dir = cfg.lake_dir
        # evolved columns present in BOTH the source image and the current
        # registry ride along (an ad-hoc repair image read from a live,
        # already-evolved table); anything else in the image is dropped and
        # missing evolved columns stay null — the oracle's value for a base
        # row after add_column. (A rename DURING the snapshot window nulls
        # the chunk's values for that column at the next fold — the image
        # predates the rename; documented, matches Debezium's "snapshot
        # reflects the schema at read time".)
        _reg = SchemaRegistry.load(cfg.lake_dir)
        evolved_now = _reg.columns_at(_reg.version)
        types_now = _reg.types_at(_reg.version)

        def write_group(pid: int, g: pd.DataFrame) -> dict:
            kh = g["_kh"].to_numpy()
            carry = [c for c in evolved_now if c in g.columns]
            g = g[BASE_COLS + carry].copy().sort_values(
                ["repo", "path"], kind="stable")
            for c in evolved_now:
                if c not in g.columns:
                    g[c] = None
            g = g[BASE_COLS + evolved_now]
            g["_lsn"] = 0
            g["_sha"] = _sha256_series(g["content"])
            g["_op"] = "U"
            out_dir = os.path.join(lake_dir, f"part={pid:05d}")
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(
                out_dir, f"snap-g{generation:03d}-c{chunk_id:04d}.parquet")
            _write_state_file(g, path, evolved_now, types_now, key_hash=kh)
            return {"pid": pid, "path": path, "rows": len(g)}

        cand = _write_pid_groups(ds, self._make_router(), cfg.num_partitions,
                                 cfg.n_apply_blocks(), write_group)
        manifests = load_manifests(cfg.lake_dir)
        for r in cand.itertuples(index=False):
            m = manifests[int(r.pid)]
            if r.path not in m.files:
                m.files.append(r.path)
            m.row_count = -1        # live count unknown until the next fold
            m.content_hash = ""
            write_manifest(cfg.lake_dir, m)
            if cfg.retain_snapshots:
                # the chunk is "as of lsn 0" — logically part of every
                # retained epoch's state; re-archiving the CURRENT epoch
                # keeps table_at(now) == base ∪ events<=now and protects
                # the snap file from gc via the history set
                archive_manifest(cfg.lake_dir, m)

    def _make_router(self, epoch: int | None = None):
        """The stateless pre-apply chain: DLQ split + pid routing. Without
        an epoch, routing only — base images (bootstrap, snapshot chunks)
        are rows, not events, and skip the event-validity DLQ."""
        cfg = self.cfg
        stages = []
        rules, names = [], []
        if epoch is not None and cfg.dlq:
            rules += _dlq_rules(cfg.update_mode)
            names += ["op_verb", "key_present", "content_present"]
        if epoch is not None and cfg.constraints:
            rules += [r for _, r in cfg.constraints]
            names += [f"check:{n}" for n, _ in cfg.constraints]
        if rules:
            stages.append(chain_mod.dlq_stage(
                os.path.join(cfg.lake_dir, "_dlq"),
                rules=rules,
                tag=f"e{epoch}-",
                # the _violation marker only when CHECK constraints are
                # configured — keeps the plain-DLQ file schema unchanged
                names=names if cfg.constraints else None,
            ))

        return partial(_route, num_partitions=cfg.num_partitions,
                       route=cfg.route, route_on=cfg.route_on,
                       stages=tuple(stages))

    def _run_spill(self, epoch: int, lo: int, hi: int
                   ) -> tuple[str, int, float]:
        """Stage 1 of the spill exchange for one epoch: read + route +
        per-slot spill. Independent of manifests/registry state, so it can
        run concurrently with the PREVIOUS epoch's apply (pipeline_epochs).
        Returns (exchange dir, slot count, stage-1 wall seconds)."""
        cfg = self.cfg
        t0 = time.perf_counter()
        ex_dir = os.path.join(cfg.exchange_root(), f"e{epoch:06d}")
        n_slots = cfg.n_apply_blocks()
        ds = binlog_src.read_epoch(cfg.binlog_dir, lo, hi,
                                   override_num_blocks=cfg.n_read_blocks(),
                                   columns=APPLY_COLS,
                                   tolerant=cfg.text_errors == "dlq")
        (ds.map_batches(self._make_router(epoch), batch_format="pyarrow")
           .map_batches(partial(_spill_stage1, ex_dir=ex_dir, n_slots=n_slots),
                        batch_format="pyarrow")
           .materialize())  # execution barrier
        return ex_dir, n_slots, time.perf_counter() - t0

    def run_epoch(self, epoch: int, manifests: dict[int, Manifest] | None = None,
                  ceiling: int | None = None,
                  prespilled: tuple[str, int, float] | None = None
                  ) -> EpochReport:
        cfg = self.cfg
        t0 = time.perf_counter()
        manifests = manifests or load_manifests(cfg.lake_dir)
        P = cfg.num_partitions
        lo = (epoch - 1) * cfg.epoch_size
        # clamp the committed watermark to what the caller knows is fully
        # delivered (the run's drain ceiling; standalone calls use the
        # observed log end): committing upto_lsn past delivered data would
        # silently watermark-drop events that arrive later in that range
        if ceiling is None:
            ceiling = binlog_src.max_lsn(cfg.binlog_dir)
        # unconditional clamp: ceiling==0 (empty / not-yet-delivered binlog)
        # must clamp hi to 0, not fall through to epoch*epoch_size — that
        # would be exactly the watermark overcommit this guard prevents
        hi = min(epoch * cfg.epoch_size, ceiling)
        if cfg.txn_atomic:
            # a previous epoch may have deferred a straddling txn's tail
            # below this epoch's grid lo — extend the read window back to
            # the committed watermark (the lsn-dedup filter absorbs any
            # already-applied overlap), then clamp hi to a txn boundary
            if manifests:
                lo = min(lo, min(m.upto_lsn for m in manifests.values()))
            hi = max(binlog_src.txn_boundary(cfg.binlog_dir, lo, hi), lo)

        registry = SchemaRegistry.load(cfg.lake_dir)
        t_ddl = time.perf_counter()
        epoch_ddls = binlog_src.read_ddl_events(cfg.binlog_dir, lo, hi)
        t_ddl = time.perf_counter() - t_ddl
        # compatibility gate BEFORE the merge: violators keep their slot
        # (version numbering) but are stamped rejected — pure function of
        # (stored registry, batch, policy), so crash/replay re-stamps the
        # same way and the lsn-keyed merge stays idempotent
        epoch_ddls = registry.apply_policy(epoch_ddls, cfg.ddl_policy)
        n_ddl_rejected = sum(1 for e in epoch_ddls if e.get("rejected"))
        full_registry = registry.merged(epoch_ddls)  # lsn-dedup: re-run safe
        # persist BEFORE any manifest swap: a crash between manifests and a
        # late registry save would lose this epoch's DDLs forever (partition
        # schema_ver would point past the end of the stored timeline). The
        # registry is lsn-keyed and idempotent, so saving early is safe.
        full_registry.save(cfg.lake_dir)
        if epoch_ddls and cfg.metrics:
            self._write_schema_changes(epoch, epoch_ddls, full_registry)

        ctx = {
            "lake_dir": cfg.lake_dir, "epoch": epoch, "hi": hi,
            "manifests": {pid: {
                "upto_lsn": m.upto_lsn, "schema_ver": m.schema_ver,
                "files": m.files, "row_count": m.row_count,
                "content_hash": m.content_hash,
            } for pid, m in manifests.items()},
            "epoch_ddls": epoch_ddls, "all_entries": full_registry.entries,
            "compute_content_hash": cfg.compute_content_hash,
            "write_mode": cfg.write_mode, "compact_every": cfg.compact_every,
            "compact_policy": cfg.compact_policy,
            "compact_ratio": cfg.compact_ratio,
            "update_mode": cfg.update_mode,
            "retain_tombstones": snapshot_active(cfg.lake_dir),
        }

        t_apply = time.perf_counter()
        t_spill = 0.0
        if cfg.shuffle == "spill":
            # stage 1 (skipped when run() prespilled it concurrently with
            # the previous epoch's apply)
            ex_dir, n_slots, t_spill = \
                prespilled or self._run_spill(epoch, lo, hi)
            # stage 2: one plain task per slot
            t_fold = time.perf_counter()
            cand = fan_out(_apply_slot, [[s] for s in range(n_slots)],
                           ex_dir=ex_dir, ctx=ctx, n_slots=n_slots,
                           num_partitions=P)
            t_fold = time.perf_counter() - t_fold
            _cleanup_exchange(ex_dir)
        else:
            # one NOOP marker row per pid puts every partition in a block —
            # so it emits a manifest candidate and applies the epoch's
            # DDL — even with zero data events this epoch
            from thor_ray.gen import EVENT_SCHEMA

            marker = pa.table({
                "lsn": pa.array([-1] * P, type=pa.int64()),
                "op": pa.array(["NOOP"] * P),
                **{c: pa.array([None] * P, type=EVENT_SCHEMA.field(c).type)
                   for c in ["repo", "path", "commit", "lang", "content", "extra"]},
                "schema_ver": pa.array([0] * P, type=pa.int32()),
                "shard": pa.array([-1] * P, type=pa.int32()),
                "pid": pa.array(list(range(P)), type=pa.int64()),
            }).select(APPLY_COLS + ["pid"])
            ds = binlog_src.read_epoch(cfg.binlog_dir, lo, hi,
                                       override_num_blocks=cfg.n_read_blocks(),
                                       columns=APPLY_COLS,
                                       tolerant=cfg.text_errors == "dlq")
            routed = (ds.map_batches(self._make_router(epoch),
                                     batch_format="pyarrow")
                      .union(ray.data.from_arrow(marker)))
            cand = (
                _pid_sort(routed, P, cfg.n_apply_blocks())
                .map_batches(partial(_apply_range, ctx=ctx, num_partitions=P),
                             batch_format="pyarrow", batch_size=None)
                .to_pandas()
            )
        t_apply = time.perf_counter() - t_apply
        if cfg.shuffle != "spill":
            t_fold = t_apply   # the sort exchange and fold are one job

        # ---- commit: atomic per-partition manifest swaps --------------------
        t_commit = time.perf_counter()
        self._fence()
        for r in cand.itertuples(index=False):
            m = Manifest(
                partition_id=int(r.pid), epoch=epoch, upto_lsn=int(r.upto_lsn),
                schema_ver=int(r.schema_ver), files=json.loads(r.files),
                row_count=int(r.row_count), content_hash=r.content_hash,
                lineage={
                    "input_shards": json.loads(r.input_shards),
                    "counts": {"I": int(r.n_I), "U": int(r.n_U), "D": int(r.n_D),
                               "DDL": len(epoch_ddls),
                               "ddl_rejected": n_ddl_rejected,
                               "dup_dropped": int(r.n_dup)},
                },
            )
            write_manifest(cfg.lake_dir, m)
            if cfg.retain_snapshots:
                archive_manifest(cfg.lake_dir, m)
        committed = load_manifests(cfg.lake_dir)
        if cfg.retain_snapshots:
            prune_history(cfg.lake_dir, epoch - cfg.retain_snapshots + 1)
        gc_lake(cfg.lake_dir, committed)
        t_commit = time.perf_counter() - t_commit

        wall = time.perf_counter() - t0
        n_events = int(cand["n_events"].sum())
        rep = EpochReport(
            epoch=epoch, lo=lo, hi=hi, n_events=n_events,
            n_applied={**{k: int(cand[f"n_{k}"].sum())
                          for k in ("I", "U", "D", "dup")},
                       "ddl_rejected": n_ddl_rejected},
            wall_sec=round(wall, 4),
            events_per_sec=round(n_events / wall, 1) if wall > 0 else 0.0,
            phase_sec={"ddl": round(t_ddl, 3), "spill": round(t_spill, 3),
                       "fold": round(t_fold, 3), "apply": round(t_apply, 3),
                       "commit": round(t_commit, 3)},
        )
        self.reports.append(rep)
        if cfg.metrics:
            self._write_lineage(epoch, cand, rep)
        return rep

    def _write_lineage(self, epoch: int, cand: pd.DataFrame, rep: EpochReport) -> None:
        """Per-epoch lineage JSONL (deterministic per-epoch file → idempotent
        on re-run; SURVEY.md §2.1 S4)."""
        d = os.path.join(self.cfg.lake_dir, "_lineage")
        os.makedirs(d, exist_ok=True)
        path = os.path.join(d, f"epoch-{epoch:06d}.jsonl")
        lines = [json.dumps({"type": "epoch", **rep.__dict__})]
        for r in cand.itertuples(index=False):
            lines.append(json.dumps({
                "type": "partition", "epoch": epoch, "pid": int(r.pid),
                "rows": int(r.row_count), "events": int(r.n_events),
                "counts": {"I": int(r.n_I), "U": int(r.n_U), "D": int(r.n_D),
                           "dup_dropped": int(r.n_dup)},
                "input_shards": json.loads(r.input_shards),
                "content_hash": r.content_hash,
            }))
        storage_for(path).put_bytes(path, ("\n".join(lines) + "\n").encode())

    def _write_schema_changes(self, epoch: int, epoch_ddls: list[dict],
                              registry: SchemaRegistry) -> None:
        """Schema-change feed (the Debezium schema-history-topic analogue):
        one JSONL record per DDL folded this epoch, with the post-change
        column set/types resolved from the registry — what a downstream
        sink consumer needs to evolve its own target schema in step.
        Deterministic per-epoch file name + atomic replace → idempotent on
        crash/replay, exactly like the lineage feed. Written right after
        the early registry save so the feed never claims a change the
        stored timeline doesn't have."""
        slot_of = {e["lsn"]: i for i, e in enumerate(registry.entries)}
        d = os.path.join(self.cfg.lake_dir, "_schema_changes")
        os.makedirs(d, exist_ok=True)
        path = os.path.join(d, f"epoch-{epoch:06d}.jsonl")
        lines = []
        for e in sorted(epoch_ddls, key=lambda e: e["lsn"]):
            ver_after = slot_of[e["lsn"]] + 1
            lines.append(json.dumps({
                "type": "schema_change", "epoch": epoch,
                "lsn": int(e["lsn"]), "schema_ver": ver_after,
                "ddl": e["ddl"],
                "rejected": e.get("rejected"),
                "columns_after": registry.columns_at(ver_after),
                "types_after": registry.types_at(ver_after),
            }))
        storage_for(path).put_bytes(
            path, ("\n".join(lines) + "\n").encode() if lines else b"")

    def schema_changes(self) -> list[dict]:
        """Read the full schema-change feed, lsn-ordered."""
        d = os.path.join(self.cfg.lake_dir, "_schema_changes")
        recs: list[dict] = []
        for p in sorted(glob.glob(os.path.join(d, "epoch-*.jsonl"))):
            with open(p) as f:
                recs.extend(json.loads(ln) for ln in f if ln.strip())
        return sorted(recs, key=lambda r: r["lsn"])

    def _write_heartbeat(self, max_lsn: int, frontier: int) -> None:
        """Liveness heartbeat (Debezium heartbeat-topic analogue): one
        appended JSONL record per follow() poll — proof the tail loop is
        alive and how far behind the log head its commits are, even across
        polls that apply nothing. Wall-clock telemetry by design (ops
        surface, not replay state): the exactly-once machinery never reads
        it back."""
        ms = load_manifests(self.cfg.lake_dir)
        wm = min((m.upto_lsn for m in ms.values()), default=0)
        rec = {"type": "heartbeat", "ts_ms": int(time.time() * 1000),
               "max_lsn": int(max_lsn), "safe_frontier": int(frontier),
               "committed_watermark": int(wm),
               "lag_lsn": int(max(max_lsn - wm, 0))}
        os.makedirs(self.cfg.lake_dir, exist_ok=True)
        with open(os.path.join(self.cfg.lake_dir, "_heartbeat.jsonl"),
                  "a") as f:
            f.write(json.dumps(rec) + "\n")

    def follow(self, poll_sec: float = 2.0, idle_polls: int = 3,
               frontier_slack: int | None = None,
               base: "ray.data.Dataset | str | None" = None,
               on_apply: "list | None" = None) -> list[EpochReport]:
        """Continuous tail: poll the binlog dir for log growth (new segment
        files) and apply new COMPLETE epochs as they appear — micro-batch
        streaming (Kafka consumer-loop analogue).

        While the log may still grow, epochs are only committed up to the
        safe frontier (the slowest shard's max lsn minus a skew allowance):
        committing past it would advance watermarks over events a lagging
        shard hasn't delivered yet. Once `idle_polls` polls see no growth
        the log is deemed finished and the tail past the frontier is
        drained. Safe to kill/restart any time (resume-from-manifests).

        ``on_apply``: zero-arg callables invoked after every run() that
        applied new epochs — the connected-pipeline hook that keeps
        downstream consumers current with the stream (e.g.
        ``SecondaryIndex(...).advance``, ``IncrementalView(...).advance``,
        a replicate_lake lambda). Each consumer owns its exactly-once
        resume state, so a crash between apply and hook, or a hook
        failure, is repaired by the next invocation — follow() therefore
        lets hook exceptions propagate (fail fast, resume clean)."""
        if frontier_slack is None:
            frontier_slack = self.cfg.epoch_size // 4
        idle = 0
        seen = -1

        def fire_hooks() -> None:
            for fn in (on_apply or []):
                fn()

        while idle < idle_polls:
            now = binlog_src.max_lsn(self.cfg.binlog_dir)
            frontier = binlog_src.safe_frontier(
                self.cfg.binlog_dir, slack=frontier_slack)
            if now > seen:
                seen = now
                # only epochs fully below the frontier
                complete = (frontier // self.cfg.epoch_size) * self.cfg.epoch_size
                if complete > 0:
                    n_before = len(self.reports)
                    self.run(base=base, until_lsn=complete)
                    if len(self.reports) > n_before:
                        fire_hooks()
                idle = 0
            else:
                idle += 1
                if idle < idle_polls:
                    time.sleep(poll_sec)
            if self.cfg.metrics:
                # liveness + lag record every poll, applied or idle
                self._write_heartbeat(now, frontier)
        # log stopped growing: drain everything (final partial epoch incl.)
        n_before = len(self.reports)
        self.run(base=base)
        if len(self.reports) > n_before or on_apply:
            fire_hooks()
        return self.reports

    def compact(self, all_partitions: bool = False,
                _retain_tombstones: "bool | None" = None) -> int:
        """Force-merge every partition's delta run into one state file —
        the LSM maintenance command for write_mode='delta' (read-optimize a
        lake without waiting for a DDL or the compact_every threshold).
        Watermarks/epochs do NOT move; one distributed task bundle folds
        each partition with an empty winner set; manifests swap atomically
        (crash between file write and swap is safe — merge-on-read of the
        old file set plus an overwritten level file is idempotent).
        Returns the number of partitions compacted.

        all_partitions=True folds single-file partitions too — needed by
        run_incremental's finalize, where a compacted file may still hold
        retained tombstone rows that must be rewritten away."""
        cfg = self.cfg
        self._fence()   # a zombie's maintenance command must fail closed
        manifests = load_manifests(cfg.lake_dir)
        registry = SchemaRegistry.load(cfg.lake_dir)
        todo = [pid for pid, m in manifests.items()
                if all_partitions or len(m.files) > 1]
        if not todo:
            return 0
        ctx = {
            "lake_dir": cfg.lake_dir, "epoch": 0, "hi": 0,
            "preserve_position": True, "force_compact": True,
            "force_single": all_partitions,
            "manifests": {pid: {
                "upto_lsn": m.upto_lsn, "schema_ver": m.schema_ver,
                "epoch": m.epoch, "files": m.files, "row_count": m.row_count,
                "content_hash": m.content_hash,
            } for pid, m in manifests.items()},
            "epoch_ddls": [], "all_entries": registry.entries,
            "compute_content_hash": cfg.compute_content_hash,
            "write_mode": cfg.write_mode, "compact_every": cfg.compact_every,
            "compact_policy": cfg.compact_policy,
            "compact_ratio": cfg.compact_ratio,
            "update_mode": cfg.update_mode,
            # run_incremental's finalize passes False explicitly: it drops
            # the retained tombstones BEFORE flipping the snapshot's active
            # flag (readers keep using the tombstone-filtering merge path
            # until every file is clean — crash between the two is safe)
            "retain_tombstones": snapshot_active(cfg.lake_dir)
            if _retain_tombstones is None else _retain_tombstones,
        }

        cand = fan_out(_fold_group,
                       split(sorted(todo), cfg.n_apply_blocks()),
                       ctx=ctx, num_partitions=cfg.num_partitions)
        for r in cand.itertuples(index=False):
            m = Manifest(
                partition_id=int(r.pid), epoch=int(r.epoch),
                upto_lsn=int(r.upto_lsn), schema_ver=int(r.schema_ver),
                files=json.loads(r.files), row_count=int(r.row_count),
                content_hash=r.content_hash,
                lineage={"input_shards": [], "counts": {"compaction": 1}})
            write_manifest(cfg.lake_dir, m)
            if cfg.retain_snapshots:
                # same epoch, new physical layout: the archive follows the
                # compaction (logical snapshot content is unchanged)
                archive_manifest(cfg.lake_dir, m)
        gc_lake(cfg.lake_dir, load_manifests(cfg.lake_dir))
        return len(todo)

    def lag_report(self) -> pd.DataFrame:
        """Consumer-lag observability (the Kafka `consumer-groups
        --describe` shape): one row per binlog shard with its newest
        delivered lsn, the lake's slowest- and fastest-partition
        watermarks, and the lag (shard frontier minus slowest watermark —
        events delivered but not yet committed). Metadata-only: parquet
        footers + manifest JSON, never data; safe to poll while follow()
        runs."""
        from thor_ray.sources import binlog as _bl

        manifests = load_manifests(self.cfg.lake_dir)
        lo_wm = min((m.upto_lsn for m in manifests.values()), default=0)
        hi_wm = max((m.upto_lsn for m in manifests.values()), default=0)
        fr = _bl.shard_frontiers(self.cfg.binlog_dir)
        rows = [{
            "shard": s, "frontier_lsn": f,
            "watermark_lo": lo_wm, "watermark_hi": hi_wm,
            "lag": max(f - lo_wm, 0),
        } for s, f in sorted(fr.items())]
        return pd.DataFrame(rows, columns=["shard", "frontier_lsn",
                                           "watermark_lo", "watermark_hi",
                                           "lag"])

    def repartition_lake(self, dst_dir: str, new_partitions: int) -> int:
        """Online partition-count migration (scale the lake out or in)
        WITHOUT replaying the binlog: fold every partition's live state
        (merge-on-read, tombstone-free), re-route each row by the SAME
        stable key hash mod the new partition count, and write a fresh
        lake — epoch-tagged state files, manifests, schema registry, and
        engine meta — under ``dst_dir``. A pipeline constructed on the new
        lake with ``num_partitions=new_partitions`` resumes from the SAME
        binlog at the preserved watermark, so rebalancing is a one-off
        state-sized rewrite, never a log replay.

        Requires a QUIESCED lake (every partition at one watermark — true
        after any completed ``run()``): mixed watermarks would force the
        new lake to the minimum and re-apply the gap. Snapshot history and
        changefeed segments do not migrate (the new lake's history starts
        at the migration epoch). Shuffle shape: one key-hash exchange of
        the state (the same wide step as bootstrap); per-group work is a
        single sorted parquet write. Returns rows migrated."""
        cfg = self.cfg
        manifests = load_manifests(cfg.lake_dir)
        if not manifests:
            raise RuntimeError("repartition_lake: source lake has no manifests")
        uptos = {m.upto_lsn for m in manifests.values()}
        if len(uptos) != 1:
            raise RuntimeError(
                f"repartition_lake: lake not quiesced (watermarks {sorted(uptos)}); "
                "run() to a boundary first")
        upto = uptos.pop()
        epoch = max(m.epoch for m in manifests.values())
        registry = SchemaRegistry.load(cfg.lake_dir)
        evolved = registry.columns_at(registry.version)
        types = registry.types_at(registry.version)
        ver = registry.version
        P = new_partitions
        compute_hash = cfg.compute_content_hash

        from thor_ray.sources.lake import read_lake
        ds = read_lake(cfg.lake_dir, manifests=manifests, keep_internal=True)

        # the lake already holds only its route's keys: re-pid, no demux
        route = partial(_route, num_partitions=P, route=None, route_on="key")
        cols = BASE_COLS + evolved + ["_lsn", "_sha", "_op"]

        def write_group(pid: int, g: pd.DataFrame) -> dict:
            kh = g["_kh"].to_numpy()
            g = g[cols].sort_values(["repo", "path"], kind="stable")
            out_dir = os.path.join(dst_dir, f"part={pid:05d}")
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, f"state-e{epoch:06d}.parquet")
            _write_state_file(g, path, evolved, types, key_hash=kh)
            return {"pid": pid, "files": json.dumps([path]),
                    "row_count": len(g),
                    "content_hash": _content_hash(g["_sha"])
                    if compute_hash else ""}

        total = 0
        seen: dict[int, "pd.Series"] = {}
        if ds.count():
            cand = _write_pid_groups(ds, route, P, cfg.n_apply_blocks(),
                                     write_group)
            seen = {int(r.pid): r for r in cand.itertuples(index=False)}
        os.makedirs(dst_dir, exist_ok=True)
        for pid in range(P):
            r = seen.get(pid)
            m = Manifest(
                partition_id=pid, epoch=epoch, upto_lsn=upto,
                schema_ver=ver,
                files=json.loads(r.files) if r is not None else [],
                row_count=int(r.row_count) if r is not None else 0,
                content_hash=r.content_hash if r is not None else "",
                lineage={"input_shards": [],
                         "counts": {"repartitioned_from": cfg.num_partitions}})
            write_manifest(dst_dir, m)
            if cfg.retain_snapshots:
                archive_manifest(dst_dir, m)
            total += m.row_count
        registry.save(dst_dir)
        p = os.path.join(dst_dir, "_schema", "engine.json")
        os.makedirs(os.path.dirname(p), exist_ok=True)
        storage_for(p).put_bytes(p, json.dumps(self._engine_meta(P)).encode())
        return total

    def delete_where(self, expr: str) -> int:
        """Retention / right-to-be-forgotten: append tombstone (op='D')
        events for every live lake key matching `expr` (a Ray Dataset
        filter expression over the final-table columns) to the BINLOG at
        fresh lsns — the lake is never mutated out-of-band; the deletes
        flow through the normal exactly-once apply path (watermarks,
        dedup, crash-restore) on the next run().

        Scale shape: the matching keys never land on the driver — one
        distributed filter+project over the lake, then
        binlog_src.append_events (one segment per shard at interleaved
        lsns above the log end; batch semantics there). Returns the
        number of tombstones written."""
        cfg = self.cfg
        base_lsn = binlog_src.max_lsn(cfg.binlog_dir)
        keys = (self.final_table()
                .filter(expr=expr)
                .select_columns(["repo", "path"]))

        # Idempotence across calls: a re-issued delete before the next
        # run() would otherwise re-tombstone every key at fresh lsns (the
        # first call raised max_lsn, so the segment names differ). Suppress
        # keys that already hold a TRAILING pending tombstone — lsn above
        # both the commit watermark and the last data event, so no pending
        # insert can resurrect them — via a distributed anti-join.
        wm = min((m.upto_lsn for m in
                  load_manifests(cfg.lake_dir).values()), default=0)
        data_max = max(
            (binlog_src._file_max_lsn(p)
             for p in binlog_src.shard_files(cfg.binlog_dir)
             if "-del" not in os.path.basename(p)), default=0)
        pend_lo = max(wm, data_max)
        if pend_lo < base_lsn:
            pending = (binlog_src.read_epoch(
                cfg.binlog_dir, pend_lo, base_lsn,
                columns=["lsn", "op", "repo", "path"])
                .filter(expr="op == 'D'")
                .select_columns(["repo", "path"]))
            from thor_ray.ops.relational import hash_join
            keys = hash_join(keys, pending, on=("repo", "path"),
                             join_type="left_anti")

        def tombstone(t: pa.Table) -> pa.Table:
            return t.append_column("op", pa.array(["D"] * t.num_rows,
                                                  type=pa.string()))

        # segments are deterministic per (shard, base_lsn): a retried task
        # on the same call overwrites; a re-issued call is deduped above
        # by the pending-tombstone anti-join
        return binlog_src.append_events(
            cfg.binlog_dir, keys.map_batches(tombstone, batch_format="pyarrow"),
            "del", schema_ver=SchemaRegistry.load(cfg.lake_dir).version)

    def update_where(self, expr: str, set_fn,
                     ident: str | None = None) -> int:
        """Distributed UPDATE (the other half of delete_where's
        out-of-band write tier): append full-image op='U' events for
        every live lake row matching ``expr``, with ``set_fn`` — a
        vectorized ``pa.Table -> pa.Table`` transform over the matched
        rows (same rows and columns back; the primary key must come back
        unchanged) — applied. The events land in the BINLOG at fresh
        lsns; the lake is never mutated out-of-band, the updates ride
        the normal exactly-once apply path (watermarks, dedup,
        crash-restore) on the next run().

        Idempotent re-issue: the update identity (``ident``; default
        sha1(expr) + the lake's slowest commit watermark) is encoded in
        the segment names — re-issuing the SAME update against the
        unchanged lake overwrites its own segments at the SAME lsns
        (the merge_branch pattern) instead of appending a second copy
        at the raised log end. Two DIFFERENT updates issued between
        runs need distinct ``ident``s (or a run() in between, which
        moves the watermark and so the default identity).

        Scale shape: matched rows never land on the driver — one
        distributed filter over the lake's merge-on-read path, set_fn
        inside map_batches, then binlog_src.append_events (one segment
        per shard). Returns the event count."""
        cfg = self.cfg
        reg = SchemaRegistry.load(cfg.lake_dir)
        evolved = reg.columns_at(reg.version)
        wm = min((m.upto_lsn for m in
                  load_manifests(cfg.lake_dir).values()), default=0)
        if ident is None:
            ident = f"{hashlib.sha1(expr.encode()).hexdigest()[:8]}w{wm}"

        def apply_set(t: pa.Table) -> pa.Table:
            out = set_fn(t)
            if (not isinstance(out, pa.Table) or out.num_rows != t.num_rows
                    or set(out.column_names) != set(t.column_names)):
                raise ValueError(
                    "update_where set_fn must return the same rows and "
                    "columns (got "
                    f"{type(out).__name__}"
                    f"{' ' + str(out.column_names) if isinstance(out, pa.Table) else ''})")
            for k in ("repo", "path"):
                if out.num_rows and not pc.all(
                        pc.equal(out[k], t[k])).as_py():
                    raise ValueError(
                        f"update_where set_fn must not modify the "
                        f"primary key column {k!r}")
            return binlog_src.row_image_events(out, evolved, op="U")

        return binlog_src.append_events(
            cfg.binlog_dir,
            self.final_table().filter(expr=expr)
            .map_batches(apply_set, batch_format="pyarrow"),
            "upd", ident=ident, schema_ver=reg.version)

    def ingest_dataset(self, ds: "ray.data.Dataset", ident: str,
                       op: str = "U") -> int:
        """Bulk load (UPSERT/DELETE INTO … SELECT): append one event per
        row of an arbitrary Ray Dataset to the BINLOG at fresh
        interleaved lsns — fully distributed (rows never land on the
        driver; binlog_src.append_events, one atomic segment per shard)
        — riding the normal exactly-once apply path on the next run().

        ``ds`` columns: ``repo``/``path`` (required, non-null) plus any
        subset of the payload columns (``commit``/``lang``/``content``
        and registry-evolved columns); unknown columns are refused.
        Events are FULL images (the engine's wire contract): a payload
        column absent from ``ds`` becomes NULL on every loaded key —
        include the columns you want preserved, or run the lake in
        patch update_mode. ``op``: 'I' | 'U' | 'D' (payload ignored
        for 'D'). ``ident`` names the load: a re-issued ingest
        with the same ident before the next run() overwrites its own
        segments at the same lsns (merge_branch pattern) — distinct
        loads need distinct idents. Returns the event count."""
        cfg = self.cfg
        if op not in ("I", "U", "D"):
            raise ValueError(f"op must be I/U/D, got {op!r}")
        if not ident or any(c in ident for c in "/\\.-"):
            raise ValueError(f"invalid ingest ident {ident!r} — no path "
                             "separators, dots or dashes (it names the "
                             "segment files)")
        reg = SchemaRegistry.load(cfg.lake_dir)
        evolved = reg.columns_at(reg.version)
        known = {"repo", "path", "commit", "lang", "content", *evolved}
        cols = ds.schema().names
        unknown = sorted(set(cols) - known)
        if unknown:
            raise ValueError(f"ingest_dataset: unknown columns {unknown} "
                             f"(lake schema: {sorted(known)})")
        if "repo" not in cols or "path" not in cols:
            raise ValueError("ingest_dataset needs repo and path columns")

        def to_events(t: pa.Table) -> pa.Table:
            for k in ("repo", "path"):
                if t[k].null_count:
                    raise ValueError(f"ingest_dataset: null {k} in input")
            return binlog_src.row_image_events(t, evolved, op=op)

        return binlog_src.append_events(
            cfg.binlog_dir, ds.map_batches(to_events, batch_format="pyarrow"),
            "ing", ident=ident, schema_ver=reg.version)

    def archive_binlog(self) -> int:
        """Retire binlog segments every partition has committed past (max
        lsn <= the lake's slowest-partition watermark) into
        ``binlog/_archive/``, keeping each shard's newest segment so the
        shard stays visible to safe_frontier. Pure metadata operation —
        no Ray tasks, no data read beyond parquet footers (text tiers:
        one lsn-column parse per candidate file)."""
        ms = load_manifests(self.cfg.lake_dir)
        if not ms:
            return 0
        wm = min(m.upto_lsn for m in ms.values())
        return binlog_src.archive_binlog(self.cfg.binlog_dir, wm)

    def replay_dlq(self, fix: "object | None" = None) -> int:
        """Kafka-Connect-style DLQ reprocessing: run the dead-lettered
        events through a repair transform (`fix`: a
        ``Callable[[pa.Table], pa.Table]``), re-validate, and re-inject
        the now-valid ones into the BINLOG at fresh lsns so they ride the
        normal exactly-once apply path on the next run(). Rows the fix
        does not repair stay dead-lettered (consolidated back into the
        DLQ); consumed originals are archived under ``_dlq/replayed/``.

        Semantics match Kafka DLQ re-produce: a repaired event becomes
        the LATEST version of its key (last-writer-wins at replay time),
        even if a newer legitimate update landed while it sat in the DLQ.
        Within one replay, same-key events keep their original relative
        order (fresh lsns are assigned in original-lsn order per shard).

        Crash window: dying between the segment write and the archive
        step makes a re-issued replay write the same repaired payloads
        again at higher lsns — duplicates with identical content that the
        upsert folds to the same final row (benign, documented).

        Returns the number of events re-injected."""
        import glob as _glob

        from thor_ray.ops.relational import dedup_by_key

        cfg = self.cfg
        dlq_dir = os.path.join(cfg.lake_dir, "_dlq")
        files = sorted(_glob.glob(os.path.join(dlq_dir, "dlq-*.parquet")))
        if not files:
            return 0
        base_lsn = binlog_src.max_lsn(cfg.binlog_dir)
        ds = ray.data.read_parquet(files)

        def strip_marker(t: pa.Table) -> pa.Table:
            # CHECK-constraint DLQ rows carry the _violation marker; the
            # fix and the re-injected wire events must not see it
            if "_violation" in t.column_names:
                t = t.drop_columns(["_violation"])
            return t

        ds = ds.map_batches(strip_marker, batch_format="pyarrow")
        # at-least-once delivery can dead-letter one event several times
        # (and across epochs): one replay per original lsn. DLQ rows carry
        # the APPLY_COLS projection (no txn/ddl/ts), so order on lsn itself
        ds = dedup_by_key(ds, ["lsn"], "lsn")
        if fix is not None:
            ds = ds.map_batches(fix, batch_format="pyarrow")
        # still-invalid rows after the fix go to a side dir (so the glob
        # above never races its own output), merged back into the DLQ at
        # the end; re-validation includes the configured CHECK constraints
        pend = dlq_dir + ".pending"
        rules = _dlq_rules(cfg.update_mode)
        names = ["op_verb", "key_present", "content_present"]
        if cfg.constraints:
            rules += [r for _, r in cfg.constraints]
            names += [f"check:{n}" for n, _ in cfg.constraints]
        ds = ds.map_batches(
            chain_mod.dlq_stage(pend, rules, tag=f"rpl{base_lsn}-",
                                names=names if cfg.constraints else None),
            batch_format="pyarrow")

        # fresh lsns in original-lsn order within the shard → same-key
        # events keep their original relative order; DLQ rows carry the
        # APPLY_COLS projection, append_events synthesizes txn/ddl/ts
        n = binlog_src.append_events(cfg.binlog_dir, ds, "rpl",
                                     order_by="lsn")

        # commit the consumption: archive originals, surface the remainder
        arch = os.path.join(dlq_dir, "replayed")
        os.makedirs(arch, exist_ok=True)
        for f in files:
            os.replace(f, os.path.join(arch, os.path.basename(f)))
        for f in _glob.glob(os.path.join(pend, "dlq-*.parquet")):
            os.replace(f, os.path.join(dlq_dir, os.path.basename(f)))
        if os.path.isdir(pend) and not os.listdir(pend):
            os.rmdir(pend)
        return n

    # ---- results ---------------------------------------------------------
    def final_table(self, keep_internal: bool = False) -> "ray.data.Dataset":
        from thor_ray.sources.lake import read_lake

        return read_lake(self.cfg.lake_dir, keep_internal=keep_internal)

    def snapshots(self) -> list[int]:
        """Epochs readable via table_at (requires retain_snapshots > 0)."""
        from thor_ray.state import snapshot_epochs

        return snapshot_epochs(self.cfg.lake_dir)

    def restore(self, epoch: int | None = None,
                tag: str | None = None) -> int:
        """Point-in-time RESTORE (Delta-RESTORE analogue): make a
        retained snapshot the lake's head IN PLACE — manifests,
        watermarks and the schema registry roll back to the epoch;
        archives and savepoint tags past it are pruned (they describe a
        rolled-back future). A subsequent run() re-applies the binlog
        from the restored watermark — the rewind-and-replay repair loop:
        quarantine bad segments, restore, re-run. State files from the
        rolled-back epochs stay on disk and are overwritten
        deterministically by the replay (the same crash-orphan rule the
        exactly-once design already relies on).

        Downstream consumers (changefeed groups, sinks, views) that
        consumed past the restore point hold offsets into a rewritten
        future — seek()/rebuild() them explicitly; restore does not
        touch their state. Returns the restored epoch."""
        import glob as _glob

        from thor_ray.state import (delete_tag, load_manifests_at,
                                    snapshot_active)
        from thor_ray.state.manifest import _history_dir  # noqa: SLF001

        cfg = self.cfg
        if tag is not None:
            if epoch is not None:
                raise ValueError("pass epoch or tag, not both")
            tags = self.tags()
            if tag not in tags:
                raise KeyError(f"no savepoint tag {tag!r} "
                               f"(have {sorted(tags)})")
            epoch = tags[tag]
        if epoch is None:
            raise ValueError("restore needs an epoch or a tag")
        if snapshot_active(cfg.lake_dir):
            raise ValueError("cannot restore while an incremental "
                             "snapshot is in progress")
        cur = load_manifests(cfg.lake_dir)
        ms_k = load_manifests_at(cfg.lake_dir, epoch)
        missing = sorted(set(cur) - set(ms_k))
        if not cur or missing:
            raise ValueError(
                f"epoch {epoch} is not a restorable snapshot for "
                f"partitions {missing or 'all'} — retention must cover it")
        self._fence()   # take over; a zombie writer's commits fail closed
        ver_k = max(m.schema_ver for m in ms_k.values())
        reg = SchemaRegistry.load(cfg.lake_dir)
        # entries carry their PRE-application version (entry index ==
        # schema_ver): the entry producing version v carries v-1, so the
        # rollback keeps strictly-below-ver_k entries
        reg.entries = [e for e in reg.entries
                       if e["schema_ver"] < ver_k]
        reg.save(cfg.lake_dir)
        for m in ms_k.values():
            write_manifest(cfg.lake_dir, m)
        for p in _glob.glob(os.path.join(
                _history_dir(cfg.lake_dir), "part-*-e*.json")):
            ep = int(os.path.basename(p).rsplit("-e", 1)[1]
                     [:-len(".json")])
            if ep > epoch:
                os.remove(p)
        for name, te in list(self.tags().items()):
            if te > epoch:
                delete_tag(cfg.lake_dir, name)
        from thor_ray.state import record_restore
        record_restore(cfg.lake_dir, epoch)
        return epoch

    def unload(self, out_dir: str, by: str = "lang",
               epoch: int | None = None, tag: str | None = None,
               columns: "list[str] | None" = None,
               cluster_by: "list[str] | None" = None) -> pd.DataFrame:
        """Snapshot unload: export the lake's state (live, AS OF a
        retained ``epoch``, or AS OF a savepoint ``tag``) as a clean
        hive-partitioned parquet dataset for downstream analytics engines
        — one ``<by>=<value>/`` directory per value, resumable (a re-run
        skips complete partitions), optionally column-pruned and
        clustered for row-group stat pruning. One distributed pass;
        the groupby on ``by`` is the only wide step. Returns the
        per-partition report from write_partitioned."""
        from thor_ray.sources.sink import write_partitioned

        if tag is not None:
            if epoch is not None:
                raise ValueError("pass epoch or tag, not both")
            ds = self.table_at_tag(tag)
        elif epoch is not None:
            ds = self.table_at(epoch)
        else:
            ds = self.final_table()
        if columns is not None:
            need = {by, *(cluster_by or [])} - set(columns)
            ds = ds.select_columns(sorted(set(columns) | need))
        return write_partitioned(ds, out_dir, by, cluster_by=cluster_by)

    def status(self) -> dict:
        """One-call ops summary — METADATA ONLY (manifests, registry,
        markers, parquet footers; no Ray jobs, no data reads): epochs and
        watermarks, binlog frontier and lag, schema version, retained
        snapshots, savepoint tags, consumer-group offsets, DLQ backlog,
        and the newest epoch's lineage record (None before the first)."""
        import glob as _glob

        from thor_ray.sources.lake import consumer_groups
        from thor_ray.state import (SchemaRegistry, list_tags,
                                    snapshot_epochs)

        cfg = self.cfg
        ms = load_manifests(cfg.lake_dir)
        eps = [m.epoch for m in ms.values()]
        wms = [m.upto_lsn for m in ms.values()]
        max_l = binlog_src.max_lsn(cfg.binlog_dir)
        frontier = binlog_src.safe_frontier(cfg.binlog_dir)
        wm_min = min(wms, default=0)
        reg = SchemaRegistry.load(cfg.lake_dir)
        groups = consumer_groups(cfg.lake_dir)
        cur = min(eps, default=0)
        return {
            "lake": cfg.lake_dir,
            "partitions": len(ms),
            "epoch": {"min": min(eps, default=0), "max": max(eps, default=0)},
            "watermark": {"min": wm_min, "max": max(wms, default=0)},
            "rows": sum(m.row_count for m in ms.values()
                        if m.row_count >= 0),
            "binlog": {"dir": cfg.binlog_dir,
                       "format": binlog_src.binlog_format(cfg.binlog_dir),
                       "shards": len(binlog_src.shard_frontiers(
                           cfg.binlog_dir)),
                       "max_lsn": max_l,
                       "safe_frontier": frontier,
                       "lag_events": max(max_l - wm_min, 0)},
            "schema_version": reg.version,
            "snapshots": snapshot_epochs(cfg.lake_dir),
            "tags": list_tags(cfg.lake_dir),
            "consumer_groups": {g: {"epoch": e, "lag": cur - e}
                                for g, e in groups.items()},
            "dlq_files": len(_glob.glob(os.path.join(
                cfg.lake_dir, "_dlq", "dlq-*.parquet"))),
            "producer": self._producer_status(),
            "last_epoch": self._last_epoch(),
        }

    def _last_epoch(self) -> "dict | None":
        """The newest lineage file's epoch record (its first line); the
        older lineage files are not read."""
        paths = glob.glob(os.path.join(self.cfg.lake_dir, "_lineage",
                                       "epoch-*.jsonl"))
        if not paths:
            return None
        with open(max(paths)) as f:
            rec = json.loads(f.readline())
        return {k: rec[k] for k in ("epoch", "wall_sec", "events_per_sec",
                                    "phase_sec")}

    def _producer_status(self) -> "dict | None":
        """BinlogProducer state file, when the log has one (write edge)."""
        p = os.path.join(self.cfg.binlog_dir, "_producer.json")
        if not os.path.exists(p):
            return None
        with open(p) as f:
            st = json.load(f)
        return {"next_lsn": st.get("next_lsn"),
                "schema_ver": st.get("schema_ver"),
                "writer_gen": st.get("writer_gen")}

    def tag(self, name: str, epoch: int | None = None,
            replace: bool = False) -> int:
        """Create a named savepoint (Iceberg-tag analogue) at `epoch`
        (default: the newest retained snapshot). The tag pins its
        archives — and through them the data files — against retention
        pruning and gc until delete_tag, so table_at_tag / branching at
        the tagged epoch stay valid indefinitely. Returns the epoch."""
        from thor_ray.state import create_tag, snapshot_epochs

        if epoch is None:
            eps = snapshot_epochs(self.cfg.lake_dir)
            if not eps:
                raise ValueError("no retained snapshots to tag — set "
                                 "CdcConfig.retain_snapshots > 0")
            epoch = eps[-1]
        create_tag(self.cfg.lake_dir, name, epoch, replace=replace)
        return epoch

    def tags(self) -> dict[str, int]:
        from thor_ray.state import list_tags

        return list_tags(self.cfg.lake_dir)

    def delete_tag(self, name: str) -> bool:
        from thor_ray.state import delete_tag

        return delete_tag(self.cfg.lake_dir, name)

    def table_at_tag(self, name: str,
                     keep_internal: bool = False) -> "ray.data.Dataset":
        """The lake AS OF a named savepoint tag."""
        tags = self.tags()
        if name not in tags:
            raise KeyError(f"no savepoint tag {name!r} "
                           f"(have {sorted(tags)})")
        return self.table_at(tags[name], keep_internal=keep_internal)

    def table_at(self, epoch: int,
                 keep_internal: bool = False) -> "ray.data.Dataset":
        """Time travel: the lake AS OF `epoch` (newest retained snapshot
        per partition with epoch <= requested). Same merge-on-read path as
        final_table — one task per partition, no shuffle."""
        from thor_ray.sources.lake import read_lake_at

        return read_lake_at(self.cfg.lake_dir, epoch,
                            keep_internal=keep_internal)
