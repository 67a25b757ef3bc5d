"""The benchmark's workloads: input make-up and engine configuration.

Every size is fixed here; the only thing a run varies is the seed. A
round is one complete pass of a workload's operations on a fresh lake,
so every round attempts the same operations.
"""

from __future__ import annotations

from dataclasses import dataclass

# The engine runs in a local Ray session with this many CPUs; it must not
# exceed the host's cores (see run.py, which refuses a smaller host).
NUM_CPUS = 4

# Snapshots the engine retains for time travel.
RETAIN_SNAPSHOTS = 4

# The lookup batch: live, deleted and never-seen keys. There are enough
# live keys that almost every partition is read, so the work of a batch
# hardly depends on which keys the seed picks.
N_LOOKUP_PRESENT = 256
N_LOOKUP_DELETED = 32
N_LOOKUP_UNSEEN = 32
# Lookup batches per round; the run reports the median batch. Two keep a
# round short enough that three rounds fit a run.
LOOKUP_REPEATS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_keys: int            # base table rows bootstrapped into the lake
    n_events: int          # binlog lsns (duplicates come on top)
    epoch_size: int        # lsns per epoch
    num_partitions: int
    corrupt_rate: float    # share of malformed events (dead-letter queue work)
    # True: one run() call replays the whole log in pipelined epochs.
    # False: one run(until_lsn=k*epoch_size) call per epoch (follow() shape).
    one_call: bool = True
    ddl_every: int = 0     # lsns between DDL events; 0 = a quarter of the log

    @property
    def calls_per_round(self) -> int:
        # bootstrap, the run() calls, scan, time-travel scan, lookups
        runs = 1 if self.one_call else self.n_epochs
        return 1 + runs + 2 + LOOKUP_REPEATS

    @property
    def n_epochs(self) -> int:
        return -(-self.n_events // self.epoch_size)

    @property
    def ddl_period(self) -> int:
        # add_column / rename_column events, by default every quarter of
        # the log
        return self.ddl_every or self.n_events // 4

    @property
    def time_travel_epoch(self) -> int:
        # an earlier epoch that is still inside the retention window
        return max(1, self.n_epochs - RETAIN_SNAPSHOTS // 2)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="bulk_replay",
        why="catch-up replay in a few large pipelined epochs: read, route, "
            "spill, reduce and fold dominate and per-epoch fixed cost is small",
        n_keys=20_000, n_events=75_000, epoch_size=25_000,
        num_partitions=64, corrupt_rate=0.001),
    Workload(
        name="microbatch_tail",
        why="one 2k-event epoch per run() call, then merge-on-read scans "
            "and lookups: fixed per-epoch cost dominates",
        n_keys=10_000, n_events=8_000, epoch_size=2_000,
        num_partitions=64, corrupt_rate=0.01, one_call=False,
        # one DDL, in epoch 3, compacts every partition: the time-travel
        # scan of epoch 2 merges three-file runs, the full scan two-file
        # runs
        ddl_every=5_000),
)}

# The warm-up lake run during set-up: small, but it touches every code path
# a round uses (bootstrap, pipelined and single-epoch run, both scans,
# lookups), so worker processes and imports are warm before timing starts.
WARMUP = Workload(
    name="warmup", why="set-up", n_keys=1_000, n_events=2_000,
    epoch_size=1_000, num_partitions=8, corrupt_rate=0.01)
