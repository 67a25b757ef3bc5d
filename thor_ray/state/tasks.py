"""One fan-out of plain Ray tasks whose small results the driver collects.

Per-partition work (the epoch fold, compaction, replication, fsck, the
IVM and join-view ledgers) is a bundle of independent tasks over groups
of partition ids, each returning a few metadata rows. Plain tasks launch
in milliseconds; a Ray Data plan for such a bundle pays an operator
start-up, an all-to-all repartition and a collect.
"""

from __future__ import annotations

import pandas as pd
import ray

# Ray Data's own task options (ray.data._internal.remote_fn). A retry is
# safe: every writer in these tasks publishes under a deterministic name
# through put_atomic, so a re-run overwrites instead of duplicating.
@ray.remote(max_retries=-1,
            retry_exceptions=[ray.exceptions.RaySystemError],
            scheduling_strategy="DEFAULT")
def _call(fn, group, **shared) -> pd.DataFrame:
    return fn(group, **shared)


def split(items: list, n: int) -> list[list]:
    """`items` cut into `n` contiguous groups whose sizes differ by at
    most one (np.array_split's cut); no groups for no items."""
    items = list(items)
    n = min(n, len(items))
    q, r = divmod(len(items), n) if n else (0, 0)
    cuts = [i * q + min(i, r) for i in range(n + 1)]
    return [items[a:b] for a, b in zip(cuts, cuts[1:])]


def fan_out(fn, groups: list, **shared) -> pd.DataFrame:
    """Run `fn(group, **shared)` as one Ray task per group and concatenate
    the returned frames in group order. Each shared value is put in the
    object store once, not once per task. An exception raised in `fn`
    reaches the caller as an instance of its own type."""
    if not groups:
        return pd.DataFrame()
    refs = {k: ray.put(v) for k, v in shared.items()}
    frames = ray.get([_call.remote(fn, g, **refs) for g in groups])
    return pd.concat(frames, ignore_index=True)
