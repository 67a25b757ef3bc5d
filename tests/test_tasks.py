"""thor_ray.state.tasks.fan_out: the plain-task fan-out every
driver-collected per-partition bundle runs through."""

from __future__ import annotations

import pandas as pd
import pytest
import ray

from thor_ray.state.tasks import fan_out, split


def test_fan_out_keeps_group_order_and_puts_shared_once(ray_session,
                                                        monkeypatch):
    puts = []
    real_put = ray.put

    def counting_put(value, *a, **kw):
        puts.append(value)
        return real_put(value, *a, **kw)

    monkeypatch.setattr(ray, "put", counting_put)

    def rows(group, *, table, scale):
        return pd.DataFrame({"g": group,
                             "v": [table[g] * scale for g in group]})

    table = {g: g * 10 for g in range(12)}
    groups = split(range(12), 5)
    out = fan_out(rows, groups, table=table, scale=2)
    # group order, not completion order
    assert out["g"].tolist() == list(range(12))
    assert out["v"].tolist() == [g * 20 for g in range(12)]
    assert out.index.tolist() == list(range(12))
    # one put per shared kwarg, not one per task
    assert len(groups) == 5 and len(puts) == 2
    assert table in puts and 2 in puts


def test_fan_out_empty_groups_is_empty_frame(ray_session):
    def never(group):
        raise AssertionError("no task may run")

    out = fan_out(never, [], shared=[1, 2, 3])
    assert isinstance(out, pd.DataFrame) and out.empty


def test_fan_out_raises_the_tasks_own_exception_type(ray_session):
    class Refused(ValueError):
        pass

    def refuse(group):
        if 3 in group:
            raise Refused(f"group {group} refused")
        return pd.DataFrame({"g": group})

    with pytest.raises(Refused, match=r"group \[3\] refused"):
        fan_out(refuse, [[g] for g in range(5)])


def test_split_matches_array_split_cut():
    import numpy as np

    for n_items in range(0, 20):
        for n in range(1, 8):
            want = [a.tolist() for a in
                    np.array_split(np.arange(n_items), min(n, n_items))] \
                if n_items else []
            assert split(range(n_items), n) == want
    assert split([(1, "a"), (2, "b")], 64) == [[(1, "a")], [(2, "b")]]
