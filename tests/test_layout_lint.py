"""Layout lint: a per-partition bundle whose result the driver collects
runs through thor_ray.state.tasks.fan_out, not through a Ray Data plan
built only to launch tasks (from_arrow → repartition → ... → to_pandas).
The lazy Dataset sources that callers stream (read_lake, the full
changefeed, the branch diff, the tolerant JSONL read) end in map_batches
and stay legal."""

from __future__ import annotations

import ast
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "thor_ray")
DIRS = ("pipelines", "sources")


def _chain(call: ast.Call) -> list[str]:
    """Method names of a call chain, outermost first:
    `a.f(x).g().h()` → ["h", "g", "f"]."""
    names = []
    node = call
    while isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        names.append(node.func.attr)
        node = node.func.value
    return names


def _eager_launchers(tree: ast.AST) -> list[int]:
    """Line numbers of chains that end in .to_pandas() and contain
    from_arrow(...) and, after it, .repartition(...)."""
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        names = _chain(node)
        if not names or names[0] != "to_pandas":
            continue
        calls = list(reversed(names))   # innermost first
        if "from_arrow" in calls and "repartition" in calls[
                calls.index("from_arrow"):]:
            hits.append(node.lineno)
    return hits


def _sources() -> list[str]:
    out = []
    for d in DIRS:
        for dirpath, _, files in os.walk(os.path.join(ROOT, d)):
            out += [os.path.join(dirpath, f) for f in sorted(files)
                    if f.endswith(".py")]
    return out


def test_no_ray_data_task_launcher_in_pipelines_or_sources():
    files = _sources()
    assert len(files) > 5
    bad = []
    for path in files:
        with open(path) as f:
            tree = ast.parse(f.read(), filename=path)
        bad += [f"{os.path.relpath(path, ROOT)}:{ln}"
                for ln in _eager_launchers(tree)]
    assert not bad, ("collect per-partition results with "
                     "thor_ray.state.tasks.fan_out, not a Ray Data "
                     f"from_arrow/repartition/to_pandas chain: {bad}")


@pytest.mark.parametrize("src,flagged", [
    ("ray.data.from_arrow(t).repartition(4)"
     ".map_batches(f, batch_size=None).to_pandas()", True),
    ("(ray.data.from_arrow(pa.table({'pid': p}))\n .repartition(n)\n"
     " .map_batches(f)\n .to_pandas())", True),
    # lazy sources: streamed by the caller, not collected here
    ("ray.data.from_arrow(t).repartition(4).map_batches(f)", False),
    # a real exchange collected without a from_arrow launcher
    ("ds.repartition(4).map_batches(f).to_pandas()", False),
    ("ray.data.from_arrow(t).map_batches(f).to_pandas()", False),
])
def test_lint_rule(src, flagged):
    assert bool(_eager_launchers(ast.parse(src))) is flagged
