"""The benchmark's own reference fold and the checks of a lake against it.

The fold is single-threaded DuckDB over the generated inputs and shares
no code with the engine or with ``thor_ray.oracle``:

* events that fail the dead-letter rules are dropped (an unknown op, a
  null key, or null content on I/U);
* one row is kept per lsn (duplicates are re-deliveries of one record);
* the last row per (repo, path) by lsn wins, over base rows at lsn 0;
* deletes remove the key.

Evolved columns are added and renamed by the DDL events; each winning
event's ``extra`` names are those of its schema version and are mapped
forward through every later rename.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

BASE_COLS = ["repo", "path", "commit", "lang", "content"]
VALID = ("op IN ('I', 'U', 'D') AND repo IS NOT NULL AND path IS NOT NULL "
         "AND (op = 'D' OR content IS NOT NULL)")


def load_inputs(fixture_dir: str) -> tuple[pa.Table, pa.Table]:
    """(base, events): the base table and every binlog row, as delivered."""
    base = pq.read_table(os.path.join(fixture_dir, "base.parquet"))
    files = sorted(glob.glob(os.path.join(fixture_dir, "binlog", "*.parquet")))
    events = pa.concat_tables([pq.read_table(f) for f in files])
    return base, events


class Reference:
    """Folds of one input at any watermark, plus the invalid-event set."""

    def __init__(self, base: pa.Table, events: pa.Table):
        self.con = duckdb.connect()
        self.con.execute("SET threads = 1")
        self.con.register("base", base)
        self.con.register("events", events)
        self.n_events = events.num_rows
        self.ddls = [
            (int(lsn), json.loads(d)) for lsn, d in self.con.execute(
                "SELECT DISTINCT lsn, ddl FROM events WHERE op = 'DDL' "
                "ORDER BY lsn").fetchall()]

    def columns_at(self, upto_lsn: int) -> tuple[list[str], list[dict]]:
        """(evolved names after every DDL at or below ``upto_lsn``, and for
        each schema version v the map {name at v: name after upto_lsn})."""
        ids: dict[str, int] = {}       # current name -> column id
        versions: list[dict[str, int]] = [dict(ids)]
        for lsn, d in self.ddls:
            if lsn > upto_lsn:
                break
            if d["action"] == "add_column":
                if "default" in d:
                    raise ValueError("reference fold has no column defaults")
                ids[d["name"]] = len(versions) * 1_000_000 + len(ids)
            elif d["action"] == "rename_column":
                ids[d["new_name"]] = ids.pop(d["name"])
            else:
                raise ValueError(f"reference fold has no {d['action']}")
            versions.append(dict(ids))
        final = {i: n for n, i in ids.items()}
        fwd = [{n: final[i] for n, i in v.items() if i in final}
               for v in versions]
        return list(ids), fwd

    def fold(self, upto_lsn: int) -> pd.DataFrame:
        """The live table after every event with lsn <= ``upto_lsn``:
        repo, path, commit, lang, content and the evolved columns, sorted
        by key."""
        rows = self.con.execute(f"""
            WITH ev AS (
                SELECT DISTINCT ON (lsn) lsn, op, repo, path, commit, lang,
                       content, extra, schema_ver
                FROM events
                WHERE lsn <= {int(upto_lsn)} AND {VALID}
                ORDER BY lsn),
            allrows AS (
                SELECT 0::BIGINT AS lsn, 'U' AS op, repo, path, commit, lang,
                       content::VARCHAR AS content, NULL::VARCHAR AS extra,
                       0 AS schema_ver
                FROM base
                UNION ALL
                SELECT lsn, op, repo, path, commit, lang, content::VARCHAR,
                       extra::VARCHAR, schema_ver
                FROM ev),
            last AS (
                SELECT * FROM allrows
                QUALIFY row_number() OVER (
                    PARTITION BY repo, path ORDER BY lsn DESC) = 1)
            SELECT repo, path, commit, lang, content, extra, schema_ver
            FROM last WHERE op <> 'D' ORDER BY repo, path
        """).fetch_arrow_table().to_pandas()
        names, fwd = self.columns_at(upto_lsn)
        evolved = {n: [None] * len(rows) for n in names}
        for i, (extra, ver) in enumerate(zip(rows["extra"], rows["schema_ver"])):
            if not extra:
                continue
            m = fwd[int(ver)]
            for k, v in json.loads(extra).items():
                if k in m:
                    evolved[m[k]][i] = None if v is None else str(v)
        out = rows[BASE_COLS].copy()
        for n in names:
            out[n] = evolved[n]
        return out.reset_index(drop=True)

    def invalid_lsns(self) -> set[int]:
        """lsns of data events the dead-letter rules reject."""
        return {int(r[0]) for r in self.con.execute(
            f"SELECT DISTINCT lsn FROM events WHERE op <> 'DDL' "
            f"AND NOT coalesce({VALID}, false)").fetchall()}

    def seen_keys(self) -> set[tuple[str, str]]:
        """Every key of the base table or of a valid event."""
        return set(self.con.execute(
            f"SELECT repo, path FROM base UNION "
            f"SELECT repo, path FROM events WHERE {VALID}").fetchall())


def sha256_hex(values) -> list[str]:
    sha = hashlib.sha256
    return [None if v is None else sha(v.encode()).hexdigest() for v in values]


def _norm(v):
    if v is None or (isinstance(v, float) and v != v):
        return None
    return str(v)


def check_table(lake: pd.DataFrame, ref: pd.DataFrame, what: str,
                check_sha: bool) -> list[str]:
    """Problems with ``lake`` (a scan) against the reference fold ``ref``."""
    problems = []
    internal = {"_lsn", "_sha", "_op"}
    cols = [c for c in lake.columns if c not in internal]
    if sorted(cols) != sorted(ref.columns):
        problems.append(f"{what}: columns {sorted(cols)} != "
                        f"{sorted(ref.columns)}")
        return problems
    if lake.duplicated(["repo", "path"]).any():
        problems.append(f"{what}: duplicate keys")
    lk = set(zip(lake["repo"], lake["path"]))
    rk = set(zip(ref["repo"], ref["path"]))
    if lk != rk:
        problems.append(f"{what}: {len(lk - rk)} keys not in the reference, "
                        f"{len(rk - lk)} reference keys missing")
        return problems
    if check_sha:
        got = sha256_hex(lake["content"].tolist())
        bad = sum(a != b for a, b in zip(got, lake["_sha"].tolist()))
        if bad:
            problems.append(f"{what}: {bad} rows with _sha != sha256(content)")
    a = lake.sort_values(["repo", "path"]).reset_index(drop=True)
    b = ref.sort_values(["repo", "path"]).reset_index(drop=True)
    a_sha = sha256_hex(a["content"].tolist())
    b_sha = sha256_hex(b["content"].tolist())
    if a_sha != b_sha:
        n = sum(x != y for x, y in zip(a_sha, b_sha))
        problems.append(f"{what}: {n} rows with a wrong content digest")
    for c in ref.columns:
        if c in ("repo", "path", "content"):
            continue
        x = [_norm(v) for v in a[c].tolist()]
        y = [_norm(v) for v in b[c].tolist()]
        if x != y:
            n = sum(p != q for p, q in zip(x, y))
            problems.append(f"{what}: {n} rows with a wrong {c}")
    return problems


def check_dlq(lake_dir: str, expected: set[int]) -> list[str]:
    files = glob.glob(os.path.join(lake_dir, "_dlq", "*.parquet"))
    got = set()
    for f in files:
        got.update(int(v) for v in pq.read_table(f, columns=["lsn"])["lsn"]
                   .to_pylist())
    if got != expected:
        return [f"dlq: {len(got - expected)} lsns dead-lettered that are "
                f"valid, {len(expected - got)} invalid lsns missing"]
    return []


def check_lookup(found: pd.DataFrame, ref: pd.DataFrame,
                 present: list[tuple[str, str]]) -> list[str]:
    """Lookups must return exactly the reference rows of the present keys
    (and therefore nothing for deleted or never-seen keys)."""
    want = ref.merge(pd.DataFrame(present, columns=["repo", "path"]),
                     on=["repo", "path"])
    if found.empty:
        found = pd.DataFrame(columns=list(ref.columns))
    return check_table(found, want, "lookup", check_sha=False)
