"""Recompute the input digests recorded in the README.

    python3 lakebench/digest.py                   # canaries, all workloads
    python3 lakebench/digest.py --seeds 1-10      # and those seeds' inputs
    python3 lakebench/digest.py --seeds 1-10 --write   # update README.md

Run from the root of a checkout. Prints one README table row per input.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.getcwd())

import inputs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BEGIN, END = "<!-- digests:begin -->", "<!-- digests:end -->"


def seeds_of(spec: str) -> list[int]:
    out = []
    for part in filter(None, spec.split(",")):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="", help="e.g. 1-10 or 1,4,7")
    ap.add_argument("--write", action="store_true",
                    help="replace the table in lakebench/README.md")
    a = ap.parse_args()
    rows = []
    tmp = tempfile.mkdtemp(prefix="digest-", dir=os.path.join(os.getcwd()))
    try:
        for name, w in sorted(WORKLOADS.items()):
            runs = [("canary", inputs.CANARY_SEED, inputs.CANARY_DIV)] + [
                (str(s), s, 1) for s in seeds_of(a.seeds)]
            for label, seed, div in runs:
                d = os.path.join(tmp, f"{name}-{label}")
                inputs.make_inputs(d, w, seed, div=div)
                row = f"| {name} | {label} | {inputs.value_digest(d)} |"
                shutil.rmtree(d)
                print(row, flush=True)
                rows.append(row)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if a.write:
        text = open(inputs.README).read()
        table = "\n".join([BEGIN, "| workload | seed | input digest |",
                           "|---|---|---|", *rows, END])
        text = re.sub(re.escape(BEGIN) + ".*?" + re.escape(END),
                      lambda _: table, text, flags=re.S)
        with open(inputs.README, "w") as f:
            f.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
