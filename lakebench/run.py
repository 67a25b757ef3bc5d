"""Run one benchmark workload and print its result as one JSON line.

    python3 lakebench/run.py --workload bulk_replay --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The run itself happens in a fresh child
process (``worker.py``) in a process group of its own, under a time
limit: a run that hangs is killed, with every Ray process it started,
and counted as failed. The child's work directory (inputs and lakes) is
removed whatever happens. Traced runs (``--trace 1``) also write their
spans to ``.lakebench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import NUM_CPUS, WORKLOADS  # noqa: E402

TIME_LIMIT_S = 170


def group_pids(pgid: int) -> list[int]:
    out = []
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            out.append(int(d))
    return out


def stop_group(pgid: int, grace_s: float = 10.0) -> None:
    """Stop every process left in the group and wait until all are gone."""
    sig, deadline = signal.SIGTERM, time.monotonic() + grace_s
    while group_pids(pgid):
        if time.monotonic() > deadline:
            sig = signal.SIGKILL
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        time.sleep(0.2)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "thor_ray", "pipelines", "cdc.py")):
        print("lakebench: run from the root of a thor_ray checkout",
              file=sys.stderr)
        return 2
    if (os.cpu_count() or 1) < NUM_CPUS:
        print(f"lakebench: needs {NUM_CPUS} CPUs, host has {os.cpu_count()}",
              file=sys.stderr)
        return 2

    state = os.path.join(root, ".lakebench")
    work = os.path.join(state, f"run-{os.getpid()}")
    trace_out = os.path.join(state, "traces", f"{a.workload}-seed{a.seed}.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [root] + [p for p in [env.get("PYTHONPATH")] if p])
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--work", work, "--trace-out", trace_out]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=root,
                            start_new_session=True, text=True)
    # a stopped supervisor still stops the run (the finally block below)
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda n, _: sys.exit(128 + n))
    timed_out = False
    try:
        out, _ = proc.communicate(timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        timed_out = True
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
    finally:
        stop_group(proc.pid)
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(os.path.join(state, "ray"), ignore_errors=True)

    lines = out.strip().splitlines()
    results = [i for i, line in enumerate(lines) if line.startswith('{"correct"')]
    for i, line in enumerate(lines):
        if not results or i != results[-1]:
            print(line, file=sys.stderr)
    if timed_out:
        print(f"lakebench: run killed after {TIME_LIMIT_S} s", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    if proc.returncode != 0 or not results:
        print(f"lakebench: run exited with {proc.returncode}", file=sys.stderr)
        return 1
    print(json.dumps(json.loads(lines[results[-1]])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
