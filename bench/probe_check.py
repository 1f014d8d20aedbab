"""Check that the host-speed probe does not react to the program's load.

``run.py`` scales every time by the probe it runs while a child pass
runs (:class:`run.SpeedProbe`).  If the probe read slower when the pass
used more CPU, a change to the program's CPU use or parallelism would
move the probe too, and the scaled times would hide part of it.  This
script takes probe readings, in shuffled order each round, with no
child (the parent sleeps), with a serial (``jobs=1``) pass and with a
``jobs=2`` pass of one workload on one warm store, and prints the
median reading of each and the per-round ratios to the idle reading::

    python3 bench/probe_check.py [--workload NAME] [--rounds N] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import shutil
import statistics
import sys
import tempfile
import time
from typing import List

import run

IDLE_S = 2.0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="bench/probe_check.py")
    parser.add_argument("--workload", default="ladder_warm",
                        choices=[w for w, (_, cold) in run.WORKLOADS.items()
                                 if not cold])
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--out",
                        default=str(run.SCRATCH / "probe_check.json"))
    args = parser.parse_args(argv)
    kind, _ = run.WORKLOADS[args.workload]
    run._adopt_orphans()
    run.SCRATCH.mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix="probe-", dir=run.SCRATCH))
    spec = {"kind": kind, "seed": 1, "scale": run.SCALE, "trace": False,
            "cache_dir": str(work / "store")}
    deadline = time.monotonic() + 3600.0
    probe_ms = {"idle": [], "jobs1": [], "jobs2": []}
    wall_s = {"jobs1": [], "jobs2": []}
    order = random.Random(0)
    try:
        run.spawn(work, {**spec, "role": "setup", "jobs": run.JOBS},
                  deadline)
        for _ in range(args.rounds):
            conditions = list(probe_ms)
            order.shuffle(conditions)
            for cond in conditions:
                if cond == "idle":
                    with run.SpeedProbe() as probe:
                        time.sleep(IDLE_S)
                    samples = probe.samples
                else:
                    rec = run.spawn(work, {**spec, "role": "timed",
                                           "jobs": int(cond[-1])}, deadline)
                    samples = rec["probe_s"]
                    wall_s[cond].append(rec["passes"][0]["wall_s"])
                probe_ms[cond].append(statistics.median(samples) * 1e3)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ratios = {
        cond: [x / idle for x, idle in zip(probe_ms[cond], probe_ms["idle"])]
        for cond in wall_s
    }
    for cond, values in probe_ms.items():
        print(f"{cond:6s} median probe {statistics.median(values):.4f} ms")
    for cond, values in ratios.items():
        q1, med, q3 = statistics.quantiles(values, n=4)
        print(f"{cond:6s} / idle: median {med:.3f} (quartiles {q1:.3f}, "
              f"{q3:.3f}); median raw pass {statistics.median(wall_s[cond]):.3f} s")
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "workload": args.workload, "rounds": args.rounds,
        "probe_ms": probe_ms, "raw_wall_s": wall_s,
        "ratio_to_idle": ratios,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
