"""Choose the benchmarks one pass of each workload runs, by measurement.

A pass over the paper's full benchmark sets (all 55 benchmarks for the
figures, the 12 INT 2006 benchmarks for the ladder, the 29 INT and FP
2006 benchmarks for the OOO comparison) takes longer than the
benchmark's time cap allows, so each workload runs a subset.  This
script picks the subsets so that they spend their time in the same
layers as the full sets::

    python3 bench/subsets.py [--seed N] [--out PATH] [--reuse PATH]

1. One traced serial pass over each full set gives the reference layer
   shares (the figures: a cold pass, then a warm pass on its store).
2. One traced serial pass per benchmark gives each benchmark's layer
   seconds; a subset's shares are their sums.
3. Greedy forward selection, then one-for-one swaps, minimise the
   largest share difference over the workload's layers, within a time
   budget (:data:`BUDGET_S`) and keeping the required members: the
   ladder's four hard benchmarks, and for the figures at least one
   benchmark of every suite.
4. A traced pass over each chosen subset measures its shares, which are
   printed beside the full set's.

``--reuse`` takes the measurements of steps 1-2 from an earlier output
file and only chooses and validates.  Shares leave out the pass's own
glue (the root span), which a per-benchmark pass repeats, and the
garbage collector, whose cost grows with the pass's heap and not with
which benchmarks it runs; its share of the whole is printed apart.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys
import tempfile
import time
from typing import Dict, List

import run
import spans as spanlib

sys.path.insert(0, str(run.ROOT / "src"))
from repro.experiments.sensitivity import HARD_BENCHMARKS  # noqa: E402
from repro.workloads import SUITES  # noqa: E402

#: Full benchmark set of each pass kind.
FIG_SUITES = ("int2006", "int2000", "fp2006", "fp2000")
POOLS = {
    "figs": [b for suite in FIG_SUITES for b in SUITES[suite]],
    "ladder": list(SUITES["int2006"]),
    "ooo": SUITES["int2006"] + SUITES["fp2006"],
}
REQUIRED = {"figs": [], "ladder": list(HARD_BENCHMARKS), "ooo": []}
#: Workloads whose shares a kind's subset must match.
WORKLOADS = {
    "figs": ("figs_cold", "figs_warm"),
    "ladder": ("ladder_warm",),
    "ooo": ("ooo_warm",),
}
#: Serial traced seconds a subset may take: the summed walls of its
#: benchmarks' own passes, over the kind's workloads.  They keep a run
#: of every workload, set-up included, within its share of the
#: benchmark's time cap on a host running at half speed.  The ladder's
#: four required benchmarks alone take 11.7 s, so the ladder gets no
#: more.
BUDGET_S = {"figs": 9.0, "ladder": 12.0, "ooo": 1.6}
CHILD_DEADLINE_S = 900.0


def scale_for(kind: str, names: List[str], iterations: int) -> Dict:
    """A ``run.SCALE``-shaped dict whose ``kind`` pass runs ``names``."""
    scale = {"iterations": iterations, "figs": {}, "ladder": [], "ooo": []}
    if kind == "figs":
        scale["figs"] = {suite: [b for b in SUITES[suite] if b in names]
                         for suite in FIG_SUITES}
    else:
        scale[kind] = [b for b in POOLS[kind] if b in names]
    return scale


def traced_tables(kind: str, names: List[str], seed: int,
                  work: pathlib.Path) -> Dict[str, Dict]:
    """Layer table and traced wall of each of ``kind``'s workloads for
    one serial traced pass over ``names``, each in a fresh child."""
    store = pathlib.Path(tempfile.mkdtemp(prefix="store-", dir=work))
    spec = {"kind": kind, "seed": seed,
            "scale": scale_for(kind, names, run.SCALE["iterations"]),
            "cache_dir": str(store)}
    deadline = time.monotonic() + CHILD_DEADLINE_S
    if kind != "figs":
        run.spawn(work, {**spec, "role": "setup", "jobs": run.JOBS,
                         "trace": False}, deadline)
    out = {}
    for workload in WORKLOADS[kind]:
        rec = run.spawn(work, {**spec, "role": "timed", "jobs": 1,
                               "trace": True}, deadline)
        [p] = rec["passes"]
        if p["failed_jobs"]:
            raise run.ChildFailed(f"{workload} {names}: failed jobs")
        table = spanlib.layer_table(rec["spans"])
        out[workload] = {
            "wall_s": spanlib.traced_wall_s(rec["spans"]),
            "self_s": {name: row["self_s"] for name, row in table.items()
                       if name != spanlib.ROOT_SPAN},
        }
    shutil.rmtree(store)
    return out


def shares(tables: List[Dict]) -> Dict[str, float]:
    """Layer shares of the summed self times of ``tables``, garbage
    collection left out."""
    total: Dict[str, float] = {}
    for t in tables:
        for name, s in t["self_s"].items():
            if name != spanlib.GC_SPAN:
                total[name] = total.get(name, 0.0) + s
    whole = sum(total.values())
    return {name: s / whole for name, s in sorted(total.items())}


def gc_share(table: Dict) -> float:
    """Garbage collection's share of all the layers' self time."""
    return table["self_s"].get(spanlib.GC_SPAN, 0.0) / sum(
        table["self_s"].values())


def gap(kind: str, full: Dict, per: Dict, chosen: List[str]) -> float:
    """Largest layer-share difference, over ``kind``'s workloads, between
    ``chosen`` and the full set."""
    worst = 0.0
    for w in WORKLOADS[kind]:
        ref = shares([full[w]])
        sub = shares([per[b][w] for b in chosen])
        for name in set(ref) | set(sub):
            worst = max(worst, abs(ref.get(name, 0.0) - sub.get(name, 0.0)))
    return worst


def cost(kind: str, per: Dict, chosen: List[str]) -> float:
    return sum(per[b][w]["wall_s"] for b in chosen for w in WORKLOADS[kind])


def uncovered(kind: str, chosen: List[str]) -> List[str]:
    """For the figures, the benchmarks of every suite ``chosen`` leaves
    out; nothing for the other kinds."""
    if kind != "figs":
        return []
    return [b for suite in FIG_SUITES if not set(SUITES[suite]) & set(chosen)
            for b in SUITES[suite]]


def choose(kind: str, full: Dict, per: Dict) -> List[str]:
    """Greedy forward selection, then one-for-one swaps (see module)."""
    chosen = list(REQUIRED[kind])
    pool = POOLS[kind]

    def fits(names: List[str]) -> bool:
        return cost(kind, per, names) <= BUDGET_S[kind]

    def score(names: List[str]) -> float:
        return gap(kind, full, per, names)

    while True:
        candidates = [b for b in uncovered(kind, chosen) or pool
                      if b not in chosen and fits(chosen + [b])]
        if not candidates:
            break
        chosen.append(min(candidates, key=lambda b: score(chosen + [b])))
    swapped = True
    while swapped:
        swapped = False
        trials = ([into if b == out else b for b in chosen]
                  for out in chosen if out not in REQUIRED[kind]
                  for into in pool if into not in chosen)
        for trial in trials:
            if fits(trial) and not uncovered(kind, trial) and \
                    score(trial) < score(chosen) - 1e-9:
                chosen, swapped = trial, True
                break
    return [b for b in pool if b in chosen]


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="bench/subsets.py")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=str(run.SCRATCH / "subsets.json"))
    parser.add_argument("--reuse")
    args = parser.parse_args(argv)
    run._adopt_orphans()
    run.SCRATCH.mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix="subsets-", dir=run.SCRATCH))
    try:
        if args.reuse:
            measured = json.loads(pathlib.Path(args.reuse).read_text())[
                "measured"]
        else:
            measured = {}
            for kind, pool in POOLS.items():
                full = traced_tables(kind, pool, args.seed, work)
                per = {}
                for b in pool:
                    per[b] = traced_tables(kind, [b], args.seed, work)
                    print(f"{kind}: {b} " + ", ".join(
                        f"{w} {t['wall_s']:.2f} s"
                        for w, t in per[b].items()), flush=True)
                measured[kind] = {"full": full, "per_benchmark": per}
        result = {"seed": args.seed, "budget_s": BUDGET_S,
                  "measured": measured, "chosen": {}, "shares": {}}
        for kind, m in measured.items():
            chosen = choose(kind, m["full"], m["per_benchmark"])
            subset = traced_tables(kind, chosen, args.seed, work)
            result["chosen"][kind] = chosen
            print(f"\n{kind}: {len(chosen)} of {len(POOLS[kind])} "
                  f"benchmarks: {' '.join(chosen)}")
            print(f"  predicted largest share difference "
                  f"{gap(kind, m['full'], m['per_benchmark'], chosen):.1%}")
            for w in WORKLOADS[kind]:
                ref, sub = shares([m["full"][w]]), shares([subset[w]])
                result["shares"][w] = {
                    "full_wall_s": m["full"][w]["wall_s"],
                    "subset_wall_s": subset[w]["wall_s"],
                    "full_gc_share": gc_share(m["full"][w]),
                    "subset_gc_share": gc_share(subset[w]),
                    "full": ref, "subset": sub,
                }
                print(f"  {w}: serial traced wall {m['full'][w]['wall_s']:.1f}"
                      f" s full, {subset[w]['wall_s']:.1f} s subset; "
                      f"garbage collection {gc_share(m['full'][w]):.1%} "
                      f"full, {gc_share(subset[w]):.1%} subset")
                for name in sorted(ref, key=lambda n: -ref[n]):
                    print(f"    {name:32s} full {ref[name]:6.1%}  "
                          f"subset {sub.get(name, 0.0):6.1%}")
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=1) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
