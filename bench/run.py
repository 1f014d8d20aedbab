"""End-to-end benchmark: regenerate the paper's evaluation and time it.

Run one workload, or all four when ``--workload`` is left out::

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace 0|1] [--out PATH]
    python3 bench/run.py compare A.json B.json

``--trace 0`` (default) times closed-loop passes with ``jobs=2`` and
prints the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs
serial traced passes and prints the per-layer metrics.  Every pass runs
in a fresh child interpreter (``bench/child.py``) with every
``REPRO_*`` variable removed except ``REPRO_CACHE_DIR``, which points at
a scratch store under ``bench/.scratch/`` that is deleted afterwards.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(every sample, every check, the environment) goes to ``--out``.
``compare`` applies each end-to-end metric's bound to two such records.

See ``bench/README.md`` for the workloads, metrics and bounds.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import math
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional

import spans as spanlib

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCRATCH = BENCH_DIR / ".scratch"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Workload -> (pass kind run by ``child.py``, store starts empty).
WORKLOADS = {
    "figs_cold": ("figs", True),
    "figs_warm": ("figs", False),
    "ladder_warm": ("ladder", False),
    "ooo_warm": ("ooo", False),
}

#: What one pass simulates, at the paper-scale 500 iterations and the
#: default 2M-instruction budget: the benchmarks of each suite for the
#: figures, and the benchmarks of the ladder and the OOO comparison.
#: The full sets do not fit the time cap; ``bench/subsets.py`` chose
#: these subsets to match the full sets' layer shares (see
#: ``baseline/subsets.json``).
SCALE = {
    "iterations": 500,
    "figs": {"int2006": ["perlbench", "hmmer"],
             "int2000": ["perlbmk00", "vpr00"],
             "fp2006": ["dealII", "cactusADM"],
             "fp2000": ["lucas00"]},
    "ladder": ["astar", "sjeng", "gobmk", "mcf"],
    "ooo": ["hmmer", "tonto", "gamess", "namd"],
}

JOBS = min(2, os.cpu_count() or 1)
#: Set-ups per run (``setup_s`` is their median), and the least number
#: of timed passes, or of traced and untraced serial pass pairs, per
#: run however short ``--seconds`` is.  A warm workload skips its third
#: set-up when the first two already took :data:`SETUP_BUDGET_S` (the
#: ladder's always do, the others' on a slow host), and two timed passes
#: suffice, so a run stays within its share of the time cap.
SETUP_REPS = 3
SETUP_BUDGET_S = 10.0
MIN_PASSES = 2
TRACED_PAIRS = 1
#: Wall-clock budget of one workload run; no child starts after it and
#: a running child is killed at it.
DEADLINE_S = 170.0
#: Host-speed probe (see :class:`SpeedProbe`): loop iterations per
#: sample, seconds between samples, and the CPU seconds one sample
#: takes on an idle 2-CPU host.  Every reported time is the measured
#: time times ``PROBE_REF_S / probe``, the median sample taken while the
#: child ran: host seconds at the idle host's speed.
PROBE_LOOPS = 20_000
PROBE_EVERY_S = 0.05
PROBE_REF_S = 0.00125
#: ``prctl`` option (linux/prctl.h).
PR_SET_CHILD_SUBREAPER = 36


class ChildFailed(RuntimeError):
    pass


class SpeedProbe:
    """Samples how fast the host runs while a child runs.

    Shared hosts change speed by up to 2x within minutes, so every
    measured time is scaled by these samples to make runs made at
    different moments compare.  A thread of this (otherwise waiting)
    process spins a fixed loop every :data:`PROBE_EVERY_S` and records
    the CPU time it took: thread CPU time leaves out waiting for the
    child's processes but grows when the host runs slower.  The spin
    costs about 3 % of one CPU.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            start = time.thread_time()
            acc = 0
            for i in range(PROBE_LOOPS):
                acc += i * i % 7
            self.samples.append(time.thread_time() - start)
            if self._stop.wait(PROBE_EVERY_S):
                return

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


# -- child processes ----------------------------------------------------------


def child_env(cache_dir: pathlib.Path,
              tmp_dir: pathlib.Path) -> Dict[str, str]:
    """The parent's environment minus every ``REPRO_*`` knob, with the
    artifact store and temp files pointed into the scratch directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["TMPDIR"] = str(tmp_dir)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(work: pathlib.Path, spec: Dict, deadline: float) -> Dict:
    """Run ``child.py`` on ``spec`` and return its record plus
    ``spawned_at`` and the host-speed samples taken meanwhile; kills
    the child's whole process group on the way out, so no pool worker
    outlives it."""
    index = len(list(work.glob("spec-*.json")))
    spec_path = work / f"spec-{index}.json"
    out_path = work / f"out-{index}.json"
    err_path = work / f"err-{index}.txt"
    spec_path.write_text(json.dumps(spec))
    spawned_at = time.monotonic()
    with open(err_path, "w") as err, SpeedProbe() as probe:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"),
             str(spec_path), str(out_path)],
            env=child_env(pathlib.Path(spec["cache_dir"]), work),
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
            start_new_session=True,
        )
        try:
            proc.wait(timeout=max(1.0, deadline - spawned_at))
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"child killed at the {DEADLINE_S:.0f} s budget")
        finally:
            _stop_group(proc)
    if proc.returncode != 0 or not out_path.exists():
        tail = err_path.read_text()[-2000:]
        raise ChildFailed(f"child exited {proc.returncode}: {tail}")
    record = json.loads(out_path.read_text())
    record["spawned_at"] = spawned_at
    record["probe_s"] = probe.samples
    return record


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill what is left of the child's process group (after a normal
    exit, only helpers such as the shared-memory resource tracker
    outlive it) and reap every descendant, orphans included: this
    process is their subreaper (see :func:`_adopt_orphans`)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()
    for _ in range(500):
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.01)


def _adopt_orphans() -> None:
    """Have descendants whose parent exits reparented to this process
    instead of init, so :func:`_stop_group` can wait for them (Linux;
    elsewhere init reaps them)."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def store_mib(cache_dir: pathlib.Path) -> float:
    """Bytes under the store's ``traces/``, ``preps/`` and ``profiles/``."""
    total = 0
    for sub in ("traces", "preps", "profiles"):
        for path in (cache_dir / sub).rglob("*"):
            if path.is_file():
                total += path.stat().st_size
    return total / (1024 * 1024)


# -- one workload -------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: Dict = SCALE) -> Dict:
    """Run one workload: set-up, then timed passes in a closed loop for
    at least ``seconds`` (and :data:`MIN_PASSES` passes) -- or, with
    ``trace``, one untimed ``jobs=2`` pass and then pairs of traced and
    untraced serial passes (at least :data:`TRACED_PAIRS`).  Returns the
    checked record."""
    kind, cold = WORKLOADS[workload]
    _adopt_orphans()
    started = time.monotonic()
    deadline = started + DEADLINE_S
    SCRATCH.mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    stores = itertools.count()
    record = {"workload": workload, "trace": trace, "setups": [],
              "passes": [], "children": [], "errors": []}

    def child(role: str, store: pathlib.Path, jobs: int = JOBS,
              traced: bool = False) -> tuple:
        """Run one child; returns (its pass records, set-up seconds)."""
        if time.monotonic() >= deadline:
            raise ChildFailed(f"over the {DEADLINE_S:.0f} s budget")
        rec = spawn(work, {
            "kind": kind, "role": role, "seed": seed,
            "scale": scale, "jobs": jobs, "trace": traced,
            "cache_dir": str(store),
        }, deadline)
        passes = rec.pop("passes")
        spans = rec.pop("spans")
        record["children"].append(rec)
        speed = PROBE_REF_S / statistics.median(rec["probe_s"])
        for p in passes:
            p.update(role=role, spans=spans, speed=speed,
                     raw_wall_s=p["wall_s"], wall_s=p["wall_s"] * speed)
            record["passes"].append(p)
        return passes, (rec["ready_at"] - rec["spawned_at"]) * speed

    def timed(role: str, jobs: int = JOBS, traced: bool = False) -> None:
        store = warm if not cold else work / f"store-{next(stores)}"
        [p], setup_s = child(role, store, jobs, traced)
        p.update(
            peak_rss_mb=record["children"][-1]["peak_rss_mb"],
            cache_disk_mb=store_mib(store),
            sim_kips=p["committed_instructions"] / p["wall_s"] / 1000.0,
        )
        if cold:
            record["setups"].append(setup_s)
            shutil.rmtree(store)

    try:
        warm = None
        if not cold:
            for rep in range(1 if trace else SETUP_REPS):
                if rep == 2 and time.monotonic() - started >= SETUP_BUDGET_S:
                    break
                if warm is not None:
                    shutil.rmtree(warm)
                warm = work / f"store-{next(stores)}"
                _, setup_s = child("setup", warm)
                record["setups"].append(setup_s)
        loop_start = time.monotonic()
        if not trace:
            for done in itertools.count():
                if (done >= MIN_PASSES
                        and time.monotonic() - loop_start >= seconds):
                    break
                timed("timed")
        else:
            timed("e2e")
            for done in itertools.count():
                if (done >= TRACED_PAIRS
                        and time.monotonic() - loop_start >= seconds):
                    break
                # Alternate which of the pair runs first, so host drift
                # does not bias the tracing overhead.
                order = (True, False) if done % 2 == 0 else (False, True)
                for traced in order:
                    timed("traced" if traced else "untraced", jobs=1,
                          traced=traced)
    except ChildFailed as exc:
        record["errors"].append(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["wall_clock_s"] = time.monotonic() - started
    finish(record, cold)
    for p in record["passes"]:
        p["spans"] = spanlib.layer_table(p["spans"])
    return record


# -- output checks and metrics ------------------------------------------------


def check(record: Dict, cold: bool) -> List[str]:
    """Every reason the run's outputs are wrong (empty when correct)."""
    problems = list(record["errors"])
    passes = record["passes"]
    if not passes:
        return problems + ["no pass completed"]
    first = passes[0]
    for p in passes:
        label = f"{p['role']} pass"
        for key in ("digests", "simulated_cycles", "committed_instructions"):
            if p[key] != first[key]:
                problems.append(f"{label}: {key} differs from the first pass")
        if not math.isfinite(p["paper_gap_pp"]):
            problems.append(f"{label}: no paper gap (no benchmark measured)")
        if not cold and p["role"] != "setup":
            for counter in ("trace_captures", "prep_builds"):
                if p["artifacts"].get(counter, 0):
                    problems.append(f"{label}: warm pass did {counter}")
    for c in record["children"]:
        if c["repro_env"] != ["REPRO_CACHE_DIR"]:
            problems.append(f"child saw REPRO_* knobs {c['repro_env']}")
        if c["code_version"] != record["children"][0]["code_version"]:
            problems.append("code_version changed during the run")
    return problems


def _stats(samples: List[float]) -> Dict:
    return {
        "value": statistics.median(samples),
        "n": len(samples),
        "min": min(samples),
        "max": max(samples),
        "samples": samples,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(record: Dict) -> Dict[str, Dict]:
    timed = [p for p in record["passes"] if p["role"] == "timed"]
    samples = {
        "setup_s": record["setups"],
        **{name: [p[name] for p in timed] for name in (
            "wall_s", "sim_kips", "peak_rss_mb", "cache_disk_mb",
            "paper_gap_pp")},
    }
    return {m["name"]: {**_stats(samples[m["name"]]), "unit": m["unit"]}
            for m in SPEC["end_to_end"]}


#: Per-layer self-time metric -> the span name it sums (see spans.TARGETS).
SECONDS_SPANS = {
    "uarch.core.self_s": "uarch.core",
    "uarch.replay_multi.self_s": "uarch.replay_multi",
    "uarch.replay_vec.inorder_s": "uarch.replay_vec.inorder",
    "uarch.replay_vec.ooo_s": "uarch.replay_vec.ooo",
    "uarch.replay_vec.prep_build_s": "uarch.replay_vec.prep_build",
    "uarch.replay_vec.prep_attach_s": "uarch.replay_vec.prep_attach",
    "uarch.trace.encode_s": "uarch.trace.encode",
    "uarch.trace.decode_s": "uarch.trace.decode",
    "experiments.store.get_s": "experiments.store.get",
    "experiments.store.put_s": "experiments.store.put",
    "experiments.artifacts.self_s": "experiments.artifacts",
    "workloads.build_s": "workloads.build",
    "ir.lower_s": "ir.lower",
    "compiler.baseline_s": "compiler.baseline",
    "compiler.decomposed_s": "compiler.decomposed",
    "uarch.functional.self_s": "uarch.functional",
    "branchpred.measure_s": "branchpred.measure",
    "python.gc_s": spanlib.GC_SPAN,
}


def per_layer(record: Dict) -> Dict[str, Dict]:
    """Layer metrics: span self times from the traced serial passes,
    artifact and engine counters from the untimed ``jobs=2`` pass.

    Seconds here are raw host seconds: the host-speed probe tracks the
    two-CPU load of a ``jobs=2`` pass, not a serial pass on one CPU.
    """
    traced = [p for p in record["passes"] if p["role"] == "traced"]
    untraced = [p["raw_wall_s"] for p in record["passes"]
                if p["role"] == "untraced"]
    e2e = next(p for p in record["passes"] if p["role"] == "e2e")
    count = e2e["artifacts"].get

    def pair(name: str) -> tuple:
        return count(f"{name}_hits", 0), count(f"{name}_misses", 0)

    plane_attaches = count("shm_attaches", 0) + count("shm_prep_attaches", 0)
    plane_total = (plane_attaches + count("shm_publishes", 0)
                   + count("shm_prep_publishes", 0))
    counters = {
        "uarch.replay_multi.passes": count("fused_passes", 0),
        "uarch.replay_multi.points_per_pass": _ratio(
            count("fused_points", 0), count("fused_passes", 0)),
        "uarch.replay_multi.fallback_ratio": _ratio(
            count("fused_fallbacks", 0),
            count("fused_passes", 0) + count("fused_fallbacks", 0)),
        "uarch.replay_vec.prep_hit_ratio": _ratio(
            pair("prep")[0], sum(pair("prep"))),
        "experiments.artifacts.trace_hit_ratio": _ratio(
            pair("trace")[0], sum(pair("trace"))),
        "compiler.compile_hit_ratio": _ratio(
            pair("compile")[0], sum(pair("compile"))),
        "experiments.engine.parallel_efficiency": _ratio(
            e2e["job_wall_s"], JOBS * e2e["raw_wall_s"]),
        "experiments.engine.batches": e2e["batches"],
        "experiments.engine.batch_points": e2e["batch_points"],
        "experiments.plane.attach_ratio": _ratio(plane_attaches, plane_total),
    }
    untraced_wall = statistics.median(untraced) if untraced else 0.0
    per_pass = []
    for p in traced:
        table = spanlib.layer_table(p["spans"])

        def seconds(name: str) -> float:
            return table.get(name, {}).get("self_s", 0.0)

        def total(name: str, key: str) -> float:
            return table.get(name, {}).get(key, 0)

        wall = spanlib.traced_wall_s(p["spans"])
        unattributed = seconds(spanlib.ROOT_SPAN)
        values = {
            name: seconds(span) for name, span in SECONDS_SPANS.items()
        }
        values.update({
            "uarch.core.calls": total("uarch.core", "calls"),
            "uarch.core.kips": _ratio(total("uarch.core", "committed"),
                                      values["uarch.core.self_s"]) / 1000.0,
            "uarch.replay_vec.declines": (
                total("uarch.replay_vec.inorder", "declined")
                + total("uarch.replay_vec.ooo", "declined")),
            "experiments.store.get_mb": total(
                "experiments.store.get", "bytes") / (1024 * 1024),
            "experiments.store.put_mb": total(
                "experiments.store.put", "bytes") / (1024 * 1024),
            "bench.traced_wall_s": wall,
            "bench.unattributed_s": unattributed,
            "bench.self_time_coverage": _ratio(wall - unattributed, wall),
            "bench.untraced_serial_wall_s": untraced_wall,
            "bench.trace_overhead": _ratio(wall, untraced_wall) - 1.0,
        })
        per_pass.append({**values, **counters})
    return {
        m["name"]: {**_stats([v[m["name"]] for v in per_pass]),
                    "unit": m["unit"]}
        for m in SPEC["per_layer"]
    }


def finish(record: Dict, cold: bool) -> None:
    """Fold checks and metrics into ``record`` (in place)."""
    problems = check(record, cold)
    passes = record["passes"]
    record["problems"] = problems
    record["attempted"] = max(1, sum(p["jobs"] for p in passes))
    record["failed"] = sum(p["failed_jobs"] for p in passes) + len(problems)
    record["correct"] = record["failed"] == 0
    record["metrics"] = {}
    if record["correct"]:
        record["metrics"] = (per_layer(record) if record["trace"]
                             else end_to_end(record))


# -- reporting ----------------------------------------------------------------


def git_head() -> Optional[str]:
    """The checkout's commit, read from ``.git`` without running git
    (a checkout without ``.git`` has none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, seconds: float, records: List[Dict]) -> Dict:
    versions = {c["code_version"] for r in records for c in r["children"]}
    return {
        "code_version": sorted(versions),
        "git_head": git_head(),
        "nproc": os.cpu_count(),
        "jobs": JOBS,
        "seed": seed,
        "scale": SCALE,
        "seconds": seconds,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def print_metrics(record: Dict) -> None:
    name = record["workload"]
    for problem in record["problems"]:
        print(f"{name}: CHECK FAILED: {problem}")
    print(f"{name}: {record['attempted']} jobs attempted, "
          f"{record['failed']} failed (incl. output checks); "
          f"{len(record['passes'])} passes in {record['wall_clock_s']:.1f} s")
    measured = [p for p in record["passes"] if p["role"] != "setup"]
    if measured:
        speed = statistics.median(p["speed"] for p in measured)
        raw = statistics.median(p["raw_wall_s"] for p in measured)
        print(f"{name}: host speed {speed:.2f} of the reference (probe "
              f"{PROBE_REF_S / speed * 1e3:.3f} ms vs "
              f"{PROBE_REF_S * 1e3:.3f} ms); times below are scaled to "
              f"the reference; raw pass wall median {raw:.3f} s")
    for metric, m in record["metrics"].items():
        spread = (f"median of n={m['n']}, min {m['min']:.6g}, "
                  f"max {m['max']:.6g}; no high percentile with n < 10"
                  if m["n"] > 1 else "n=1")
        print(f"{name:12s} {metric:40s} {m['value']:14.6g} "
              f"{m['unit']:8s} ({spread})")


def result_line(records: List[Dict], prefix: bool) -> Dict:
    metrics = {}
    for r in records:
        for metric, m in r["metrics"].items():
            key = f"{r['workload']}.{metric}" if prefix else metric
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


# -- compare ------------------------------------------------------------------


def spread(samples: List[float]) -> float:
    """Run-to-run spread of one run's median, as a share of it: the
    distance between the quartiles of its per-pass samples, times
    sqrt(pi/2) / sqrt(n), which is how far apart the quartiles of the
    median of n such passes lie.  Infinite below two samples.  Quartiles
    are taken inclusively: with five samples the second and fourth, so
    one outlying pass does not set the spread."""
    if len(samples) < 2:
        return math.inf
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    median = statistics.median(samples)
    if not median:
        return math.inf
    return (q3 - q1) / abs(median) * math.sqrt(math.pi / 2 / len(samples))


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> tuple:
    """``(verdict, worse_share, spread)`` of B against A for one metric.

    When either side's spread is wider than ``bound`` the difference
    cannot be told from noise: ``unresolved``, unless every B sample
    beats every A sample (``improved``).  Otherwise worse by more than
    ``bound`` is ``regressed`` and better by more than ``bound`` is
    ``improved``; a smaller gain counts only with at least ten
    index-paired samples, B winning nine tenths of them, and the
    medians differing by more than A's spread.
    """
    sign = 1.0 if better == "lower" else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    if ma:
        worse = sign * (mb - ma) / abs(ma)
    else:
        worse = 0.0 if mb == ma else math.inf

    def noise_of(samples: List[float]) -> float:
        # A metric that repeats exactly (simulated, deterministic) has
        # no noise however few samples there are.
        return 0.0 if len(set(samples)) == 1 else spread(samples)

    noise = max(noise_of(a), noise_of(b))
    if noise > bound:
        all_better = all(sign * (y - x) < 0 for x in a for y in b)
        return ("improved" if all_better else "unresolved"), worse, noise
    if worse > bound:
        return "regressed", worse, noise
    if -worse > bound:
        return "improved", worse, noise
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) \
            and -worse > noise_of(a):
        return "improved", worse, noise
    return "unchanged", worse, noise


#: Run conditions two result files must share to be compared: other
#: inputs or another machine change the work, not the program's speed.
SAME_ENV = ("seed", "scale", "jobs", "nproc")
#: Bounds ``compare`` applies in place of ``BENCHMARK.json``'s.  At one
#: seed the paper gap is deterministic, so any change is real; the
#: bound in ``BENCHMARK.json`` covers its spread from seed to seed.
PINNED_SEED_BOUNDS = {"paper_gap_pp": 0.0}


def compare(path_a: str, path_b: str) -> int:
    a = json.loads(pathlib.Path(path_a).read_text())
    b = json.loads(pathlib.Path(path_b).read_text())
    differ = [k for k in SAME_ENV if a["env"][k] != b["env"][k]]
    if differ:
        for k in differ:
            print(f"compare: env.{k} differs: {a['env'][k]!r} vs "
                  f"{b['env'][k]!r}")
        print("compare: refused; rerun both with the same seed, scale, "
              "jobs and nproc")
        return 2
    tally: Dict[str, int] = {}
    for workload, ra in a["workloads"].items():
        rb = b["workloads"].get(workload)
        if rb is None or ra["trace"] or rb["trace"]:
            continue
        for m in SPEC["end_to_end"]:
            ma, mb = ra["metrics"].get(m["name"]), rb["metrics"].get(m["name"])
            if ma is None or mb is None:
                print(f"{workload:12s} {m['name']:14s} missing: unresolved")
                tally["unresolved"] = tally.get("unresolved", 0) + 1
                continue
            bound = PINNED_SEED_BOUNDS.get(m["name"], m["bound"])
            what, worse, noise = verdict(
                ma["samples"], mb["samples"], m["better"], bound)
            tally[what] = tally.get(what, 0) + 1
            change = worse if m["better"] == "lower" else -worse
            print(f"{workload:12s} {m['name']:14s} "
                  f"{ma['value']:.6g} -> {mb['value']:.6g} {m['unit']} "
                  f"({change:+.2%} of base {ma['value']:.6g} {m['unit']}, "
                  f"n={ma['n']}/{mb['n']}; spread {noise:.2%}, "
                  f"bound {bound:.0%}): {what}")
    print(", ".join(f"{k}: {v}" for k, v in sorted(tally.items())))
    return 1 if tally.get("regressed") else 0


# -- command line -------------------------------------------------------------


def main(argv: List[str]) -> int:
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="bench/run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        return compare(args.a, args.b)
    parser = argparse.ArgumentParser(prog="bench/run.py")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(SCRATCH / "results.json"))
    args = parser.parse_args(argv)
    if args.seed < 1:
        parser.error("--seed must be >= 1 (seed 0 is the TRAIN input)")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    records = []
    for name in names:
        record = measure(name, args.seed, args.seconds, bool(args.trace))
        print_metrics(record)
        records.append(record)
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "schema": 1,
        "env": environment(args.seed, args.seconds, records),
        "workloads": {r["workload"]: r for r in records},
    }, indent=1) + "\n")
    line = result_line(records, prefix=args.workload is None)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
