"""Benchmark of the fillperm library and CLI.

    python3 bench/run.py                          # every workload, summary
    python3 bench/run.py --workload census-g4 --seed 3 --seconds 30 --trace 0

Each workload repeats rounds of fixed work until `--seconds` have passed
(at least one round).  Every round runs in fresh processes started from
here, one after another, with a fresh FILLPERM_CACHE_DIR each.  Set-up
is timed from just before a process starts until its inputs are ready,
CPU time comes from the children's rusage (pool workers included), peak
RSS from each process for itself and for its pool workers.  Timings are
in nominal-speed seconds: probe.py measures the host's speed inside
each process and scales out the slowdowns other tenants cause; the
detail line keeps the measured wall times and speeds.  Every answer is
checked against a known value; a mismatch or an exception is a failed
operation and makes the command exit 1.

With `--trace 0` the last stdout line carries the end-to-end metrics.
With `--trace 1` untraced and traced rounds alternate; the traced ones
record spans around the calls into each layer (see spans.py) and the
last line carries the per-layer metrics, including the tracing overhead.
The line before it is a JSON record of the environment, input checksum,
counters, failure ratio and per-process memory.  The library is
imported from `src` next to this directory; without it the command
exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from math import ceil
from time import perf_counter

import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")
CHILD_TIMEOUT = 150

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

_SPAN_TIMES = (
    "cli.enumerate", "cli.bounds_j1", "cli.bounds_j2",
    "enumeration.enumerate_filling", "enumeration.classify_solutions",
    "enumeration.bounds_report.j1", "enumeration.bounds_report.j2",
    "filling.twisting_closure", "filling.reconstruct",
    "gluing.from_filling", "gluing.t1", "gluing.pattern_of_diagram",
    "gluing.euler_genus", "gluing.search_patterns.2_6",
    "gluing.search_patterns.3_5",
)
_SPAN_CALLS = (
    "perms.conjugate_by", "filling.FillingPermutation",
    "diagram.diagram_of", "diagram.to_filling_permutation",
    "zpiece.derive_template", "zpiece.splice",
    "zpiece.build_from_sequence", "zpiece.detect_zpieces",
)
_LAYERS = ("cli", "perms", "enumeration", "filling", "diagram", "gluing", "zpiece")

PER_LAYER = (
    [(f"{n}.s", "s") for n in _SPAN_TIMES]
    + [m for n in _SPAN_CALLS for m in ((f"{n}.s", "s"), (f"{n}.calls", "count"))]
    + [m for n in _LAYERS for m in ((f"{n}.busy.s", "s"), (f"{n}.self.s", "s"))]
    + [
        ("enumeration.roots", "count"),
        ("enumeration.solutions", "count"),
        ("enumeration.classes", "count"),
        ("enumeration.yield", "ratio"),
        ("enumeration.jobs2_speedup", "ratio"),
        ("gluing.patterns", "count"),
        ("gluing.t1_sum", "count"),
        ("zpiece.matches", "count"),
        ("zpiece.detect_hit_ratio", "ratio"),
        ("trace.spans", "count"),
        ("trace.overhead_s", "s"),
    ]
)


# ----------------------------------------------------------------------
# One process, one round
# ----------------------------------------------------------------------


def spawn(spec: dict, tmp: str) -> dict:
    """Run one child process and return its report plus the parent's
    clock reading `t0` just before the start and the child's CPU time,
    pool workers included."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = perf_counter()
    spec = {**spec, "t0": t0}
    cache = tempfile.mkdtemp(dir=tmp, prefix="cache-")
    # A fixed hash seed keeps set and dict layouts, and so the work done,
    # the same in every process.
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0",
               FILLPERM_CACHE_DIR=cache, TMPDIR=tmp)
    env.pop("FILLPERM_GUARD", None)
    try:
        proc = subprocess.run([sys.executable, CHILD, json.dumps(spec)],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc = None
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    base = {"job": spec.get("job") or spec["workload"], "t0": t0, "cpu": cpu}
    if proc is None:
        return {**base, "error": f"timed out after {CHILD_TIMEOUT} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {**base, "error": tail[0]}
    return {**base, **json.loads(lines[-1])}


def run_round(workload: str, seed: int, trace: bool, tmp: str) -> dict:
    """One repetition of the workload's fixed work, reduced to numbers."""
    jobs = list(W.CLI_JOBS) if workload == "enumerate-g4" else [None]
    procs = [spawn({"workload": workload, "job": job, "seed": seed,
                    "trace": trace}, tmp) for job in jobs]
    failures = [f"{p['job']}: {p['error']}" for p in procs if "error" in p]
    r = {"ok": not failures, "procs": procs,
         "attempted": sum(p.get("attempted", 1) for p in procs),
         "failed": sum(p.get("failed", 1) for p in procs),
         "failures": failures + [f for p in procs for f in p.get("failures", [])]}
    if not r["ok"]:
        return r
    # Durations are in nominal-speed seconds (see probe.py); the short
    # gaps between processes are scaled by the round's average speed.
    walls = [p["setup_s"] + p["busy_s"] for p in procs]
    raw_walls = [p["raw"]["setup_s"] + p["raw"]["busy_s"] for p in procs]
    raw_wall = procs[-1]["t0"] - procs[0]["t0"] + raw_walls[-1]
    speed = sum(walls) / sum(raw_walls)
    counts: dict = {}
    spans: dict = {}
    for p in procs:
        counts.update(p["counts"])
        for k, v in p.get("spans", {}).items():
            spans[k] = spans.get(k, 0) + v
        if "span_count" in p:
            spans["trace.spans"] = spans.get("trace.spans", 0) + p["span_count"]
    r.update(
        speed=speed,
        raw_wall=raw_wall,
        setup=[p["setup_s"] for p in procs],
        wall=sum(walls) + speed * (raw_wall - sum(raw_walls)),
        cpu=sum((p["cpu"] - p["probe_s"]) * p["speed"] for p in procs),
        rate=sum(p["items"] for p in procs) / sum(p["busy_s"] for p in procs),
        # on enumerate-g4 an item is one run of the headline `enumerate`
        # command, the only homogeneous unit there
        item_s=walls[:1] if workload == "enumerate-g4"
        else [s for p in procs for s in p["item_s"]],
        rss_mb=max(max(p["rss_kb"].values()) for p in procs) / 1024,
        counts=counts,
        spans=spans,
        checksum=procs[0]["checksum"] if len(procs) == 1
        else W.checksum([p["checksum"]] for p in procs),
    )
    return r


# ----------------------------------------------------------------------
# A run: rounds until the time is up, then the metrics
# ----------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    """Medians over rounds.  Every round runs the same items in the same
    order, so each item has one latency per round.  p50 is taken over
    the items' medians.  p99 is taken over the items' best latencies: on
    a shared host about one item in ten meets a stall of its own, and
    unless every round of an item stalled, the best one is free of it;
    otherwise the tail would measure the neighbours, not the code."""
    med = statistics.median
    by_item = list(zip(*(r["item_s"] for r in rounds)))
    return {
        "setup_s": med(s for r in rounds for s in r["setup"]),
        "wall_s": med(r["wall"] for r in rounds),
        "cpu_s": med(r["cpu"] for r in rounds),
        "items_per_s": med(r["rate"] for r in rounds),
        "item_p50_ms": 1000 * percentile([med(t) for t in by_item], 0.50),
        "item_p99_ms": 1000 * percentile([min(t) for t in by_item], 0.99),
        "peak_rss_mb": med(r["rss_mb"] for r in rounds),
    }


def per_layer(traced: list[dict], plain: list[dict]) -> dict[str, float]:
    """Median over traced rounds of each span total and counter; layers
    a workload does not reach read 0."""
    def med(key: str) -> float:
        return statistics.median(r["spans"].get(key, r["counts"].get(key, 0))
                                 for r in traced)

    out = {name: med(name) for name, _ in PER_LAYER}
    ratio = lambda a, b: a / b if b else 0.0
    out["enumeration.yield"] = ratio(med("enumeration.solutions"),
                                     med("enumeration.roots"))
    out["enumeration.jobs2_speedup"] = ratio(med("enumeration.bounds_report.j1.s"),
                                             med("enumeration.bounds_report.j2.s"))
    out["zpiece.detect_hit_ratio"] = ratio(med("zpiece.hits"), med("zpiece.scanned"))
    out["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                               - statistics.median(r["wall"] for r in plain))
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run rounds for `seconds` (alternating untraced and traced ones
    when tracing) and reduce them to the reported record."""
    load_start = os.getloadavg()
    os.makedirs(TMP_ROOT, exist_ok=True)
    plain: list[dict] = []
    traced: list[dict] = []
    try:
        with tempfile.TemporaryDirectory(dir=TMP_ROOT) as tmp:
            deadline = perf_counter() + seconds
            while True:
                use_trace = trace and len(traced) < len(plain)
                (traced if use_trace else plain).append(
                    run_round(workload, seed, use_trace, tmp))
                if perf_counter() >= deadline and (traced or not trace):
                    break
    finally:
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass
    rounds = plain + traced
    good_plain = [r for r in plain if r["ok"]]
    good_traced = [r for r in traced if r["ok"]]
    checksums = sorted({r["checksum"] for r in rounds if r["ok"]})
    # one more operation: the same seed must give every round the same inputs
    attempted = sum(r["attempted"] for r in rounds) + 1
    failed = sum(r["failed"] for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    if len(checksums) != 1:
        failed += 1
        failures.append(f"input checksums differ between rounds: {checksums}")
    metrics: dict[str, float] = {}
    if good_plain:
        metrics = end_to_end(good_plain)
    if trace and good_plain and good_traced:
        metrics = per_layer(good_traced, good_plain)
    last = (good_traced or good_plain or [{}])[-1]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "samples": {"setup": sum(len(r["setup"]) for r in good_plain),
                    "item": len(good_plain[0]["item_s"]) if good_plain else 0},
        "speed": [round(r["speed"], 4) for r in rounds if r["ok"]],
        "raw_wall_s": [round(r["raw_wall"], 4) for r in rounds if r["ok"]],
        "wall_s": [round(r["wall"], 4) for r in rounds if r["ok"]],
        "checksum": checksums[0] if len(checksums) == 1 else checksums,
        "counts": last.get("counts", {}),
        "rss_mb": [{"job": p["job"],
                    **{k: round(v / 1024, 1) for k, v in p["rss_kb"].items()}}
                   for p in last.get("procs", []) if "rss_kb" in p],
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": failures[:10],
        "load_avg": {"start": load_start, "end": os.getloadavg()},
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout, read from `.git` without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "nproc": os.cpu_count()}


def result_line(records: list[dict], units: dict[str, str], prefix: bool) -> dict:
    """The result record: exactly correct, attempted, failed and metrics."""
    metrics = {}
    for rec in records:
        for name, value in rec["metrics"].items():
            key = f"{rec['workload']}/{name}" if prefix else name
            metrics[key] = {"value": value, "unit": units[name]}
    failed = sum(r["failed"] for r in records)
    return {"correct": failed == 0,
            "attempted": sum(r["attempted"] for r in records),
            "failed": failed, "metrics": metrics}


def print_table(rec: dict, units: dict[str, str]) -> None:
    print(f"# {rec['workload']} seed={rec['seed']} rounds={rec['rounds']}"
          f" traced_rounds={rec['traced_rounds']} samples={rec['samples']}"
          f" checksum={rec['checksum']}")
    for name, value in rec["metrics"].items():
        print(f"{rec['workload']:14} {name:36} {value:14.6g} {units[name]}")
    print(f"{rec['workload']:14} {'fail_ratio':36} {rec['fail_ratio']:14.6g}"
          f" ({rec['failed']}/{rec['attempted']})")
    for failure in rec["failures"]:
        print(f"{rec['workload']:14} FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=W.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fillperm", "__init__.py")):
        print(f"fillperm sources not found under {SRC}", file=sys.stderr)
        return 2

    units = dict(END_TO_END + tuple(PER_LAYER))
    env = environment()
    names = W.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        rec = measure(name, args.seed, args.seconds, bool(args.trace))
        rec["env"] = env
        records.append(rec)
        print_table(rec, units)
        print(json.dumps({k: v for k, v in rec.items() if k != "metrics"}))
    result = result_line(records, units, prefix=len(records) > 1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
