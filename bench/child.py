"""One measured process of a benchmark round.

Started by run.py as `python3 bench/child.py '<spec json>'` with
PYTHONPATH pointing at the checkout's `src`.  It imports the library,
builds its inputs from the seed, runs and gates the work, and prints one
JSON object as the last line of stdout.  Durations in it are in
nominal-speed seconds (see probe.py); `raw` holds the measured ones.

  setup_s         from the parent's `t0` (taken just before it started
                  this process; perf_counter is CLOCK_MONOTONIC, shared
                  by all processes) until the inputs were ready
  busy_s          from then until the last answer was checked
  speed           nominal-speed seconds per measured second, overall
  items, item_s   items done and per-item seconds (homogeneous items only)
  attempted, failed, failures
  counts          deterministic counters of the work done
  checksum        digest of the generated inputs
  rss_kb          peak RSS of this process and of its pool workers
  spans           per-layer summary, when traced

Each repetition runs in a fresh process because `search_patterns`,
`canonical_perms` and `twisting_closure` are cached per process.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import traceback
from contextlib import nullcontext, redirect_stdout

import spans
from probe import SpeedProbe
import workloads as W

E = W.EXPECTED


def run_cli(spec: dict, tracer: spans.Tracer | None, clock) -> dict:
    from fillperm import cli
    from fillperm.enumeration import root_count

    spans.api(tracer)
    job = spec["job"]
    argv = W.CLI_JOBS[job]
    ready = clock()
    buf = io.StringIO()
    span = tracer.span(f"cli.{job}") if tracer is not None else nullcontext()
    with redirect_stdout(buf), span:
        code = cli.main(argv)
    payload = json.loads(buf.getvalue())
    gate = W.Gate()
    W.gate_cli(job, code, payload, gate)
    done = clock()
    counts = {"enumeration.roots": root_count(4)}
    if job == "enumerate":
        counts["enumeration.solutions"] = payload["filling_count"]
        counts["enumeration.classes"] = payload["class_count"]
    return {"ready": ready, "done": done, "gate": gate, "counts": counts,
            "items": root_count(4), "checksum": W.checksum([argv])}


def run_census(spec: dict, tracer: spans.Tracer | None, clock) -> dict:
    from fillperm.enumeration import root_count
    from fillperm.filling import GenusContext
    from fillperm.zpiece import ZTemplate

    api, _ = spans.api(tracer)
    solutions = api.enumerate_filling(GenusContext(4))
    ordered = sorted(solutions, key=lambda fp: fp.perm.images)
    sample = [ordered[i] for i in W.census_indices(spec["seed"], len(ordered))]
    template = ZTemplate(E["template_order"], E["template_signs"])
    digest = W.checksum(fp.perm.images for fp in sample)
    ready = clock()

    gate = W.Gate()
    gate.check(len(solutions) == E["g4_solutions"],
               f"genus 4 enumeration gave {len(solutions)} solutions")
    item_s: list[tuple[float, float]] = []
    t1_sum = matches = hits = 0
    for fp in sample:
        start = clock()
        try:
            rep = api.reconstruct(fp)
            d = api.diagram_of(fp)
            back = d.to_filling_permutation()
            t1 = api.t1(api.from_filling(fp))
            genus = api.euler_genus(api.pattern_of_diagram(d))
            found = api.detect_zpieces(fp, template)
            problems = [
                what for what, ok in (
                    ("genus", rep.genus == 4),
                    ("vertex classes",
                     len(rep.vertex_classes) == E["g4_vertex_classes"]
                     and all(len(c) == 4 for c in rep.vertex_classes)),
                    ("single curves",
                     rep.alpha_is_single_curve and rep.beta_is_single_curve),
                    ("round trip", back.perm == fp.perm),
                    ("euler genus", genus == 4),
                    ("t1 range", 0 <= t1 <= E["g4_t1_max"]),
                ) if not ok
            ]
        except Exception as exc:  # an exception is a failed item, not a crash
            problems = [repr(exc)]
            t1, found = 0, []
        item_s.append((start, clock()))
        gate.check(not problems, f"{list(fp.perm.images)}: {', '.join(problems)}")
        t1_sum += t1
        matches += len(found)
        hits += bool(found)
    done = clock()
    counts = {
        "enumeration.roots": root_count(4),
        "enumeration.solutions": len(solutions),
        "gluing.t1_sum": t1_sum,
        "zpiece.matches": matches,
        "zpiece.hits": hits,
        "zpiece.scanned": len(sample),
    }
    return {"ready": ready, "done": done, "gate": gate, "counts": counts,
            "items": len(sample), "item_s": item_s, "checksum": digest}


def run_splice(spec: dict, tracer: spans.Tracer | None, clock) -> dict:
    from fillperm.enumeration import count_Lg, root_count
    from fillperm.filling import GenusContext
    from fillperm.zpiece import LSequence

    api, _ = spans.api(tracer)
    seqs = W.lseq_sample(spec["seed"])
    digest = W.checksum(seqs)
    ready = clock()

    gate = W.Gate()
    template = api.derive_template()
    gate.check((template.order, template.signs)
               == (E["template_order"], E["template_signs"]),
               f"derived template {template}")
    g3 = api.enumerate_filling(GenusContext(3))
    gate.check(len(g3) == E["g3_solutions"], f"genus 3 gave {len(g3)} solutions")

    item_s: list[tuple[float, float]] = []
    matches = hits = 0
    spliced = set()
    for fp in g3:
        for k in range(1, fp.ctx.i_min + 1):
            start = clock()
            what = f"splice vertex {k} of {list(fp.perm.images)}"
            try:
                out = api.splice(fp, k, template)
                found = api.detect_zpieces(out, template)
                ok = out.ctx.g == 5 and bool(found)
                spliced.add(out.perm)
            except Exception as exc:
                ok, found, what = False, [], f"{what}: {exc!r}"
            item_s.append((start, clock()))
            gate.check(ok, what)
            matches += len(found)
            hits += bool(found)
    gate.check(len(spliced) == E["g5_splices"], f"{len(spliced)} distinct splices")

    gate.check(count_Lg(W.LSEQ_GENUS) == E["lseq_count"],
               f"|L_{W.LSEQ_GENUS}| = {count_Lg(W.LSEQ_GENUS)}")
    built = set()
    for entries in seqs:
        what = f"build {entries}"
        try:
            out = api.build_from_sequence(LSequence(W.LSEQ_GENUS, entries), template)
            found = api.detect_zpieces(out, template)
            ok = out.ctx.g == W.LSEQ_GENUS and bool(found)
            built.add(out.perm)
        except Exception as exc:
            ok, found, what = False, [], f"{what}: {exc!r}"
        gate.check(ok, what)
        matches += len(found)
        hits += bool(found)
    gate.check(len(built) == len(seqs), f"{len(built)} distinct builds")

    patterns = 0
    for genus, crossings, key in ((2, 6, "patterns_2_6"), (3, 5, "patterns_3_5")):
        found_patterns = api.search_patterns(genus, crossings, 1000)
        gate.check(len(found_patterns) == E[key],
                   f"search_patterns({genus},{crossings}) gave {len(found_patterns)}")
        patterns += len(found_patterns)
    done = clock()
    counts = {
        "enumeration.roots": root_count(3),
        "enumeration.solutions": len(g3),
        "gluing.patterns": patterns,
        "zpiece.matches": matches,
        "zpiece.hits": hits,
        "zpiece.scanned": len(item_s) + len(seqs),
    }
    return {"ready": ready, "done": done, "gate": gate, "counts": counts,
            "items": len(item_s) + len(seqs), "item_s": item_s,
            "checksum": digest}


BODIES = {"enumerate-g4": run_cli, "census-g4": run_census,
          "splice-search": run_splice}


def main() -> int:
    spec = json.loads(sys.argv[1])
    probe = SpeedProbe()
    tracer = spans.Tracer(probe.clock) if spec["trace"] else None
    probe.start()
    try:
        out = BODIES[spec["workload"]](spec, tracer, probe.clock)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        probe.stop()
    norm = probe.normalizer()
    t0, ready, done = spec["t0"], out.pop("ready"), out.pop("done")
    gate = out.pop("gate")
    out.update(
        setup_s=norm(ready) - norm(t0),
        busy_s=norm(done) - norm(ready),
        raw={"setup_s": ready - t0, "busy_s": done - ready},
        speed=(norm(done) - norm(t0)) / (done - t0),
        probe_s=probe.total,
        item_s=[norm(end) - norm(start) for start, end in out.get("item_s", [])],
        attempted=gate.attempted, failed=gate.failed, failures=gate.failures,
        rss_kb={"self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "workers": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss},
    )
    if tracer is not None:
        out["spans"] = spans.summarize([(name, norm(start), norm(end), parent)
                                        for name, start, end, parent in tracer.spans()])
        out["span_count"] = len(tracer.start)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
