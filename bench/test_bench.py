"""Tests of the benchmark's own logic: gates, span reduction, seeding."""

import io
import json
import os
from contextlib import redirect_stdout

import pytest

import run
import spans
import workloads as W


def test_gate_rejects_a_wrong_expected_value():
    from fillperm import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["enumerate", "--genus", "3", "--classes"])
    payload = json.loads(buf.getvalue())
    genus3 = {"g4_roots": 3840, "g4_solutions": 600, "g4_classes": 5}

    gate = W.Gate()
    W.gate_cli("enumerate", code, payload, gate, expected=genus3)
    assert (gate.attempted, gate.failed) == (1, 0)

    W.gate_cli("enumerate", code, payload, gate, expected={**genus3, "g4_classes": 6})
    assert (gate.attempted, gate.failed) == (2, 1)
    assert "class_count 5" in gate.failures[0]


def test_failed_gate_makes_the_run_fail(tmp_path, monkeypatch, capsys):
    fake = tmp_path / "child.py"
    fake.write_text(
        "import json\n"
        "print(json.dumps({'setup_s': 0.1, 'busy_s': 0.2, 'speed': 1.0,"
        " 'raw': {'setup_s': 0.1, 'busy_s': 0.2}, 'probe_s': 0.0,"
        " 'items': 1, 'item_s': [0.001], 'attempted': 2, 'failed': 1,"
        " 'failures': ['wrong answer'], 'counts': {}, 'checksum': 'c',"
        " 'rss_kb': {'self': 1024, 'workers': 0}}))\n"
    )
    monkeypatch.setattr(run, "CHILD", str(fake))
    assert run.main(["--workload", "census-g4", "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False and result["failed"] == 1
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}


def test_self_time_on_a_synthetic_span_tree():
    tree = [
        ("cli.job", 0.0, 10.0, -1),
        ("enumeration.a", 1.0, 5.0, 0),
        ("filling.FillingPermutation", 2.0, 3.0, 1),
        ("filling.FillingPermutation", 3.5, 4.0, 1),
        ("enumeration.b", 6.0, 9.0, 0),
        ("enumeration.c", 7.0, 8.0, 4),
    ]
    out = spans.summarize(tree)
    assert out["cli.self.s"] == pytest.approx(3.0)
    assert out["cli.busy.s"] == pytest.approx(10.0)
    assert out["enumeration.self.s"] == pytest.approx(2.5 + 2.0 + 1.0)
    assert out["enumeration.busy.s"] == pytest.approx(7.0)
    assert out["filling.self.s"] == out["filling.busy.s"] == pytest.approx(1.5)
    assert out["filling.FillingPermutation.calls"] == 2
    assert out["enumeration.c.s"] == pytest.approx(1.0)


def test_tracer_records_nesting_and_restores_the_library():
    from fillperm import zpiece
    from fillperm.filling import FillingPermutation, GenusContext
    from fillperm.perms import Permutation

    original = zpiece.diagram_of
    tracer = spans.Tracer()
    api, restore = spans.api(tracer)
    try:
        torus = FillingPermutation(GenusContext(1), Permutation([2, 3, 4, 1]))
        template = zpiece.ZTemplate(W.EXPECTED["template_order"],
                                    W.EXPECTED["template_signs"])
        api.splice(torus, 1, template)
    finally:
        restore()
    assert zpiece.diagram_of is original
    records = tracer.spans()
    names = [name for name, *_ in records]
    assert names[0] == "zpiece.splice" and records[0][3] == -1
    assert "diagram.diagram_of" in names
    assert all(parent == 0 for *_, parent in records[1:3])


def test_inputs_follow_the_seed():
    same = W.checksum([W.census_indices(7, 65_856)])
    assert same == W.checksum([W.census_indices(7, 65_856)])
    assert same != W.checksum([W.census_indices(8, 65_856)])
    assert W.checksum(W.lseq_sample(7, k=20)) == W.checksum(W.lseq_sample(7, k=20))
    assert W.checksum(W.lseq_sample(7, k=20)) != W.checksum(W.lseq_sample(8, k=20))


def test_attachment_sequence_ranks():
    from fillperm.enumeration import count_Lg

    counts = W.lseq_suffix_counts(W.LSEQ_GENUS)
    total = W.lseq_total(counts)
    assert total == count_Lg(W.LSEQ_GENUS) == W.EXPECTED["lseq_count"]
    assert W.unrank_lseq(counts, 0) == tuple(range(1, 11))
    assert W.unrank_lseq(counts, total - 1) == tuple(4 * i - 3 for i in range(1, 11))
    small = W.lseq_suffix_counts(7)
    assert len({W.unrank_lseq(small, r) for r in range(W.lseq_total(small))}) == count_Lg(7)


def test_benchmark_json_matches_the_metrics_reported():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
