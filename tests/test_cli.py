import hashlib
import json
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from decimal import Decimal

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fillperm
from fillperm.cli import main
from fillperm.enumeration import lower_bound, root_count, upper_bound
from fillperm.filling import GenusContext, twisting_closure
from fillperm.perms import Permutation
from fillperm import gluing
from fillperm.gluing import GluingPattern
from fillperm.svg import diagram_svg


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def payload(stdout):
    data = json.loads(stdout)
    assert data["schema"] == 1
    return data


def test_enumerate_g2_count_only(capsys):
    code, out, _ = run(capsys, "enumerate", "--genus", "2", "--count-only")
    assert code == 0
    data = payload(out)
    assert data["root_count"] == 48
    assert data["filling_count"] == 0
    assert data["class_count"] == 0
    assert "results" not in data


def test_enumerate_g1_lists_representatives(capsys):
    code, out, _ = run(capsys, "enumerate", "--genus", "1")
    assert code == 0
    data = payload(out)
    assert data["class_count"] == 1
    assert data["filling_count"] == 2
    assert data["results"] == [{"images": [2, 3, 4, 1], "cycles": "(1 2 3 4) n=4"}]


def test_enumerate_classes_orbit_sizes(capsys):
    code, out, _ = run(capsys, "enumerate", "--genus", "1", "--classes")
    assert code == 0
    data = payload(out)
    assert data["results"][0]["orbit_size"] == 2


def test_orbit_sizes_match_the_explicit_orbits(capsys):
    code, out, _ = run(capsys, "enumerate", "--genus", "3", "--classes")
    assert code == 0
    results = payload(out)["results"]
    closure = twisting_closure(GenusContext(3))
    for entry in results:
        rep = Permutation(entry["images"])
        assert entry["orbit_size"] == len({rep.conjugate_by(t) for t in closure})
    assert sum(entry["orbit_size"] for entry in results) == 600


def test_huge_jobs_starts_one_worker_per_shard(capsys, pool_sizes):
    code, out, _ = run(capsys, "enumerate", "--genus", "3", "--count-only",
                       "--jobs", "5000")
    assert code == 0
    assert payload(out)["filling_count"] == 600
    # one worker per task: the search keeps the first-level choice that
    # sets s(1) = 2 and splits its second level; that level interleaves
    # one of the 2g-2 even transpositions left, in 2 orientations: 8 at g=3
    assert pool_sizes == [8]


def test_enumerate_limit(capsys):
    code, out, _ = run(capsys, "enumerate", "--genus", "3", "--limit", "2")
    assert code == 0
    data = payload(out)
    assert len(data["results"]) == 2
    assert data["class_count"] == 5


def test_enumerate_guard_refusal(capsys, monkeypatch):
    monkeypatch.setenv("FILLPERM_GUARD", "2")
    code, out, err = run(capsys, "enumerate", "--genus", "3")
    assert code == 2
    assert out == ""
    assert "guard" in err
    assert "--force" in err


def test_guard_refusal_at_a_genus_with_a_huge_root_count(capsys, monkeypatch):
    # root_count(2000) has 13,874 digits, more than str() prints
    monkeypatch.delenv("FILLPERM_GUARD", raising=False)
    code, out, err = run(capsys, "enumerate", "--genus", "2000")
    assert code == 2
    assert out == ""
    assert err == ("genus 2000 exceeds the enumeration guard (5); the run "
                   "would generate about 10^13873.5 square roots. Set "
                   "FILLPERM_GUARD or pass --force (force=True from Python) "
                   "to override.\n")


def test_force_stops_at_genus_32(capsys):
    code, out, err = run(capsys, "enumerate", "--genus", "33", "--force")
    assert code == 2
    assert out == ""
    assert err == ("genus 33 is above 32, the largest whose 8g-4 symbols "
                   "fit the enumeration's byte arrays\n")


def test_jobs_do_not_change_output(capsys):
    for genus, count in (("1", 2), ("2", 0), ("3", 600), ("4", 65856)):
        outputs = []
        for jobs in ("1", "2", "8"):
            code, out, _ = run(capsys, "enumerate", "--genus", genus,
                               "--classes", "--jobs", jobs)
            assert code == 0
            data = json.loads(out)
            assert data["filling_count"] == count
            del data["timing"]
            outputs.append(json.dumps(data, sort_keys=True))
        assert outputs[0] == outputs[1] == outputs[2]


def test_genus_5_counts(g5_listing):
    code, data = g5_listing
    assert code == 0
    assert data["schema"] == 1
    assert data["filling_count"] == 16_609_536
    assert data["class_count"] == 25_908


def test_python_m_fillperm_version():
    src = os.path.dirname(os.path.dirname(os.path.abspath(fillperm.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "fillperm", "--version"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout.strip() == fillperm.__version__


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "[2,3,4,1]", "--genus", "1")
    assert code == 0
    assert payload(out)["valid"] is True


def test_verify_fail_names_condition(capsys):
    code, out, _ = run(capsys, "verify", "[3,4,1,2]", "--genus", "1")
    assert code == 1
    data = payload(out)
    assert data["valid"] is False
    assert data["diagnostic"] == "not an n-cycle"


def test_verify_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "verify", "[1,1,3]", "--genus", "1")
    assert code == 65
    assert "not a permutation" in err


@pytest.mark.parametrize("command", ["verify", "reconstruct", "extend",
                                     "diagram"])
def test_wrong_degree_exit_65(capsys, command):
    extra = ["--vertex", "1"] if command == "extend" else []
    code, out, err = run(capsys, command, "[2,3,4,1]", "--genus", "3", *extra)
    assert code == 65
    assert out == ""
    assert err == "degree 4 does not match 8g-4 = 20\n"


@pytest.mark.parametrize("text", ["() n=1000000000000000", "(1 1000000000000000)"])
def test_huge_degree_is_refused_before_it_is_built(capsys, text):
    code, out, err = run(capsys, "verify", text, "--genus", "1")
    assert code == 65
    assert out == ""
    assert err == "degree 1000000000000000 does not match 8g-4 = 4\n"


def test_bad_flags_exit_64(capsys):
    assert main(["enumerate", "--bogus"]) == 64
    assert main(["bogus-command"]) == 64
    assert len(capsys.readouterr().err.splitlines()) == 2


def one_line_usage_error(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    return lines[0]


GENUS_COMMANDS = [
    ["enumerate"],
    ["reconstruct", "[2,3,4,1]"],
    ["verify", "[2,3,4,1]"],
    ["extend", "[2,3,4,1]", "--vertex", "1"],
    ["bounds"],
    ["hyp"],
    ["diagram", "[2,3,4,1]"],
]


@pytest.mark.parametrize("command", GENUS_COMMANDS)
@pytest.mark.parametrize("genus", ["0", "-1"])
def test_genus_must_be_positive(capsys, command, genus):
    err = one_line_usage_error(capsys, *command, "--genus", genus)
    assert "--genus" in err and "integer >= 1" in err


@pytest.mark.parametrize("command", GENUS_COMMANDS)
@pytest.mark.parametrize("genus", ["2001", "9" * 400], ids=["2001", "400-nines"])
def test_genus_above_the_limit_is_refused(capsys, monkeypatch, command, genus):
    monkeypatch.delenv("FILLPERM_GUARD", raising=False)
    err = one_line_usage_error(capsys, *command, "--genus", genus)
    assert "--genus" in err and "integer <= 2000" in err


@pytest.mark.parametrize("command,code", zip(GENUS_COMMANDS, [2, 65, 65, 65, 0, 0, 65]))
def test_genus_at_the_limit_is_accepted(capsys, monkeypatch, command, code):
    # 2 the guard refuses, 65 a permutation of degree 4, not 8g-4
    monkeypatch.delenv("FILLPERM_GUARD", raising=False)
    assert run(capsys, *command, "--genus", "2000")[0] == code


def test_negative_limit_is_refused(capsys):
    err = one_line_usage_error(capsys, "enumerate", "--genus", "3", "--limit", "-1")
    assert "--limit" in err and "integer >= 0" in err


@pytest.mark.parametrize("command", ["enumerate", "bounds"])
def test_zero_jobs_is_refused(capsys, command):
    err = one_line_usage_error(capsys, command, "--genus", "3", "--jobs", "0")
    assert "--jobs" in err


@pytest.mark.parametrize("command", [
    ["enumerate", "--genus", "3"],
    ["bounds", "--genus", "3", "--exact"],
])
def test_bad_guard_setting_exit_64(capsys, monkeypatch, command):
    monkeypatch.setenv("FILLPERM_GUARD", "abc")
    code, out, err = run(capsys, *command)
    assert code == 64
    assert out == ""
    assert err.strip() == "FILLPERM_GUARD must be an integer, got 'abc'"


def test_reconstruct(capsys):
    code, out, _ = run(capsys, "reconstruct", "[2,3,4,1]", "--genus", "1")
    assert code == 0
    data = payload(out)
    assert data["genus"] == 1
    assert data["vertex_classes"] == [[1, 4, 3, 2]]
    assert data["alpha_is_single_curve"] and data["beta_is_single_curve"]


def test_extend(capsys):
    code, out, _ = run(capsys, "extend", "[2,3,4,1]", "--genus", "1",
                       "--vertex", "1")
    assert code == 0
    data = payload(out)
    assert data["genus"] == 3
    verify_code, vout, _ = run(capsys, "verify",
                               json.dumps(data["result"]["images"]),
                               "--genus", "3")
    assert verify_code == 0


def test_extend_ignores_the_guard(capsys, monkeypatch):
    # extend splices one pair and enumerates nothing, so the guard does not apply
    monkeypatch.setenv("FILLPERM_GUARD", "1")
    code, out, _ = run(capsys, "extend", "[2,3,4,1]", "--genus", "1",
                       "--vertex", "1")
    assert code == 0
    assert payload(out)["genus"] == 3


def test_t1_and_genus_commands(capsys, tmp_path):
    path = tmp_path / "torus.json"
    path.write_text(GluingPattern.make(1, [[1, 2, -1, -2]]).to_json())
    code, out, _ = run(capsys, "t1", str(path))
    assert code == 0
    assert payload(out)["t1"] == 2
    code, out, _ = run(capsys, "genus", str(path))
    assert code == 0
    assert payload(out)["genus"] == 1


@pytest.mark.parametrize("polygon, code", [([1, 2, -1, -2], 0), ([1, -1, 2, -2], 1)],
                         ids=["valid", "invalid"])
@pytest.mark.parametrize("command", ["t1", "genus"])
def test_pattern_commands_check_the_pattern_once(capsys, tmp_path, monkeypatch,
                                                 command, polygon, code):
    calls = []
    check = gluing._check
    monkeypatch.setattr(gluing, "_check", lambda pat: calls.append(pat) or check(pat))
    path = tmp_path / "torus.json"
    path.write_text(GluingPattern.make(1, [polygon]).to_json())
    assert run(capsys, command, str(path))[0] == code
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["t1", "genus"])
def test_pattern_with_non_integer_arc_exit_65(capsys, tmp_path, command):
    path = tmp_path / "bad.json"
    path.write_text('{"i": 1, "polygons": [["a", 2, -1, -2]]}')
    code, out, err = run(capsys, command, str(path))
    assert code == 65
    assert out == ""
    assert err.startswith("bad pattern file:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("content", [b"\xff\xfe\x7b", b"[" * 100_000],
                         ids=["not-utf8", "nested-too-deep"])
@pytest.mark.parametrize("command", ["t1", "genus"])
def test_unreadable_pattern_exit_65(capsys, tmp_path, command, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run(capsys, command, str(path))
    assert code == 65
    assert out == ""
    assert err.startswith("bad pattern file:") and len(err.splitlines()) == 1


def test_t1_missing_file_exit_74(capsys):
    code, _, err = run(capsys, "t1", "/nonexistent/pattern.json")
    assert code == 74


def test_t1_invalid_pattern_exit_1(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(GluingPattern.make(1, [[1, -1, 2, -2]]).to_json())
    code, _, err = run(capsys, "t1", str(path))
    assert code == 1
    assert "invalid pattern" in err


@pytest.mark.parametrize("command", ["t1", "genus"])
def test_pattern_with_huge_arc_count_exit_1_at_once(capsys, tmp_path, command):
    # the id count is checked before any table is sized by i
    path = tmp_path / "huge.json"
    path.write_text('{"i": 1000000000000, "polygons": [[1, 2, -1, -2]]}')
    started = time.perf_counter()
    code, out, err = run(capsys, command, str(path))
    assert time.perf_counter() - started < 1.0
    assert code == 1
    assert out == ""
    assert err == "invalid pattern: each signed arc id must occur exactly once\n"


def test_bounds(capsys):
    code, out, _ = run(capsys, "bounds", "--genus", "4")
    assert code == 0
    data = payload(out)
    assert data["upper"] == 84480
    assert data["lower"] is None
    assert "even-genus" in data["lower_note"]
    code, out, _ = run(capsys, "bounds", "--genus", "3")
    assert payload(out)["lower"] == "1/100"


def test_bounds_prints_numbers_of_any_length(capsys):
    # upper and root_count have about 4,900 digits at genus 801
    code, out, err = run(capsys, "bounds", "--genus", "801")
    assert code == 0
    assert err == ""
    data = json.loads(out, parse_int=Decimal)  # no int() digit limit
    assert data["upper"] == upper_bound(801)
    assert data["root_count"] == root_count(801)
    assert data["lower"] == str(lower_bound(801))


def test_hyp_reports_discrepancy(capsys):
    code, out, _ = run(capsys, "hyp", "--genus", "3")
    assert code == 0
    data = payload(out)
    assert data["max_coincident"] == 168
    assert data["inj_radius_lower"] == pytest.approx(data["systole_lower"] / 2)
    assert "0.3253" in data["quoted_value_note"]


def test_diagram_svg(capsys, tmp_path):
    out_path = tmp_path / "torus.svg"
    code, out, _ = run(capsys, "diagram", "[2,3,4,1]", "--genus", "1",
                       "-o", str(out_path))
    assert code == 0
    root = ET.fromstring(out_path.read_text())
    assert root.tag.endswith("svg")
    assert root.attrib["version"] == "1.1"
    ns = "{http://www.w3.org/2000/svg}"
    lines = root.findall(f"{ns}line")
    chords = [l for l in lines if l.attrib.get("class") == "chord"]
    edges = [l for l in lines if l.attrib.get("class") == "edge"]
    assert len(edges) == 4
    assert len(chords) == 2
    labels = [t.text for t in root.findall(f"{ns}text")]
    assert labels == ["a1", "b1", "a1'", "b1'"]  # boundary order


def test_diagram_svg_is_pinned(g1_solutions, g3_solutions):
    digest = hashlib.sha256()
    for fp in [*g1_solutions, *g3_solutions]:
        digest.update(diagram_svg(fp).encode())
    assert digest.hexdigest()[:16] == "018cec51b7b39256"


def test_diagram_rejects_invalid(capsys, tmp_path):
    code, _, err = run(capsys, "diagram", "[3,4,1,2]", "--genus", "1",
                       "-o", str(tmp_path / "x.svg"))
    assert code == 1


GENERA = st.sampled_from(["3", "1", "2", "6", "801", "2000", "2001", "9" * 400,
                          "0", "-1", "junk"])
PERM_TEXTS = st.one_of(
    st.sampled_from([
        "[2,3,4,1]", "[4,1,2,3]", "[3,4,1,2]", "(1 2 3 4)", "() n=1000000000000000",
        "[2,7,8,1,12,13,10,17,14,11,6,3,20,15,16,19,4,5,18,9]",  # fills at g=3
    ]),
    st.text(alphabet="()[], n=-0123456789", max_size=40),
    st.text(max_size=20),
)
SMALL_INTS = st.sampled_from(["1", "2", "3", "5", "99", "0", "-1", "junk"])
PATTERN_FILES = st.one_of(
    st.binary(max_size=40),
    st.sampled_from([b'{"i": 1, "polygons": [[1, 2, -1, -2]]}', b"[" * 5000]),
    st.fixed_dictionaries({
        "i": st.one_of(st.integers(-1, 4), st.text(max_size=2)),
        "polygons": st.lists(st.lists(st.integers(-9, 9), max_size=8), max_size=3),
    }).map(lambda d: json.dumps(d).encode()),
)
GENUS = ["--genus", GENERA]
# subcommand -> (required, optional) argument groups; "pattern" and
# "output" stand for file names under tmp_path
COMMANDS = {
    "enumerate": ([GENUS], [["--count-only"], ["--classes"],
                            ["--limit", SMALL_INTS], ["--jobs", SMALL_INTS]]),
    "verify": ([[PERM_TEXTS], GENUS], []),
    "reconstruct": ([[PERM_TEXTS], GENUS], []),
    "extend": ([[PERM_TEXTS], GENUS, ["--vertex", SMALL_INTS]], []),
    "t1": ([["pattern"]], []),
    "genus": ([["pattern"]], []),
    "bounds": ([GENUS], [["--exact"], ["--jobs", SMALL_INTS]]),
    "hyp": ([GENUS], []),
    "diagram": ([[PERM_TEXTS], GENUS], [["-o", "output"]]),
}


@st.composite
def cli_argvs(draw, paths):
    """An argv for main(): a subcommand and its arguments in any order,
    now and then with one left out or one stray token added.  Genera 4
    and 5 and --force never occur, so no draw starts a long enumeration."""
    command = draw(st.sampled_from([*COMMANDS, "--version", "--help", "bogus"]))
    if command not in COMMANDS:
        return [command]
    required, optional = COMMANDS[command]
    groups = required + [group for group in optional if draw(st.booleans())]
    groups = draw(st.permutations(groups))
    if draw(st.integers(0, 7)) == 0:
        groups.pop()
    argv = [command]
    for group in groups:
        for part in group:
            if part in paths:
                argv.append(draw(st.sampled_from(paths[part])))
            else:
                argv.append(part if isinstance(part, str) else draw(part))
    if draw(st.integers(0, 7)) == 0:
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(["--bogus", "-x", "--", "--genus"])))
    return argv


@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_argv_exits_with_a_documented_code(capsys, monkeypatch, pool_sizes,
                                                 tmp_path, data):
    monkeypatch.delenv("FILLPERM_GUARD", raising=False)
    pattern = tmp_path / "pattern.json"
    pattern.write_bytes(data.draw(PATTERN_FILES))
    paths = {
        "pattern": [str(pattern), str(tmp_path / "missing.json"), str(tmp_path)],
        "output": [str(tmp_path / "out.svg"), str(tmp_path), "-"],
    }
    argv = data.draw(cli_argvs(paths))
    assert main(argv) in {0, 1, 2, 64, 65, 74}
    capsys.readouterr()
