"""Every help, usage and error text of the CLI, pinned.

`cli_texts.json` holds, for each argv, the exit code and the exact
stdout and stderr of `main(argv)` at a terminal width of 80 columns,
as Python 3.11's argparse writes them: `--help` and `-h`, `--version`,
no argument, an unknown command, and for each subcommand its `--help`,
an unknown option alone and an unknown option after the required
arguments.  `main` builds only the subcommand that its first argument
names; these texts were captured while it still built every one.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from fillperm.cli import build_parser, main

CASES = json.loads((Path(__file__).with_name("cli_texts.json")).read_text())


def texts(run, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def parse_with_every_subcommand(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    raise AssertionError(f"{argv} parsed")


@pytest.fixture(autouse=True)
def columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def test_the_pinned_texts_cover_every_subcommand():
    (subparsers,) = [a for a in build_parser()._actions if a.dest == "command"]
    helped = {case["argv"][0] for case in CASES if case["argv"][1:] == ["--help"]}
    assert helped == set(subparsers.choices) and len(helped) == 9
    assert {case["code"] for case in CASES} == {0, 64}


@pytest.mark.parametrize("case", CASES, ids=lambda case: " ".join(case["argv"]) or "-")
def test_texts_are_unchanged(case):
    assert texts(main, case["argv"]) == case


@pytest.mark.parametrize("case", CASES, ids=lambda case: " ".join(case["argv"]) or "-")
def test_one_subcommand_parses_like_all_of_them(case):
    # what argparse writes for a subcommand does not depend on the
    # others being built, whatever the Python version
    assert texts(main, case["argv"]) == texts(parse_with_every_subcommand, case["argv"])
