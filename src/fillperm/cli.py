"""Command-line front end.

Subcommands wrap the library one-to-one and print a single JSON document
to stdout; diagnostics go to stderr.  Exit codes: 0 success, 1 validation
failure, 2 enumeration-guard refusal, 64 bad usage, 65 unparsable input,
74 I/O error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from math import inf

from . import __version__
from .enumeration import (
    DEFAULT_GUARD,
    MAX_ENUMERATED_GENUS,
    GuardExceeded,
    _count_and_classify,
    bounds_report,
    root_count,
)
# unused here, but the benchmark's tracer wraps these names in this module
from .enumeration import classify_solutions, enumerate_filling  # noqa: F401
from .filling import (
    FillingPermutation,
    GenusContext,
    is_filling,
    reconstruct,
    twisting_closure,
)
from .gluing import GluingPattern, _valid_genus, euler_genus, t1
from .hyperbolic import report as hyperbolic_report
from .perms import DegreeError, Permutation, format_perm, parse
from .svg import diagram_svg
from .zpiece import derive_template, splice

EX_VALIDATION = 1
EX_GUARD = 2
EX_USAGE = 64
EX_DATAERR = 65
EX_IOERR = 74

SCHEMA = 1

# Every subcommand refuses a larger --genus (exit 64).  Up to it `bounds`
# (O(g^2) big-integer work for |L_g|) answers within a second, and the
# float maths of `hyp` and of the guard's estimate cannot overflow.
MAX_GENUS = 2000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one line; `--help` prints the usage
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _int_in(low: int, high: int | None = None):
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:  # int() refuses a well-formed decimal for its length
            value = inf if re.fullmatch(r"\s*\+?\d+(_\d+)*\s*", text) else low - 1
        if value < low:
            bound = f">= {low}"
        elif high is not None and value > high:
            bound = f"<= {high}"
        elif value == inf:
            bound = f"of at most {sys.get_int_max_str_digits()} digits"
        else:
            return value
        got = (f"a {sum(map(str.isdecimal, text))}-digit number" if value == inf
               else repr(text))
        raise argparse.ArgumentTypeError(f"expected an integer {bound}, got {got}")
    return convert


_genus = _int_in(1, MAX_GENUS)


def _emit(payload: dict, started: float) -> None:
    """Write one JSON document, formatted whole first.  Python's int -> str
    limit of 4,300 digits guards parsing untrusted text; it is lifted for
    the program's own results (the genus-801 bounds have 4,900 digits)."""
    payload = {"schema": SCHEMA, "version": __version__, **payload,
               "timing": {"seconds": round(time.time() - started, 6)}}
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(payload, sort_keys=True, default=str)  # Fraction: "p/q"
    finally:
        sys.set_int_max_str_digits(limit)
    sys.stdout.write(text + "\n")


def _parse_perm(text: str, ctx: GenusContext) -> Permutation:
    """The permutation argument, which must have degree 8g-4; exit 65
    on anything else."""
    try:
        return parse(text, ctx.n)
    except DegreeError as exc:
        print(f"degree {exc.degree} does not match 8g-4 = {ctx.n}", file=sys.stderr)
        raise SystemExit(EX_DATAERR)
    except ValueError as exc:  # a PermutationError, or a number int() refuses
        print(f"parse error: {exc}", file=sys.stderr)
        raise SystemExit(EX_DATAERR)


def _filling_arg(args) -> FillingPermutation:
    """The permutation argument as a filling permutation at --genus; exit
    65 if it is not a permutation of degree 8g-4 and 1 if it does not
    fill."""
    ctx = GenusContext(args.genus)
    p = _parse_perm(args.perm, ctx)
    try:
        return FillingPermutation(ctx, p)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        raise SystemExit(EX_VALIDATION)


def _load_pattern(path: str) -> GluingPattern:
    """Exit 74 if path (- for stdin) cannot be read, 65 if it is not
    UTF-8 JSON of the pattern schema or is nested too deep to decode."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        return GluingPattern.from_json(text)
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EX_IOERR)
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        print(f"bad pattern file: {exc}", file=sys.stderr)
        raise SystemExit(EX_DATAERR)


def _perm_payload(p: Permutation) -> dict:
    return {"images": list(p.images), "cycles": format_perm(p)}


def cmd_enumerate(args) -> int:
    started = time.time()
    if args.count_only and (args.classes or args.limit is not None):
        # both shape the listing that --count-only leaves out
        args.parser.error("--count-only takes neither --classes nor --limit")
    ctx = GenusContext(args.genus)
    count, classes, reps = _count_and_classify(
        ctx, jobs=args.jobs, force=args.force, keep=not args.count_only)
    payload = {
        "command": "enumerate",
        "genus": args.genus,
        "root_count": root_count(args.genus),
        "filling_count": count,
        "class_count": classes,
    }
    if not args.count_only:
        listed = reps if args.limit is None else reps[: args.limit]
        # validated here, for the listed representatives only
        results = [
            _perm_payload(FillingPermutation(ctx, Permutation._unchecked((0, *img))).perm)
            for img, _ in listed
        ]
        if args.classes:
            # orbit-stabilizer: |G| / #{t in G : t rep t^-1 = rep}, the
            # stabiliser order found by the orderly search
            order = len(twisting_closure(ctx))
            for entry, (_, fixed) in zip(results, listed):
                entry["orbit_size"] = order // fixed
        payload["results"] = results
    _emit(payload, started)
    return 0


def cmd_verify(args) -> int:
    started = time.time()
    ctx = GenusContext(args.genus)
    p = _parse_perm(args.perm, ctx)
    ok, why = is_filling(ctx, p)
    _emit({"command": "verify", "genus": args.genus, "valid": ok,
           "diagnostic": why, **_perm_payload(p)}, started)
    return 0 if ok else EX_VALIDATION


def cmd_reconstruct(args) -> int:
    started = time.time()
    fp = _filling_arg(args)
    rep = reconstruct(fp)
    _emit({
        "command": "reconstruct",
        "genus": rep.genus,
        "vertex_classes": [list(c) for c in rep.vertex_classes],
        "alpha_is_single_curve": rep.alpha_is_single_curve,
        "beta_is_single_curve": rep.beta_is_single_curve,
        "boundary_word": list(rep.boundary_word),
    }, started)
    return 0


def cmd_extend(args) -> int:
    started = time.time()
    fp = _filling_arg(args)
    template = derive_template()
    try:
        out = splice(fp, args.vertex, template)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EX_VALIDATION
    _emit({
        "command": "extend",
        "genus": out.ctx.g,
        "vertex": args.vertex,
        "template": template.to_json(),
        "result": _perm_payload(out.perm),
    }, started)
    return 0


def cmd_t1(args) -> int:
    started = time.time()
    pat = _load_pattern(args.pattern)
    try:
        count = t1(pat)  # validates the pattern, once
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return EX_VALIDATION
    _emit({"command": "t1", "i": pat.i, "t1": count, "genus": _valid_genus(pat)},
          started)
    return 0


def cmd_genus(args) -> int:
    started = time.time()
    pat = _load_pattern(args.pattern)
    try:
        genus = euler_genus(pat)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return EX_VALIDATION
    _emit({"command": "genus", "i": pat.i, "genus": genus,
           "polygons": len(pat.polygons)}, started)
    return 0


def cmd_bounds(args) -> int:
    started = time.time()
    try:
        rep = bounds_report(args.genus, exact=args.exact, jobs=args.jobs,
                            force=args.force)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EX_USAGE
    payload = {
        "command": "bounds",
        "genus": rep.genus,
        "upper": rep.upper,
        "root_count": rep.root_count,
        "lower": rep.lower,
        "lower_note": None if rep.lower is not None
        else "not implemented (even-genus chain)",
    }
    if rep.exact_N is not None:
        payload["exact_N"] = rep.exact_N
    _emit(payload, started)
    return 0


def cmd_hyp(args) -> int:
    started = time.time()
    try:
        rep = hyperbolic_report(args.genus)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EX_USAGE
    _emit({
        "command": "hyp",
        "genus": rep.genus,
        "perimeter": rep.m_g,
        "edge_length": rep.edge_length,
        "min_pair_length": rep.min_pair_length,
        "separator_length": rep.lambda_g,
        "inj_radius_lower": rep.inj_radius_lower,
        "systole_lower": rep.systole_lower,
        "max_coincident": rep.max_coincident,
        "quoted_value_note": rep.quoted_value_note,
    }, started)
    return 0


def cmd_diagram(args) -> int:
    started = time.time()
    fp = _filling_arg(args)
    svg = diagram_svg(fp)
    try:
        if args.output == "-":
            sys.stdout.write(svg)
        else:
            with open(args.output, "w") as fh:
                fh.write(svg)
    except OSError as exc:
        print(f"cannot write {args.output}: {exc}", file=sys.stderr)
        return EX_IOERR
    if args.output != "-":
        _emit({"command": "diagram", "genus": args.genus, "output": args.output,
               "edges": fp.ctx.n, "chords": fp.ctx.n // 2},
              started)
    return 0


def _add_genus(p):
    p.add_argument("--genus", type=_genus, required=True,
                   help=f"a genus from 1 to {MAX_GENUS}")


def _add_perm(p):
    p.add_argument("perm", help="an image list [2,3,4,1] or cycles "
                                "(1 2 3 4), of degree 8g-4")


def _add_pattern(p):
    p.add_argument("pattern", help="pattern JSON path or - for stdin")


def _add_listing(p):
    p.add_argument("--count-only", action="store_true",
                   help="report counts without the representative listing; "
                        "not with --classes or --limit")
    p.add_argument("--classes", action="store_true",
                   help="annotate each representative with its orbit size")
    p.add_argument("--limit", type=_int_in(0), default=None,
                   help="list at most this many representatives")


def _add_vertex(p):
    p.add_argument("--vertex", type=int, required=True,
                   help="the crossing to splice at, from 1 to 2g-1")


def _add_exact(p):
    p.add_argument("--exact", action="store_true",
                   help="also run the enumeration for the exact count")


def _add_search_options(p):
    p.add_argument("--jobs", type=_int_in(1), default=1, metavar="N",
                   help="search in N processes from genus 5 on, at most one "
                        "per prefix of the search's first three levels (51 "
                        "at genus 5, 88 at genus 6); below genus 5 the "
                        "count runs in one process. The output does not "
                        "depend on N")
    p.add_argument("--force", action="store_true",
                   help=f"run above the genus guard ({DEFAULT_GUARD}), up "
                        f"to genus {MAX_ENUMERATED_GENUS}")


def _add_output(p):
    p.add_argument("-o", "--output", default="-",
                   help="SVG file path, or - (the default) for stdout")


# The subcommands in the order `fillperm --help` lists them: the help
# line, the arguments in the order they are added, and the handler.
_COMMANDS = {
    "enumerate": ("enumerate filling permutations",
                  (_add_genus, _add_listing, _add_search_options), cmd_enumerate),
    "verify": ("check the three filling conditions", (_add_perm, _add_genus), cmd_verify),
    "reconstruct": ("glue the polygon and report the surface",
                    (_add_perm, _add_genus), cmd_reconstruct),
    "extend": ("splice the two-handle piece at a vertex",
               (_add_perm, _add_genus, _add_vertex), cmd_extend),
    "t1": ("count once-crossing curves of a pattern file", (_add_pattern,), cmd_t1),
    "genus": ("genus of a pattern file", (_add_pattern,), cmd_genus),
    "bounds": ("class-count bounds at a genus",
               (_add_genus, _add_exact, _add_search_options), cmd_bounds),
    "hyp": ("hyperbolic quantities at a genus", (_add_genus,), cmd_hyp),
    "diagram": ("SVG of the identified polygon",
                (_add_perm, _add_genus, _add_output), cmd_diagram),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` alone when it names
    one.  Each subcommand's parser is built the same way in both, and
    its name, help, usage and errors do not depend on the others, so
    `main` builds only the one its first argument names.  The listing of
    every subcommand, in `--help` and in the invalid-choice error, is
    reached only without a named subcommand, where every one is built."""
    parser = _Parser(prog="fillperm",
                     description="Minimally intersecting filling pairs: "
                                 "enumeration, verification, splicing, "
                                 "patterns, hyperbolic data.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command in _COMMANDS else _COMMANDS:
        help_line, adders, func = _COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        for add in adders:
            add(p)
        p.set_defaults(func=func, parser=p)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except GuardExceeded as exc:
        print(exc, file=sys.stderr)
        return EX_GUARD
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
