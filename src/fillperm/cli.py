"""Command-line front end.

Subcommands wrap the library one-to-one and print a single JSON document
to stdout; diagnostics go to stderr.  Exit codes: 0 success, 1 validation
failure, 2 enumeration-guard refusal, 64 bad usage, 65 unparsable input,
74 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .enumeration import (
    GuardExceeded,
    GuardSettingError,
    _conjugates,
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
from .gluing import GluingPattern, euler_genus, t1, validate
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
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {text!r}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(
                f"expected an integer <= {high}, got {text!r}")
        return value
    return convert


_positive_int = _int_in(1)
_non_negative_int = _int_in(0)
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
        text = sys.stdin.read() if path == "-" else open(path).read()
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
    ctx = GenusContext(args.genus)
    count, reps = _count_and_classify(ctx, jobs=args.jobs, force=args.force)
    payload = {
        "command": "enumerate",
        "genus": args.genus,
        "root_count": root_count(args.genus),
        "filling_count": count,
        "class_count": len(reps),
    }
    if not args.count_only:
        listed = reps if args.limit is None else reps[: args.limit]
        # validated here, for the listed representatives only
        results = [
            _perm_payload(FillingPermutation(ctx, Permutation(list(img))).perm)
            for img in listed
        ]
        if args.classes:
            # orbit-stabilizer: |G| / #{t in G : t rep t^-1 = rep}; such a
            # t keeps the first byte, so only those conjugates are built
            order = len(twisting_closure(ctx))
            for entry, img in zip(results, listed):
                fixed = sum(conj == img
                            for conj in _conjugates(ctx, img, (img[0],)))
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
    rep = validate(pat)
    if not rep.ok:
        print("invalid pattern: " + "; ".join(rep.failures), file=sys.stderr)
        return EX_VALIDATION
    _emit({"command": "t1", "i": pat.i, "t1": t1(pat),
           "genus": euler_genus(pat)}, started)
    return 0


def cmd_genus(args) -> int:
    started = time.time()
    pat = _load_pattern(args.pattern)
    rep = validate(pat)
    if not rep.ok:
        print("invalid pattern: " + "; ".join(rep.failures), file=sys.stderr)
        return EX_VALIDATION
    _emit({"command": "genus", "i": pat.i, "genus": euler_genus(pat),
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fillperm",
                     description="Minimally intersecting filling pairs: "
                                 "enumeration, verification, splicing, "
                                 "patterns, hyperbolic data.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_genus(p):
        p.add_argument("--genus", type=_genus, required=True,
                       help=f"a genus from 1 to {MAX_GENUS}")

    p = sub.add_parser("enumerate", help="enumerate filling permutations")
    add_genus(p)
    p.add_argument("--count-only", action="store_true",
                   help="report counts without the representative listing")
    p.add_argument("--classes", action="store_true",
                   help="annotate each representative with its orbit size")
    p.add_argument("--limit", type=_non_negative_int, default=None)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--force", action="store_true",
                   help="override the genus guard")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="check the three filling conditions")
    p.add_argument("perm")
    add_genus(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reconstruct", help="glue the polygon and report the surface")
    p.add_argument("perm")
    add_genus(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("extend", help="splice the two-handle piece at a vertex")
    p.add_argument("perm")
    add_genus(p)
    p.add_argument("--vertex", type=int, required=True)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("t1", help="count once-crossing curves of a pattern file")
    p.add_argument("pattern", help="pattern JSON path or - for stdin")
    p.set_defaults(func=cmd_t1)

    p = sub.add_parser("genus", help="genus of a pattern file")
    p.add_argument("pattern", help="pattern JSON path or - for stdin")
    p.set_defaults(func=cmd_genus)

    p = sub.add_parser("bounds", help="class-count bounds at a genus")
    add_genus(p)
    p.add_argument("--exact", action="store_true",
                   help="also run the enumeration for the exact count")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("hyp", help="hyperbolic quantities at a genus")
    add_genus(p)
    p.set_defaults(func=cmd_hyp)

    p = sub.add_parser("diagram", help="SVG of the identified polygon")
    p.add_argument("perm")
    add_genus(p)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_diagram)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except GuardExceeded as exc:
        print(exc, file=sys.stderr)
        return EX_GUARD
    except GuardSettingError as exc:
        print(exc, file=sys.stderr)
        return EX_USAGE
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
