"""Command line front end.

Exit codes: 0 = success / all checks pass, 1 = a verification failed,
2 = unusable input (malformed JSON, missing file, schema mismatch, an
unwritable `--out`).  Set SUPERBIALG_COLOR=0 to disable ANSI color.
`--out PATH` writes the document `--format json` would print to PATH, for
every subcommand and outcome (`_emit`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .graded import BasisMismatch
from .algebra import DependentVectors
from .bialgebra import (
    InhomogeneousInput, InvalidBialgebra, NotClosedUnderCobracket,
    check_manin_triple, cocommutator, dual_bracket, restrict,
)
from .double import build_double
from . import serialize as ser
from .verify import SECTIONS, run_fixtures

PASS, FAIL, ERROR = 0, 1, 2


def _color_enabled() -> bool:
    if os.environ.get("SUPERBIALG_COLOR", "") == "0":
        return False
    return sys.stdout.isatty()


def _mark(ok: bool) -> str:
    word = "PASS" if ok else "FAIL"
    if _color_enabled():
        code = "32" if ok else "31"
        return f"\x1b[{code}m{word}\x1b[0m"
    return word


def _load(path: str) -> dict:
    try:
        return ser.load_file(path)
    except FileNotFoundError:
        raise CliInputError(f"no such file: {path}")
    except json.JSONDecodeError as e:
        raise CliInputError(
            f"{path}: malformed JSON at line {e.lineno}, column {e.colno}")
    except ValueError as e:  # undecodable text, an over-long integer literal
        raise CliInputError(f"{path}: unreadable JSON: {e}")


class CliInputError(Exception):
    pass


def _report_lines(rep) -> list[str]:
    lines = []
    for c in rep.checks:
        line = f"{_mark(c.passed)}  {c.name}"
        if c.detail:
            line += f"  [{c.detail}]"
        lines.append(line)
    return lines


def _emit(args, doc: dict, lines: list[str]) -> None:
    """The one output rule.  `--format json` prints `doc` and nothing else;
    text prints `lines`.  `--out` gets `doc` in either format: in json mode
    instead of stdout, in text mode with a `wrote` line after the text.
    The file is written first: a path that cannot be written is a
    CliInputError before anything is printed."""
    if args.out:
        try:
            ser.dump(doc, args.out)
        except OSError as e:
            raise CliInputError(f"cannot write {args.out}: {e.strerror or e}")
    if args.format == "json":
        if not args.out:
            print(ser.dump(doc))
        return
    print("\n".join(lines))
    if args.out:
        print(f"wrote {args.out}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _report_json(rep) -> dict:
    return {"passed": rep.passed,
            "checks": [{"name": c.name, "passed": c.passed,
                        "detail": c.detail} for c in rep.checks]}


def cmd_validate(args) -> int:
    g = ser.superalgebra_from_json(_load(args.algebra))
    rep = g.validate()
    _emit(args, _report_json(rep), _report_lines(rep))
    return PASS if rep.passed else FAIL


def cmd_cocommutator(args) -> int:
    g = ser.superalgebra_from_json(_load(args.algebra))
    r = ser.tensor_from_json(_load(args.r), g.basis, 2)
    try:
        delta = cocommutator(g, r)
    except ValueError as e:  # an r that is not parity-homogeneous
        raise CliInputError(str(e))
    lines = []
    for i, lab in enumerate(g.basis.labels):
        v = delta.value(i)
        lines.append(f"d({lab}) = {v if v is not None else 0}")
    _emit(args, ser.cochain_to_json(delta), lines)
    return PASS


def cmd_double(args) -> int:
    b = ser.bialgebra_from_json(_load(args.bialgebra), check=False)
    d = build_double(b)  # verifies b, once
    _emit(args, ser.double_to_json(d),
          [f"double dimension: {d.underlying.dim()}", *_report_lines(d.axioms)])
    return PASS


def cmd_dual(args) -> int:
    b = ser.bialgebra_from_json(_load(args.bialgebra))
    dual = dual_bracket(b)
    lab, num = dual.basis.labels, dual.int_table[1]
    lines = [f"[{lab[i]}, {lab[j]}] = {dual.bracket_basis(i, j)}"
             for i, rs in enumerate(num) for j in range(i, len(rs)) if rs[j]]
    _emit(args, ser.superalgebra_to_json(dual),
          lines or ["abelian: all brackets vanish"])
    return PASS


def cmd_restrict(args) -> int:
    b = ser.bialgebra_from_json(_load(args.bialgebra))
    span_doc = _load(args.span)
    if not isinstance(span_doc, list):
        raise CliInputError("--span file must hold a JSON list of elements")
    vectors = [ser.tensor_from_json(v, b.basis, 1) for v in span_doc]
    labels = args.labels.split(",") if args.labels else None
    try:
        sub = restrict(b, vectors, labels=labels)
    except NotClosedUnderCobracket as e:
        raise NotClosedUnderCobracket(f"restriction is not closed: {e}")
    except (DependentVectors, InhomogeneousInput, ValueError) as e:
        raise CliInputError(str(e))
    _emit(args, ser.bialgebra_to_json(sub),
          [f"{_mark(True)}  restricted to a {sub.algebra.dim()}-dimensional "
           f"subbialgebra"])
    return PASS


def cmd_manin(args) -> int:
    t = ser.manin_from_json(_load(args.triple))
    rep = check_manin_triple(t)
    _emit(args, _report_json(rep), _report_lines(rep))
    return PASS if rep.passed else FAIL


def cmd_verify(args) -> int:
    if args.what != "paper":
        raise CliInputError("only 'verify paper' is available")
    results = run_fixtures(args.section)
    ok = all(r.passed for r in results)
    lines = [f"{_mark(r.passed)}  {r.name}  ({r.citation})"
             + (f"  [{r.detail}]" if r.detail else "") for r in results]
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} "
                 f"fixtures pass")
    _emit(args, {"passed": ok,
                 "fixtures": [{"name": r.name, "section": r.section,
                               "citation": r.citation, "passed": r.passed,
                               "detail": r.detail} for r in results]}, lines)
    return PASS if ok else FAIL


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="superbialg",
        description="Exact computations with Lie superbialgebra structures")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--out", help="write the --format json document "
                        "to this path")

    sp = sub.add_parser("validate", help="check superalgebra axioms")
    sp.add_argument("algebra")
    common(sp)
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("cocommutator",
                        help="coboundary of an r-matrix, per basis vector")
    sp.add_argument("algebra")
    sp.add_argument("--r", required=True, help="rank-2 tensor JSON file")
    common(sp)
    sp.set_defaults(fn=cmd_cocommutator)

    sp = sub.add_parser("double", help="build the Drinfeld double")
    sp.add_argument("bialgebra")
    common(sp)
    sp.set_defaults(fn=cmd_double)

    sp = sub.add_parser("dual", help="bracket table of the dual algebra")
    sp.add_argument("bialgebra")
    common(sp)
    sp.set_defaults(fn=cmd_dual)

    sp = sub.add_parser("restrict", help="restrict a bialgebra to a span")
    sp.add_argument("bialgebra")
    sp.add_argument("--span", required=True,
                    help="JSON file with a list of elements")
    sp.add_argument("--labels", help="comma-separated labels for the span")
    common(sp)
    sp.set_defaults(fn=cmd_restrict)

    sp = sub.add_parser("manin", help="check a Manin triple document")
    sp.add_argument("triple")
    common(sp)
    sp.set_defaults(fn=cmd_manin)

    sp = sub.add_parser("verify", help="run the reproduction suite")
    sp.add_argument("what", choices=("paper",))
    sp.add_argument("--section", default="all",
                    choices=SECTIONS + ("all",))
    common(sp)
    sp.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:  # the failure document's own --out can fail too
        try:
            return args.fn(args)
        except (InvalidBialgebra, DependentVectors,
                NotClosedUnderCobracket) as e:
            _emit(args, {"passed": False, "detail": str(e)},
                  [f"{_mark(False)}  {e}"])
            return FAIL
    except (CliInputError, ser.SchemaError, BasisMismatch) as e:
        print(f"error: {e}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
