"""Command-line interface.

Subcommands:
  bracket FILE    Kauffman bracket polynomial in A, B, d
  jones FILE      Jones polynomial in t
  ribbon FILE     Seifert-circle ribbon graph, in the ribbon text format
  brpoly FILE     Bollobas-Riordan polynomial of the Seifert-circle graph
                  (of a ribbon-graph file directly with --graph)
  table FILE      per-state table: splitting word, (alpha, beta, delta),
                  image subgraph edge set, (k, r, n, bc, s)
  verify FILE     check the bracket / Bollobas-Riordan identity
  fuzz            verify the identity on --count random diagrams of 1 to
                  --max-crossings crossings

FILE is a diagram in the .vld format (or a ribbon graph in the .rg format
for brpoly --graph); pass - to read stdin, or give the lines inline with
--code, using ';' as a line separator.

verify prints OK, or a MISMATCH block: the bracket, the transformed
Bollobas-Riordan polynomial, and one line per state whose terms differ.
fuzz prints, for each failing diagram, its index, its code and the same
MISMATCH block, then the count of diagrams verified. Its --max-crossings
runs from 1 to the library's crossing cap, DEFAULT_MAX_CROSSINGS, so fuzz
never hits the enumeration cap.

Exit codes: 0 success; 1 verify mismatch or fuzz failure; 2 parse or
validation error, or an option out of range; 3 enumeration cap exceeded
(raise --max-states).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from .diagram import (
    DEFAULT_MAX_CROSSINGS,
    DiagramError,
    EnumerationCapError,
    jones,
    kauffman_bracket,
    parse_diagram,
    print_diagram,
)
from .polyring import PolyParseError, print_poly
from .ribbon import RibbonError, bollobas_riordan, from_diagram, parse_ribbon, print_ribbon
from .thistle import VerificationReport, random_diagrams, verify_identity

__all__ = ["main"]

DEFAULT_MAX_STATES = 1 << DEFAULT_MAX_CROSSINGS


def _int_in(low: int, high: int | None = None) -> Callable[[str], int]:
    """An argparse type: an integer in [low, high] (else exit 2)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


def _add_input_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("path", nargs="?", help="input file, or - for stdin")
    sub.add_argument("--code", help="inline input; ';' separates lines")
    sub.add_argument(
        "--max-states",
        type=_int_in(1),
        default=DEFAULT_MAX_STATES,
        metavar="N",
        help=f"enumeration cap as a state/subgraph count (default 2^{DEFAULT_MAX_CROSSINGS})",
    )


def _load_text(args: argparse.Namespace) -> str:
    if (args.code is None) == (args.path is None):
        raise DiagramError("give exactly one input: a file path (or -) or --code")
    if args.code is not None:
        return args.code.replace(";", "\n")
    if args.path == "-":
        return sys.stdin.read()
    with open(args.path, "r", encoding="utf-8") as fh:
        return fh.read()


def _cap(args: argparse.Namespace) -> int:
    # --max-states counts states (2^n); the library caps n itself. This is
    # the one conversion between the two units.
    return args.max_states.bit_length() - 1


def cmd_bracket(args: argparse.Namespace) -> int:
    diagram = parse_diagram(_load_text(args))
    print(print_poly(kauffman_bracket(diagram, _cap(args))))
    return 0


def cmd_jones(args: argparse.Namespace) -> int:
    diagram = parse_diagram(_load_text(args))
    print(print_poly(jones(diagram, _cap(args))))
    return 0


def cmd_ribbon(args: argparse.Namespace) -> int:
    diagram = parse_diagram(_load_text(args))
    sys.stdout.write(print_ribbon(from_diagram(diagram)))
    return 0


def cmd_brpoly(args: argparse.Namespace) -> int:
    text = _load_text(args)
    if args.graph:
        graph = parse_ribbon(text)
    else:
        graph = from_diagram(parse_diagram(text))
    print(print_poly(bollobas_riordan(graph, _cap(args))))
    return 0


def _format_edge_set(included: frozenset[int]) -> str:
    if not included:
        return "-"
    return ",".join(str(i + 1) for i in sorted(included))


def cmd_table(args: argparse.Namespace) -> int:
    diagram = parse_diagram(_load_text(args))
    header = ["state", "alpha", "beta", "delta", "edges", "k", "r", "n", "bc", "s"]
    rows = [header]
    for row in verify_identity(diagram, _cap(args)).per_state:
        st = row.stats
        rows.append(
            [
                row.state.word or "-",
                str(row.state.alpha),
                str(row.state.beta),
                str(row.delta),
                _format_edge_set(row.included),
                str(st.k),
                str(st.r),
                str(st.n),
                str(st.bc),
                str(st.s),
            ]
        )
    if args.tsv:
        for row in rows:
            print("\t".join(row))
    else:
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        for row in rows:
            print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 0


def _mismatch_report(report: VerificationReport) -> list[str]:
    """The MISMATCH block of a report: both sides, then each failing state.

    Empty iff the identity holds, as polynomials and state by state.
    """
    if report.equal and not report.per_state.mismatches:
        return []
    lines = [
        "MISMATCH",
        f"bracket:     {print_poly(report.lhs)}",
        f"transformed: {print_poly(report.rhs)}",
    ]
    for index in report.per_state.mismatches:
        row = report.per_state[index]
        st = row.stats
        lines.append(
            f"state {row.state.word}: alpha={row.state.alpha} beta={row.state.beta} "
            f"delta={row.delta} vs subgraph {{{_format_edge_set(row.included)}}}: "
            f"e={st.e} 2s={st.s_twice} bc={st.bc}"
        )
    return lines


def cmd_verify(args: argparse.Namespace) -> int:
    diagram = parse_diagram(_load_text(args))
    lines = _mismatch_report(verify_identity(diagram, _cap(args)))
    print("\n".join(lines) or "OK")
    return 1 if lines else 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    failures = 0
    for i, diagram in enumerate(random_diagrams(args.count, args.max_crossings, args.seed)):
        lines = _mismatch_report(verify_identity(diagram))
        if not lines:
            continue
        failures += 1
        print(f"FAIL diagram {i} ({diagram.n} crossings):")
        sys.stdout.write(print_diagram(diagram))
        print("\n".join(lines))
    print(f"{args.count - failures}/{args.count} diagrams verified")
    return 0 if failures == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlinkpoly",
        description="Exact Kauffman bracket, Jones, and Bollobas-Riordan computations "
        "on virtual link diagrams and signed ribbon graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bracket", help="Kauffman bracket polynomial")
    _add_input_options(p)
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("jones", help="Jones polynomial")
    _add_input_options(p)
    p.set_defaults(func=cmd_jones)

    p = sub.add_parser("ribbon", help="Seifert-circle ribbon graph")
    _add_input_options(p)
    p.set_defaults(func=cmd_ribbon)

    p = sub.add_parser("brpoly", help="Bollobas-Riordan polynomial")
    _add_input_options(p)
    p.add_argument("--graph", action="store_true", help="input is a ribbon-graph file")
    p.set_defaults(func=cmd_brpoly)

    p = sub.add_parser("table", help="per-state / per-subgraph table")
    _add_input_options(p)
    p.add_argument("--tsv", action="store_true", help="tab-separated output")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="check the bracket identity")
    _add_input_options(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fuzz", help="verify the identity on random diagrams")
    p.add_argument("--count", type=_int_in(0), default=100, metavar="N")
    p.add_argument(
        "--max-crossings", type=_int_in(1, DEFAULT_MAX_CROSSINGS), default=10, metavar="M"
    )
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.set_defaults(func=cmd_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DiagramError, RibbonError, PolyParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EnumerationCapError as exc:
        print(f"error: {exc}; raise --max-states to override", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
