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
  fuzz            verify the identity on random diagrams

FILE is a diagram in the .vld format (or a ribbon graph in the .rg format
for brpoly --graph); pass - to read stdin, or give the lines inline with
--code, using ';' as a line separator.

Exit codes: 0 success; 1 verify mismatch or fuzz failure; 2 parse or
validation error; 3 enumeration cap exceeded (raise --max-states).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from .diagram import (
    DiagramError,
    EnumerationCapError,
    jones,
    kauffman_bracket,
    parse_diagram,
    print_diagram,
)
from .polyring import PolyParseError, print_poly
from .ribbon import RibbonError, bollobas_riordan, from_diagram, parse_ribbon, print_ribbon
from .thistle import random_diagrams, state_subgraph_rows, verify_identity

__all__ = ["main"]

DEFAULT_MAX_STATES = 1 << 24


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an integer no smaller than `low` (else exit 2)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


def _add_input_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("path", nargs="?", help="input file, or - for stdin")
    sub.add_argument("--code", help="inline input; ';' separates lines")
    sub.add_argument(
        "--max-states",
        type=_int_at_least(1),
        default=DEFAULT_MAX_STATES,
        metavar="N",
        help="enumeration cap as a state/subgraph count (default 2^24)",
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
    # --max-states counts states (2^n); the library caps n itself.
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
    if diagram.n > _cap(args):
        raise EnumerationCapError(
            f"{diagram.n} crossings exceeds the enumeration cap of {_cap(args)}"
        )
    header = ["state", "alpha", "beta", "delta", "edges", "k", "r", "n", "bc", "s"]
    rows = [header]
    for row in state_subgraph_rows(diagram):
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


def cmd_verify(args: argparse.Namespace) -> int:
    diagram = parse_diagram(_load_text(args))
    report = verify_identity(diagram, _cap(args))
    if report.equal and not report.per_state.mismatches:
        print("OK")
        return 0
    print("MISMATCH")
    print(f"bracket:     {print_poly(report.lhs)}")
    print(f"transformed: {print_poly(report.rhs)}")
    for index in report.per_state.mismatches:
        row = report.per_state[index]
        st = row.stats
        print(
            f"state {row.state.word}: alpha={row.state.alpha} beta={row.state.beta} "
            f"delta={row.delta} vs subgraph {{{_format_edge_set(row.included)}}}: "
            f"e={st.e} 2s={st.s_twice} bc={st.bc}"
        )
    return 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    failures = 0
    for i, diagram in enumerate(random_diagrams(args.count, args.max_crossings, args.seed)):
        report = verify_identity(diagram)
        if report.equal and not report.per_state.mismatches:
            continue
        failures += 1
        print(f"FAIL diagram {i} ({diagram.n} crossings):")
        sys.stdout.write(print_diagram(diagram))
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
    p.add_argument("--count", type=_int_at_least(0), default=100, metavar="N")
    p.add_argument("--max-crossings", type=_int_at_least(1), default=10, metavar="M")
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
