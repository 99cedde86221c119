#!/usr/bin/env python3
"""Self-test of the benchmark's checks: each must reject a wrong output.

    python3 perfbench/selftest.py

For each workload, on small instances, the true outputs must pass and each
deliberately wrong output (one changed coefficient, a dropped term, terms
out of order, a swapped chirality, a dropped state row, a false term_ok,
a changed bracket) must fail. Exits 1 if any check accepts a wrong output
or rejects a right one.
"""

from __future__ import annotations

import dataclasses
import os
import re
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402
from workloads import CheckError  # noqa: E402


def split_terms(text: str) -> list[tuple[str, str]]:
    """Printed polynomial -> [(sign, body)]."""
    pieces = re.split(r" ([+-]) ", text)
    first = pieces[0]
    terms = [("-", first[1:]) if first.startswith("-") else ("+", first)]
    return terms + list(zip(pieces[1::2], pieces[2::2]))


def join_terms(terms: list[tuple[str, str]]) -> str:
    (sign, body), rest = terms[0], terms[1:]
    return ("-" if sign == "-" else "") + body + "".join(f" {s} {b}" for s, b in rest)


def bump(body: str) -> str:
    """The same term with its coefficient raised by one."""
    m = re.fullmatch(r"([0-9]+)(\*.*)?", body)
    if m:
        return f"{int(m.group(1)) + 1}{m.group(2) or ''}"
    return f"2*{body}"


def text_corruptions(text: str) -> list[tuple[str, str]]:
    terms = split_terms(text)
    out = [("one changed coefficient", join_terms([(terms[0][0], bump(terms[0][1]))] + terms[1:]))]
    if len(terms) >= 2:
        out.append(("one dropped term", join_terms(terms[:-1])))
        out.append(("two terms out of order", join_terms([terms[1], terms[0]] + terms[2:])))
    return out


def main() -> int:
    failures: list[str] = []

    def expect(workload, case, output, ok: bool, label: str) -> None:
        try:
            workload.check(case, output)
            accepted = True
        except CheckError:
            accepted = False
        status = "ok  " if accepted == ok else "FAIL"
        if accepted != ok:
            failures.append(f"{workload.name}/{case.kind}: {label}")
        print(f"{status} {workload.name:16} {case.kind:14} {label}")

    jones = workloads.JonesClassical(n=6)
    cases = list(jones.round(11, 0))
    outputs = [jones.run(c) for c in cases]
    for case, output in zip(cases, outputs):
        expect(jones, case, output, True, "true output")
        for label, wrong in text_corruptions(output):
            expect(jones, case, wrong, False, label)
    # Chirality: each diagram's output handed to its mirror, and back.
    for i in (0, 1, 2, 3):
        expect(jones, cases[i], outputs[i ^ 1], False, "swapped chirality")

    verify = workloads.VerifyVirtual(n=7)
    (case,) = list(verify.round(11, 0))
    report, verdict = verify.run(case)
    expect(verify, case, (report, verdict), True, "true output")
    expect(verify, case, (dataclasses.replace(report, per_state=report.per_state[:-1]), verdict),
           False, "one dropped state row")
    bad_row = dataclasses.replace(report.per_state[3], term_ok=False)
    rows = report.per_state[:3] + (bad_row,) + report.per_state[4:]
    expect(verify, case, (dataclasses.replace(report, per_state=rows), verdict), False, "one false term_ok")
    lhs = report.lhs
    (units, coeff), rest = lhs.terms[0], lhs.terms[1:]
    bumped = lhs.ring.from_terms(((units, coeff + 1),) + rest)
    expect(verify, case, (dataclasses.replace(report, lhs=bumped, rhs=bumped), verdict),
           False, "one changed bracket coefficient, both sides")
    expect(verify, case, (dataclasses.replace(report, rhs=bumped), verdict), False, "sides differ")
    expect(verify, case, (dataclasses.replace(report, equal=False), "MISMATCH"), False, "equal is false")

    kernel = workloads.PolyKernel(mul_terms=40, jones_terms=30, br_terms=60, hom_degree=2)
    for case in kernel.round(11, 0):
        output = kernel.run(case)
        expect(kernel, case, output, True, "true output")
        for label, wrong in text_corruptions(output):
            expect(kernel, case, wrong, False, label)

    print(f"{len(failures)} check(s) misjudged" if failures else "every check judged every output right")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
