"""Command-line verifier: run both pipelines over families of test
classes, compare exactly, and emit JSON or CSV reports.

Subcommands:
    verify  --genus G [--kappa] [--boundary] [--out PATH --format json|csv]
    bside   --genus G --omega SPEC         one bamboo-side pairing
    drside  --genus G --omega SPEC         one divisor-side pairing
    witten  --genus G --exps K1,K2,...     one psi correlator
    hodge   --genus G --exps K1,K2,...     one capped psi integral
    bamboos --genus G                      list the signed bamboo terms

The omega grammar is whitespace-separated ``psi1^a psi2^b kappa1^c ...``
(exponent 1 omissible, ``1`` for the unit). Every subcommand rejects a
genus above MAX_GENUS, and witten/hodge an exponent list longer than
MAX_POINTS, with exit code 2. A call reads and writes no file other than
verify's --out; its memos live only as long as the process.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import List, Optional

from .bamboo import enumerate_bamboos, pair_bamboo_boundary, pair_bamboo_side
from .core import ChainVertex, DecoratedChain, PsiKappaMonomial, format_rational, kappa_map
from .correlators import correlator
from .hain import pair_dr_boundary, pair_dr_side
from .hodge import psi_lambda_g_integral

# Largest genus any subcommand accepts, checked before any work starts;
# 10 is the largest genus the benchmark drives (witten one-points).
MAX_GENUS = 10
# Longest --exps list witten and hodge accept, checked before any recursion.
# At genus MAX_GENUS the slowest list of this length found takes about 13 s
# and 40 MB (2-vCPU VM, Python 3.11); 3000 points overflowed the stack.
MAX_POINTS = 3 * MAX_GENUS


@dataclass(frozen=True)
class TestClass:
    """One omega to pair against both pipelines: either a monomial or a
    decorated two-vertex boundary class."""

    label: str
    monomial: Optional[PsiKappaMonomial] = None
    boundary: Optional[DecoratedChain] = None

    def bamboo_value(self, g: int) -> Fraction:
        if self.monomial is not None:
            return pair_bamboo_side(g, self.monomial)
        return pair_bamboo_boundary(self.boundary)

    def dr_value(self, g: int) -> Fraction:
        if self.monomial is not None:
            return pair_dr_side(g, self.monomial)
        return pair_dr_boundary(self.boundary)


@dataclass(frozen=True)
class VerificationRecord:
    omega: str
    bamboo: Fraction
    dr: Fraction
    equal: bool
    ms: int


@dataclass
class VerificationReport:
    genus: int
    records: List[VerificationRecord] = field(default_factory=list)
    aborted: List[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def equal_count(self) -> int:
        return sum(1 for r in self.records if r.equal)

    @property
    def passed(self) -> bool:
        return not self.aborted and all(r.equal for r in self.records)


def _monomials_of_degree(degree: int, include_kappa: bool) -> List[PsiKappaMonomial]:
    """Monomials psi1^a psi2^b * kappa-part of the given total degree,
    pure-psi first with a descending, then by ascending kappa degree."""
    out: List[PsiKappaMonomial] = []
    kappa_degrees = range(degree + 1) if include_kappa else (0,)
    for kdeg in kappa_degrees:
        psi_deg = degree - kdeg
        for partition in _partitions(kdeg):
            counts: dict = {}
            for part in partition:
                counts[part] = counts.get(part, 0) + 1
            for d1 in range(psi_deg, -1, -1):
                out.append(PsiKappaMonomial(d1, psi_deg - d1, kappa_map(counts)))
    return out


def _partitions(total: int, minimum: int = 1) -> List[tuple]:
    """Partitions of `total` as ascending tuples, lexicographically ordered."""
    if total == 0:
        return [()]
    out = []
    for part in range(minimum, total + 1):
        for rest in _partitions(total - part, part):
            out.append((part,) + rest)
    return out


def _boundary_label(omega: DecoratedChain) -> str:
    left, right = omega.vertices
    h = left.genus
    left_str = str(PsiKappaMonomial(left.left_psi, left.right_psi, left.kappa))
    right_str = str(PsiKappaMonomial(right.left_psi, right.right_psi, right.kappa))
    return f"delta({h})[{left_str} | {right_str}]"


def enumerate_omegas(g: int, include_kappa: bool = False, include_boundary: bool = False) -> List[TestClass]:
    """All test classes of complementary degree g-1: the psi/kappa
    monomials, plus (optionally) decorated two-vertex boundary classes.

    Boundary decorations are split in every way over the four legs and,
    when kappa is enabled, the two vertices; the labels read
    ``delta(h)[left deco | right deco]`` with the left deco's psi2 slot
    meaning the node branch (mirrored for the right deco's psi1 slot).
    """
    if g < 1:
        raise ValueError("genus must be >= 1")
    out = [
        TestClass(label=str(m), monomial=m)
        for m in _monomials_of_degree(g - 1, include_kappa)
    ]
    if include_boundary:
        deco_total = g - 2
        for h in range(1, g):
            if deco_total < 0:
                continue
            for left_deg in range(deco_total + 1):
                for left in _monomials_of_degree(left_deg, include_kappa):
                    for right in _monomials_of_degree(deco_total - left_deg, include_kappa):
                        chain = DecoratedChain(
                            (
                                ChainVertex(h, left.d1, left.d2, left.kappa),
                                ChainVertex(g - h, right.d1, right.d2, right.kappa),
                            )
                        )
                        out.append(TestClass(label=_boundary_label(chain), boundary=chain))
    return out


def verify(g: int, include_kappa: bool = False, include_boundary: bool = False) -> VerificationReport:
    """Run both pipelines over every enumerated omega and compare exactly.

    Any internal failure (a degree-bookkeeping violation, a broken
    invariant) aborts that record with a diagnostic on stderr instead of
    reporting a value, and fails the run.
    """
    report = VerificationReport(genus=g)
    for test_class in enumerate_omegas(g, include_kappa, include_boundary):
        start = time.perf_counter()
        try:
            bamboo_value = test_class.bamboo_value(g)
            dr_value = test_class.dr_value(g)
        except Exception as exc:
            print(f"aborted record {test_class.label!r}: {exc}", file=sys.stderr)
            report.aborted.append(test_class.label)
            continue
        ms = int((time.perf_counter() - start) * 1000)
        report.records.append(
            VerificationRecord(
                omega=test_class.label,
                bamboo=bamboo_value,
                dr=dr_value,
                equal=bamboo_value == dr_value,
                ms=ms,
            )
        )
    return report


def report_to_json(report: VerificationReport) -> str:
    payload = {
        "genus": report.genus,
        "records": [
            {
                "omega": r.omega,
                "bamboo": format_rational(r.bamboo),
                "dr": format_rational(r.dr),
                "equal": r.equal,
                "ms": r.ms,
            }
            for r in report.records
        ],
        "pass": report.passed,
    }
    return json.dumps(payload, indent=2)


def report_to_csv(report: VerificationReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["genus", "omega", "bamboo", "dr", "equal", "ms"])
    for r in report.records:
        writer.writerow(
            [
                report.genus,
                r.omega,
                format_rational(r.bamboo),
                format_rational(r.dr),
                "true" if r.equal else "false",
                r.ms,
            ]
        )
    return buffer.getvalue()


def _parse_exps(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) > MAX_POINTS:
        raise ValueError(f"{len(parts)} exponents exceed the maximum {MAX_POINTS}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"bad exponent list {text!r}: {exc}") from exc


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it."""
    parser = argparse.ArgumentParser(prog="gdr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="compare both pipelines over a family of test classes")
    p_verify.add_argument("--genus", type=int, required=True)
    p_verify.add_argument("--kappa", action="store_true", help="include kappa-bearing monomials")
    p_verify.add_argument("--boundary", action="store_true", help="include two-vertex boundary classes")
    p_verify.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")

    for name, help_text in (
        ("bside", "pair the bamboo class against one monomial"),
        ("drside", "pair the capped divisor power against one monomial"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--genus", type=int, required=True)
        p.add_argument("--omega", required=True)

    p_witten = sub.add_parser("witten", help="one psi correlator")
    p_witten.add_argument("--genus", type=int, required=True)
    p_witten.add_argument("--exps", required=True)

    p_hodge = sub.add_parser("hodge", help="one capped psi integral")
    p_hodge.add_argument("--genus", type=int, required=True)
    p_hodge.add_argument("--exps", required=True)

    p_bamboos = sub.add_parser("bamboos", help="list the signed bamboo terms")
    p_bamboos.add_argument("--genus", type=int, required=True)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.genus > MAX_GENUS:
        print(f"error: genus {args.genus} exceeds the maximum {MAX_GENUS}", file=sys.stderr)
        return 2
    try:
        return _run_command(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run_command(args: argparse.Namespace) -> int:
    """Run one subcommand; a ValueError means bad input and reaches main."""
    if args.command == "bamboos":
        for bamboo in enumerate_bamboos(args.genus):
            print(bamboo)
        return 0
    if args.command == "hodge":
        print(format_rational(psi_lambda_g_integral(args.genus, _parse_exps(args.exps))))
        return 0
    if args.command == "witten":
        print(format_rational(correlator(args.genus, _parse_exps(args.exps))))
        return 0
    if args.command == "bside":
        print(format_rational(pair_bamboo_side(args.genus, PsiKappaMonomial.parse(args.omega))))
        return 0
    if args.command == "drside":
        print(format_rational(pair_dr_side(args.genus, PsiKappaMonomial.parse(args.omega))))
        return 0

    result = verify(args.genus, include_kappa=args.kappa, include_boundary=args.boundary)
    rendered = report_to_json(result) if args.format == "json" else report_to_csv(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
            if not rendered.endswith("\n"):
                handle.write("\n")
    else:
        print(rendered)
    print(
        f"{'PASS' if result.passed else 'FAIL'}: {result.equal_count}/{result.total} "
        f"test classes equal at genus {result.genus}",
        file=sys.stderr,
    )
    return 0 if result.passed else 1
