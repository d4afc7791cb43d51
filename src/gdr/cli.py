"""Command-line verifier: run both pipelines over families of test
classes, compare exactly, and emit JSON or CSV reports.

Subcommands:
    verify  --genus G [--kappa] [--boundary] [--out PATH --format json|csv]
    bside   --genus G --omega SPEC         one bamboo-side pairing
    drside  --genus G --omega SPEC         one divisor-side pairing
    witten  --genus G --exps K1,K2,...     one psi correlator
    hodge   --genus G --exps K1,K2,...     one capped psi integral
    bamboos --genus G                      list the signed bamboo terms

Options follow the subcommand in any order, as ``--opt value`` or
``--opt=value``; the last occurrence wins and names are not abbreviated.
They are read against one table, ``_COMMANDS``, of each subcommand's
options and the int or str converters of their values. ``-h``/``--help``
prints this text. A usage error prints the usage line and the error in
argparse's wording to stderr, and exits 2.

The omega grammar is whitespace-separated ``psi1^a psi2^b kappa1^c ...``
(exponent 1 omissible, ``1`` for the unit). Every subcommand rejects a
genus above MAX_GENUS, and witten/hodge an exponent list longer than
MAX_POINTS, with exit code 2. A call reads and writes no file other than
verify's --out; its memos live only as long as the process.

verify writes each record as it is produced, to stdout or, with --out,
to a temporary file in the target's directory that replaces the target
once the report is complete. The temporary file is opened before the
first pairing, so a path that cannot be written (the empty one too)
fails with exit code 2 before any work, and a run that stops part-way
leaves any previous report as it was and no temporary file behind. A
closed stdout pipe ends any subcommand with exit code 1, silently.
"""
from __future__ import annotations

import csv
import errno
import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace
from typing import Iterable, Iterator, List, NoReturn, Optional, TextIO, Tuple

from .bamboo import _bamboos, pair_bamboo_boundary, pair_bamboo_side
from .core import ChainVertex, DecoratedChain, PsiKappaMonomial, format_rational, kappa_map
from .correlators import correlator
from .hain import pair_dr_boundary, pair_dr_side
from .hodge import psi_lambda_g_integral

# Largest genus any subcommand accepts, checked before any work starts;
# 10 is the largest genus the benchmark drives (witten one-points).
MAX_GENUS = 10
# Longest --exps list witten and hodge accept, checked before any recursion.
# At genus MAX_GENUS the slowest list of this length found, 0^17 2^3 3^3
# 4^2 5^2 6 8 10, takes about 0.5 s and 34 MB from the command line
# (2-vCPU Xeon VM, Python 3.11);
# 3000 points overflowed the stack.
MAX_POINTS = 3 * MAX_GENUS


@dataclass(frozen=True)
class TestClass:
    """One omega to pair against both pipelines: a decorated chain, of one
    vertex for a psi/kappa monomial and of two for a boundary class."""

    label: str
    chain: DecoratedChain


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


def enumerate_omegas(g: int, include_kappa: bool = False, include_boundary: bool = False) -> Iterator[TestClass]:
    """All test classes of complementary degree g-1, yielded one at a time:
    the psi/kappa monomials as one-vertex chains, plus (optionally)
    decorated two-vertex boundary classes. A genus below 1 is rejected
    here, before the first class is asked for.

    Boundary decorations are split in every way over the four legs and,
    when kappa is enabled, the two vertices; the labels read
    ``delta(h)[left deco | right deco]`` with the left deco's psi2 slot
    meaning the node branch (mirrored for the right deco's psi1 slot).
    """
    if g < 1:
        raise ValueError("genus must be >= 1")
    return _omegas(g, include_kappa, include_boundary)


def _omegas(g: int, include_kappa: bool, include_boundary: bool) -> Iterator[TestClass]:
    # each degree's monomials and their labels, built once per call
    by_degree = [
        [(m, str(m)) for m in _monomials_of_degree(degree, include_kappa)] for degree in range(g)
    ]

    def vertices(genus: int, degree: int) -> list:
        return [(ChainVertex(genus, m.d1, m.d2, m.kappa), label) for m, label in by_degree[degree]]

    for vertex, label in vertices(g, g - 1):
        yield TestClass(label, DecoratedChain((vertex,)))
    if not include_boundary:
        return
    deco_total = g - 2
    for h in range(1, g):
        for left_deg in range(deco_total + 1):
            rights = vertices(g - h, deco_total - left_deg)
            for left, left_label in vertices(h, left_deg):
                for right, right_label in rights:
                    yield TestClass(f"delta({h})[{left_label} | {right_label}]", DecoratedChain((left, right)))


def _records(classes: Iterable[TestClass], aborted: List[str]) -> Iterator[VerificationRecord]:
    """Pair each class's chain on both sides and compare exactly, yielding
    one record per class as it is produced. The one record path of
    :func:`verify` and of the command line.

    Any internal failure (a degree-bookkeeping violation, a broken
    invariant) aborts that record with a diagnostic on stderr instead of
    reporting a value: its label goes to `aborted`, which fails the run.
    """
    clock = time.perf_counter
    for test_class in classes:
        start = clock()
        try:
            bamboo_value = pair_bamboo_boundary(test_class.chain)
            dr_value = pair_dr_boundary(test_class.chain)
        except Exception as exc:
            print(f"aborted record {test_class.label!r}: {exc}", file=sys.stderr)
            aborted.append(test_class.label)
            continue
        ms = int((clock() - start) * 1000)
        yield VerificationRecord(test_class.label, bamboo_value, dr_value, bamboo_value == dr_value, ms)


def verify(g: int, include_kappa: bool = False, include_boundary: bool = False) -> VerificationReport:
    """Run both pipelines over every enumerated omega and compare exactly.

    An internal failure aborts its record and fails the run (see
    :func:`_records`).
    """
    report = VerificationReport(genus=g)
    report.records = list(_records(enumerate_omegas(g, include_kappa, include_boundary), report.aborted))
    return report


def _write_report(
    handle: TextIO, fmt: str, genus: int, records: Iterable[VerificationRecord], aborted: List[str]
) -> Tuple[int, int]:
    """Write the report of `records` in format ``json`` or ``csv``, each
    record as it arrives, and return (equal records, records).

    The JSON text is that of ``json.dumps(payload, indent=2)``, with the
    ``pass`` flag last; it is known only once `records` is exhausted and
    `aborted` complete. Neither format ends with a newline of its own
    beyond the CSV row terminator.
    """
    if fmt == "csv":
        return _write_csv(handle, genus, records)
    write = handle.write
    write(f'{{\n  "genus": {json.dumps(genus)},\n  "records": [')
    separator = "\n"
    equal = total = 0
    for r in records:
        equal_text = "true" if r.equal else "false"
        write(
            f'{separator}    {{\n      "omega": {json.dumps(r.omega)},\n'
            f'      "bamboo": "{format_rational(r.bamboo)}",\n      "dr": "{format_rational(r.dr)}",\n'
            f'      "equal": {equal_text},\n      "ms": {r.ms}\n    }}'
        )
        separator = ",\n"
        equal += r.equal
        total += 1
    close = "\n  ]" if total else "]"
    passed_text = "true" if not aborted and equal == total else "false"
    write(f'{close},\n  "pass": {passed_text}\n}}')
    return equal, total


def _write_csv(handle: TextIO, genus: int, records: Iterable[VerificationRecord]) -> Tuple[int, int]:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(["genus", "omega", "bamboo", "dr", "equal", "ms"])
    equal = total = 0
    for r in records:
        writer.writerow(
            [genus, r.omega, format_rational(r.bamboo), format_rational(r.dr), "true" if r.equal else "false", r.ms]
        )
        equal += r.equal
        total += 1
    return equal, total


def _parse_exps(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) > MAX_POINTS:
        raise ValueError(f"{len(parts)} exponents exceed the maximum {MAX_POINTS}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"bad exponent list {text!r}: {exc}") from exc


# Each subcommand's options, in usage order. An option maps to the
# converter of its value (int or str), to the tuple of values it accepts,
# or to _FLAG when it takes no value.
_FLAG = "flag"
_COMMANDS = {
    "verify": {"--genus": int, "--kappa": _FLAG, "--boundary": _FLAG, "--out": str, "--format": ("json", "csv")},
    "bside": {"--genus": int, "--omega": str},
    "drside": {"--genus": int, "--omega": str},
    "witten": {"--genus": int, "--exps": str},
    "hodge": {"--genus": int, "--exps": str},
    "bamboos": {"--genus": int},
}
# The values of the options that may be left out; every other option is required.
_DEFAULTS = {"--kappa": False, "--boundary": False, "--out": None, "--format": "json"}
_HELP = ("-h", "--help")


def _parse(argv: List[str]) -> SimpleNamespace:
    """The subcommand and option values of `argv`, read against
    _COMMANDS as the module docstring describes."""
    if argv and argv[0] in _HELP:
        _print_help()
    if not argv:
        _usage_error(None, "the following arguments are required: command")
    command = argv[0]
    options = _COMMANDS.get(command)
    if options is None:
        _usage_error(None, f"argument command: invalid choice: {command!r} (choose from {_choices(_COMMANDS)})")
    values = {name: _DEFAULTS[name] for name in options if name in _DEFAULTS}
    unrecognized = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token in _HELP:
            _print_help()
        name, explicit, text = token.partition("=")
        convert = options.get(name)
        if convert is None:
            unrecognized.append(token)
        elif convert is _FLAG:
            if explicit:
                _usage_error(command, f"argument {name}: ignored explicit argument {text!r}")
            values[name] = True
        else:
            if not explicit:
                text = next(tokens, None)
                if text is None or _is_option(text):
                    _usage_error(command, f"argument {name}: expected one argument")
            if convert is int:
                try:
                    values[name] = int(text)
                except ValueError:
                    _usage_error(command, f"argument {name}: invalid int value: {text!r}")
            elif convert is str or text in convert:
                values[name] = text
            else:
                _usage_error(command, f"argument {name}: invalid choice: {text!r} (choose from {_choices(convert)})")
    missing = [name for name in options if name not in values]
    if missing:
        _usage_error(command, f"the following arguments are required: {', '.join(missing)}")
    if unrecognized:
        _usage_error(command, f"unrecognized arguments: {' '.join(unrecognized)}")
    return SimpleNamespace(command=command, **{name[2:]: value for name, value in values.items()})


def _is_option(token: str) -> bool:
    """Whether `token` reads as an option rather than a value; as in
    argparse, a negative number is a value."""
    return len(token) > 1 and token[0] == "-" and not token[1:].isdigit()


def _choices(values: Iterable[str]) -> str:
    return ", ".join(map(repr, values))


def _print_help() -> NoReturn:
    sys.stdout.write(__doc__)
    raise SystemExit(0)


def _usage_error(command: Optional[str], message: str) -> NoReturn:
    """Print the usage line of `command` (of gdr itself when None) and
    `message` to stderr, and exit 2."""
    if command is None:
        usage = f"[-h] {{{','.join(_COMMANDS)}}} ..."
    else:
        words = [command, "[-h]"]
        for name, convert in _COMMANDS[command].items():
            word = name
            if convert is not _FLAG:
                word += " " + (name[2:].upper() if convert in (int, str) else f"{{{','.join(convert)}}}")
            words.append(f"[{word}]" if name in _DEFAULTS else word)
        usage = " ".join(words)
    sys.stderr.write(f"usage: gdr {usage}\ngdr: error: {message}\n")
    raise SystemExit(2)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if args.genus > MAX_GENUS:
        print(f"error: genus {args.genus} exceeds the maximum {MAX_GENUS}", file=sys.stderr)
        return 2
    try:
        status = _run_command(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return status
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader has gone; as in the SIGPIPE note of the Python docs,
        # point stdout at devnull so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _run_command(args: SimpleNamespace) -> int:
    """Run one subcommand; a ValueError means bad input and reaches main."""
    if args.command == "bamboos":
        for bamboo in _bamboos(args.genus):
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

    # a bad genus is rejected here, before any output
    classes = enumerate_omegas(args.genus, include_kappa=args.kappa, include_boundary=args.boundary)
    aborted: List[str] = []
    records = _records(classes, aborted)
    if args.out is not None:
        try:
            handle, temporary = _open_beside(args.out)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
        try:
            with handle:
                equal, total = _write_report(handle, args.format, args.genus, records, aborted)
                if args.format == "json":
                    handle.write("\n")
            os.replace(temporary, args.out)
        except BaseException:
            os.unlink(temporary)
            raise
    else:
        equal, total = _write_report(sys.stdout, args.format, args.genus, records, aborted)
        sys.stdout.write("\n")  # the newline print() put after the whole report
    passed = not aborted and equal == total
    print(
        f"{'PASS' if passed else 'FAIL'}: {equal}/{total} test classes equal at genus {args.genus}",
        file=sys.stderr,
    )
    return 0 if passed else 1


def _open_beside(path: str) -> Tuple[TextIO, str]:
    """Create a new file beside `path`, named after it and this process,
    with the mode that ``open(path, "w")`` would give; return it open for
    writing, with its name."""
    if not path:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    temporary = f"{path}.{os.getpid()}.tmp"
    # O_EXCL: never write through a file or link that is already there
    fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    return os.fdopen(fd, "w", encoding="utf-8"), temporary
