"""Command-line verifier: run both pipelines over families of test
classes, compare exactly, and emit a JSON report.

Subcommands:
    verify  --genus G [--kappa] [--boundary] [--out PATH]
    bside   --genus G --omega SPEC         one bamboo-side pairing
    drside  --genus G --omega SPEC         one divisor-side pairing
    witten  --genus G --exps K1,K2,...     one psi correlator

Options follow the subcommand in any order, as ``--opt value`` or
``--opt=value``; the last occurrence wins and names are not abbreviated.
They are read against one table, ``_COMMANDS``: each subcommand's row
holds its options, with the converter of each value (bool for a flag,
int or str), and the action that runs it. One grammar, ASCII
``-?[0-9]+``, reads every int value and every --exps entry, so ``1_0``,
``+2``, `` 2`` and other scripts' digits are not integers; an option's
int value with more digits than int() converts is a usage error too.
``-h``/``--help`` prints this text. A usage error prints the usage line
and the error in argparse's wording to stderr, and exits 2. As in
argparse, a value may start with ``-`` when it is a negative number or
holds a space, and is not one of the subcommand's options.

The omega grammar is whitespace-separated ``psi1^a psi2^b kappa1^c ...``
(exponent 1 omissible, ``1`` for the unit), the decoration of one
genus-G vertex (gdr.core.ChainVertex.parse). Bad input found after
parsing (a genus above MAX_GENUS, which every subcommand rejects before
any work, an exponent list longer than MAX_POINTS, an omega or an --out
path that cannot be used) prints ``error: ...`` to stderr and exits 2.
A call reads and writes no file other than verify's --out; its memos
live only as long as the process.

verify writes each record as it is produced, to stdout or, with --out,
to a temporary file in the target's directory that replaces the target
once the report is complete, with the mode ``open(path, "w")`` would
leave: an existing target's permission bits. A path that exists and is
not a regular file, such as a FIFO, ``/dev/stdout`` or a shell's
``>(...)``, is written directly, as ``open(path, "w")`` would; otherwise
the target is the path with its symbolic links resolved, so a link
stays a link. Both destinations get the same bytes, the JSON text with
its one final newline. The report file is opened before the first
pairing, so a path that cannot be written (the empty one too) fails
with exit code 2 before any work, and a run that stops part-way leaves
any previous report as it was and no temporary file behind. A closed
stdout pipe ends any subcommand with exit code 1, silently. Any other
failed write, to --out or to stdout (a full disk, ``/dev/full``), ends it
with ``error: cannot write PATH: REASON``, where PATH is the --out path
given or ``stdout``, and exit code 2, with no traceback; verify then
prints no verdict and leaves any previous report as it was.
"""
from __future__ import annotations

import errno
import json
import os
import re
import sys
import time
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Iterable, Iterator, List, NamedTuple, NoReturn, Optional, TextIO, Tuple

from .bamboo import _pair, pair_bamboo_side
from .core import ChainVertex, DecoratedChain, format_rational, kappa_map
from .correlators import correlator
from .hain import _capped_run, pair_dr_side

# Largest genus any subcommand accepts, checked before any work starts;
# 10 is the largest genus the benchmark drives (witten one-points).
MAX_GENUS = 10
# Longest --exps list witten accepts, checked before any recursion. 30 is
# the point count measured at genus 10: the slowest list of this length
# found there, 0^17 2^3 3^3 4^2 5^2 6 8 10, takes about 1.0 s and 34 MB
# from the command line, 0.6 s of it in the recursion, which fills 62,919
# memo entries (2-vCPU Xeon VM, Python 3.11.7); 3000 points overflowed
# the stack. When MAX_GENUS moves, measure it again rather than scale it:
# one 36-point key at genus 12 took 3.0-3.8 s and 85 MB in process.
MAX_POINTS = 30


class TestClass(NamedTuple):
    """One omega to pair against both pipelines: a decorated chain, of one
    vertex for a psi/kappa monomial and of two for a boundary class."""

    label: str
    chain: DecoratedChain


class VerificationRecord(NamedTuple):
    omega: str
    bamboo: Fraction
    dr: Fraction
    equal: bool
    ms: int


class VerificationReport(NamedTuple):
    genus: int
    records: List[VerificationRecord]
    aborted: List[str]

    @property
    def passed(self) -> bool:
        return not self.aborted and all(r.equal for r in self.records)


def _monomials_of_degree(genus: int, degree: int, include_kappa: bool) -> List[ChainVertex]:
    """Genus-`genus` vertices decorated by psi1^a psi2^b * kappa-part of the
    given total degree, pure-psi first with a descending, then by ascending
    kappa degree."""
    out: List[ChainVertex] = []
    kappa_degrees = range(degree + 1) if include_kappa else (0,)
    for kdeg in kappa_degrees:
        psi_deg = degree - kdeg
        for partition in _partitions(kdeg):
            kappa = kappa_map((part, 1) for part in partition)
            for d1 in range(psi_deg, -1, -1):
                out.append(ChainVertex(genus, d1, psi_deg - d1, kappa))
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
    classes = _classes(g, include_kappa, include_boundary)
    return (TestClass(label, DecoratedChain(row[0] for row in rows)) for label, rows in classes)


# The slots of a vertex row past (vertex, label): the vertex's factor on
# each side, None until a record first reads it.
_BAMBOO, _DR = 2, 3
_ZERO = Fraction(0)


def _classes(g: int, include_kappa: bool, include_boundary: bool) -> Iterator[Tuple[str, tuple]]:
    """The label and the vertex rows of each class of :func:`enumerate_omegas`,
    in its order; a genus below 1 is rejected here, before the first class.

    A vertex row is [vertex, label, bamboo factor, divisor factor]. The
    monomials come first, then for each h and left degree the boundary
    classes delta(h)[left | right], every left row with every right row. The
    rows of each (genus, degree) are built at most once per call and shared
    by the classes that hold them, so each vertex's factors are read once."""
    if g < 1:
        raise ValueError("genus must be >= 1")

    @lru_cache(maxsize=None)
    def vertices(genus: int, degree: int) -> list:
        return [[v, str(v), None, None] for v in _monomials_of_degree(genus, degree, include_kappa)]

    def classes() -> Iterator[Tuple[str, tuple]]:
        for row in vertices(g, g - 1):
            yield row[1], (row,)
        if include_boundary:
            for h in range(1, g):
                for left_deg in range(g - 1):
                    lefts, rights = vertices(h, left_deg), vertices(g - h, g - 2 - left_deg)
                    for left in lefts:
                        prefix = f"delta({h})[{left[1]} | "
                        for right in rights:
                            yield f"{prefix}{right[1]}]", (left, right)

    return classes()


def _value(rows: tuple, side: int) -> Fraction:
    """A class's value on `side`: the product of its vertices' factors, every
    one of them read, the multiply skipped when one is the shared _ZERO.

    A vertex's factor on `side` is bamboo._pair or hain._capped_run, read on
    first use and kept in its row, a zero as the shared _ZERO. A read that
    raises keeps nothing, so each record that uses the vertex reads it again
    and aborts as the first one did."""
    value = None
    for row in rows:
        factor = row[side]
        if factor is None:
            v = row[0]
            if side == _BAMBOO:
                factor = _pair(v.genus, v.left_psi, v.right_psi, v.kappa)
            else:
                factor = _capped_run(v.genus, v.left_psi, v.kappa, v.right_psi)
            row[side] = factor = factor or _ZERO
        value = factor if value is None else _ZERO if value is _ZERO or factor is _ZERO else value * factor
    return value


def _records(classes: Iterable[Tuple[str, tuple]], aborted: List[str]) -> Iterator[VerificationRecord]:
    """Pair each class of :func:`_classes` on both sides and compare exactly,
    yielding one record per class as it is produced. The one record path of
    :func:`verify` and of the command line.

    A class's value on each side is the product of its vertices' factors on
    that side (see :func:`_value`), the memoized one-vertex pairings that
    pair_bamboo_boundary and pair_dr_boundary multiply for a chain. A
    record's ms includes the factor reads that it is the first to make.

    Any internal failure (a degree-bookkeeping violation, a broken
    invariant) aborts that record with a diagnostic on stderr instead of
    reporting a value: its label goes to `aborted`, which fails the run.
    """
    clock = time.perf_counter
    for label, rows in classes:
        start = clock()
        try:
            bamboo_value = _value(rows, _BAMBOO)
            dr_value = _value(rows, _DR)
        except Exception as exc:
            print(f"aborted record {label!r}: {exc}", file=sys.stderr)
            aborted.append(label)
            continue
        # the shared zero on both sides, most boundary records, is equal without Fraction.__eq__
        equal = bamboo_value is dr_value or bamboo_value == dr_value
        yield VerificationRecord(label, bamboo_value, dr_value, equal, int((clock() - start) * 1000))


def verify(g: int, include_kappa: bool = False, include_boundary: bool = False) -> VerificationReport:
    """Run both pipelines over every enumerated omega and compare exactly.

    An internal failure aborts its record and fails the run (see
    :func:`_records`).
    """
    aborted: List[str] = []
    records = list(_records(_classes(g, include_kappa, include_boundary), aborted))
    return VerificationReport(g, records, aborted)


def _write_report(
    handle: TextIO, genus: int, records: Iterable[VerificationRecord], aborted: List[str]
) -> Tuple[bool, int, int]:
    """Write the whole JSON report of `records`, each record as it
    arrives, and return (the verdict it wrote, equal records, records).

    The text is that of ``json.dumps(payload, indent=2)`` and one final
    newline, with the ``pass`` flag last; it is known only once `records`
    is exhausted and `aborted` complete.
    """
    write = handle.write
    write(f'{{\n  "genus": {json.dumps(genus)},\n  "records": [')
    separator = "\n"
    equal = total = 0
    for omega, bamboo, dr, is_equal, ms in records:
        # encode_basestring_ascii quotes a str as json.dumps does
        write(
            f'{separator}    {{\n      "omega": {encode_basestring_ascii(omega)},\n'
            f'      "bamboo": "{bamboo.numerator}/{bamboo.denominator}",\n      "dr": "{dr.numerator}/{dr.denominator}",\n'
            f'      "equal": {"true" if is_equal else "false"},\n      "ms": {ms}\n    }}'
        )
        separator = ",\n"
        equal += is_equal
        total += 1
    close = "\n  ]" if total else "]"
    passed = not aborted and equal == total
    write(f'{close},\n  "pass": {json.dumps(passed)}\n}}\n')
    return passed, equal, total


# The one grammar of an integer on the command line, for --genus and each
# --exps entry: ASCII digits only, as int() also takes "1_0", "+1", " 1"
# and other scripts' digits.
_INTEGER = re.compile(r"-?[0-9]+")


def _parse_exps(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) > MAX_POINTS:
        raise ValueError(f"{len(parts)} exponents exceed the maximum {MAX_POINTS}")
    for part in parts:
        if not _INTEGER.fullmatch(part):
            raise ValueError(f"bad exponent list {text!r}: {part!r} is not an integer")
    return tuple(map(int, parts))


def _print_value(value: Fraction) -> int:
    """The one printer of bside, drside and witten."""
    print(format_rational(value))
    return 0


def _run_verify(args: SimpleNamespace) -> int:
    aborted: List[str] = []
    # a bad genus is rejected here, before any output
    records = _records(_classes(args.genus, args.kappa, args.boundary), aborted)
    # stdout, or a temporary file that replaces --out only once the report is complete
    handle, temporary, target = (sys.stdout, None, None) if args.out is None else _open_beside(args.out)
    try:
        passed, equal, total = _write_report(handle, args.genus, records, aborted)
        handle.flush()  # a failed write ends the run here, before the verdict
        if handle is not sys.stdout:
            handle.close()
        if temporary is not None:
            os.replace(temporary, target)
    except BaseException:
        if handle is not sys.stdout:
            try:
                handle.close()  # closes the file even when its flush fails again
            except OSError:
                pass  # the first error is the one reported
        if temporary is not None:
            os.unlink(temporary)
        raise
    print(
        f"{'PASS' if passed else 'FAIL'}: {equal}/{total} test classes equal at genus {args.genus}",
        file=sys.stderr,
    )
    return 0 if passed else 1


# Each subcommand's row: its options, in usage order, and the action that
# runs it on the parsed values and returns the exit status. An option maps
# to the converter of its value: int or str, or bool for a flag, which
# takes no value. The actions look the pipeline functions up in this
# module's globals when they run, never when the table is built: a
# function rebound here, by perfbench's tracer or by a test, is the one
# called.
_COMMANDS = {
    "verify": ({"--genus": int, "--kappa": bool, "--boundary": bool, "--out": str}, _run_verify),
    "bside": ({"--genus": int, "--omega": str},
              lambda args: _print_value(pair_bamboo_side(ChainVertex.parse(args.genus, args.omega)))),
    "drside": ({"--genus": int, "--omega": str},
               lambda args: _print_value(pair_dr_side(ChainVertex.parse(args.genus, args.omega)))),
    "witten": ({"--genus": int, "--exps": str},
               lambda args: _print_value(correlator(args.genus, _parse_exps(args.exps)))),
}
# The values of the options that may be left out; every other option is required.
_DEFAULTS = {"--kappa": False, "--boundary": False, "--out": None}
_HELP = ("-h", "--help")
# argparse's pattern of a negative number (Python 3.10-3.12)
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _parse(argv: List[str]) -> SimpleNamespace:
    """The subcommand and option values of `argv`, read against
    _COMMANDS as the module docstring describes."""
    if argv and argv[0] in _HELP:
        _print_help()
    if not argv:
        _usage_error(None, "the following arguments are required: command")
    command = argv[0]
    if command not in _COMMANDS:
        _usage_error(None, f"argument command: invalid choice: {command!r} (choose from {_choices(_COMMANDS)})")
    options = _COMMANDS[command][0]
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
        elif convert is bool:
            if explicit:
                _usage_error(command, f"argument {name}: ignored explicit argument {text!r}")
            values[name] = True
        else:
            if not explicit:
                text = next(tokens, None)
                if text is None or _is_option(text, options):
                    _usage_error(command, f"argument {name}: expected one argument")
            try:
                if convert is int and not _INTEGER.fullmatch(text):
                    raise ValueError
                # int() also refuses more digits than sys.get_int_max_str_digits()
                values[name] = convert(text)
            except ValueError:
                _usage_error(command, f"argument {name}: invalid int value: {text!r}")
    missing = [name for name in options if name not in values]
    if missing:
        _usage_error(command, f"the following arguments are required: {', '.join(missing)}")
    if unrecognized:
        _usage_error(command, f"unrecognized arguments: {' '.join(unrecognized)}")
    return SimpleNamespace(command=command, **{name[2:]: value for name, value in values.items()})


def _is_option(token: str, options: dict) -> bool:
    """Whether `token` reads as an option rather than a value, in
    argparse's order: one of `options` or of _HELP, also as
    ``--opt=value``, is an option; otherwise a negative number, decimals
    too, or a token with a space is a value."""
    if token.partition("=")[0] in (*options, *_HELP):
        return True
    return len(token) > 1 and token[0] == "-" and not _NEGATIVE_NUMBER.match(token) and " " not in token


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
        for name, convert in _COMMANDS[command][0].items():
            word = name
            if convert is not bool:
                word += " " + name[2:].upper()
            words.append(f"[{word}]" if name in _DEFAULTS else word)
        usage = " ".join(words)
    sys.stderr.write(f"usage: gdr {usage}\ngdr: error: {message}\n")
    raise SystemExit(2)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    # after parsing, a ValueError means bad input: an error line and exit 2
    try:
        if args.genus > MAX_GENUS:
            raise ValueError(f"genus {args.genus} exceeds the maximum {MAX_GENUS}")
        status = _COMMANDS[args.command][1](args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return status
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # no command reads a file, so this is a failed open or write of the
        # report: verify's --out, or stdout
        out = getattr(args, "out", None)
        if out is None:
            # as in the SIGPIPE note of the Python docs, point stdout at
            # devnull so that the flush at exit cannot raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if isinstance(exc, BrokenPipeError):
                return 1  # the reader of stdout has gone
        print(f"error: cannot write {'stdout' if out is None else out}: {exc.strerror or exc}", file=sys.stderr)
        return 2


def _open_beside(path: str) -> Tuple[TextIO, Optional[str], str]:
    """Open the report file for `path`. A path that exists and is not a
    regular file (a FIFO, a device, ``/dev/stdout``, a directory) is
    opened itself, as ``open(path, "w")`` would, and fails as it would.
    Otherwise the path is resolved through any symbolic links to its
    target, and a new file is made beside the target, named after it and
    this process, with the mode that ``open(path, "w")`` would give (an
    existing file's permission bits, else 0o666 less the umask). Return
    the open handle, the new file's name (None for the path itself) and
    the target."""
    if not path:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if os.path.exists(path) and not os.path.isfile(path):
        return open(path, "w", encoding="utf-8"), None, path
    target = os.path.realpath(path)
    temporary = f"{target}.{os.getpid()}.tmp"
    # O_EXCL: never write through a file or link that is already there
    fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        if os.path.exists(target):  # open(path, "w") keeps an existing file's mode
            os.fchmod(fd, os.stat(target).st_mode & 0o777)
        return os.fdopen(fd, "w", encoding="utf-8"), temporary, target
    except BaseException:
        # the target gone since the check, or a mode the filesystem refuses
        os.close(fd)
        os.unlink(temporary)
        raise
