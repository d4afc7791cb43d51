"""Exact golden reports: ``verify --genus g --kappa --boundary`` for g = 1..8.

The files under ``tests/golden/`` are the JSON reports with every ``ms``
field set to 0. Each was generated by the code as it stood before the
change that made its genus cheap enough for this suite (g = 8 now takes
about 0.3 s after the lower genera, 0.5 s on its own from cold memos;
2-vCPU VM, Python 3.11), so a rewrite of either pipeline is checked
against the values of the code it replaced. This file checks the
records of :func:`gdr.cli.verify`; ``tests/test_cli.py`` checks the
command line's streamed reports against the same files byte for byte.
Regenerate one (only when a change of values is intended):

    PYTHONPATH=src python -m gdr verify --genus G --kappa --boundary --out report.json

then replace each ``"ms": <n>`` by ``"ms": 0``.

Above that range the whole report, too large to check in, is pinned by
the sha256 of the same text: g = 9 in tier-1, and g = 10 (5.5 MB, and
without kappa classes) in ``deep`` rows. Higher still, the values are
pinned by the sha256 of their lines, in ``deep`` rows up to g = 20.
``pytest -m deep`` runs the ``deep`` rows. Every golden label also
parses back, through ChainVertex.parse, to its class.
"""
import hashlib
import json
import os
import re

import pytest

from gdr.bamboo import pair_bamboo_side
from gdr.cli import enumerate_omegas, main, verify
from gdr.core import ChainVertex, format_rational
from gdr.hain import pair_dr_side
from memos import clear_memos

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
# a boundary label: delta(h)[left decoration | right decoration]
BOUNDARY_LABEL = re.compile(r"^delta\((\d+)\)\[(.*) \| (.*)\]$")


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6, 7, 8])
def test_verify_report_matches_golden_byte_for_byte(g):
    """verify()'s records, each value rendered as the report writes it, are
    those of the golden file, field for field and in order; the streamed
    text itself is compared byte for byte in tests/test_cli.py."""
    with open(os.path.join(GOLDEN_DIR, f"verify_g{g}_kappa_boundary.json"), encoding="utf-8") as handle:
        golden = json.load(handle)
    report = verify(g, include_kappa=True, include_boundary=True)
    assert report.genus == golden["genus"]
    assert [
        {"omega": r.omega, "bamboo": format_rational(r.bamboo), "dr": format_rational(r.dr), "equal": r.equal}
        for r in report.records
    ] == [{k: v for k, v in r.items() if k != "ms"} for r in golden["records"]]
    assert report.passed is golden["pass"]


@pytest.mark.parametrize("g,count", enumerate([1, 3, 11, 34, 85, 181, 343, 596], start=1))
def test_boundary_without_kappa_gives_the_kappa_free_golden_records(g, count):
    """verify() with boundary classes and no kappa classes, the one
    configuration that no other test turns on, gives the golden file's
    records whose class carries no kappa, field for field and in order."""
    with open(os.path.join(GOLDEN_DIR, f"verify_g{g}_kappa_boundary.json"), encoding="utf-8") as handle:
        golden = [{k: v for k, v in r.items() if k != "ms"} for r in json.load(handle)["records"]]
    report = verify(g, include_kappa=False, include_boundary=True)
    assert [
        {"omega": r.omega, "bamboo": format_rational(r.bamboo), "dr": format_rational(r.dr), "equal": r.equal}
        for r in report.records
    ] == [r for r in golden if "kappa" not in r["omega"]]
    assert len(report.records) == count
    assert report.passed


@pytest.mark.parametrize(
    "options,count,digest",
    [
        pytest.param(
            ["--genus", "9", "--kappa", "--boundary"],
            16571,
            "3ce2156bf9ea31708c7ddad553f5da25e8ee24e5880425234d804698b8fd01f6",
            id="9-kappa-boundary",
        ),
        # 37,004 classes, 5.5 MB
        pytest.param(
            ["--genus", "10", "--kappa", "--boundary"],
            37004,
            "1b65fb22f193eeb415484c1e356190bbc44a15fe1ca82c38e76f63913de1e59a",
            id="10-kappa-boundary",
            marks=pytest.mark.deep,
        ),
        # --boundary without --kappa, which g = 1..8 check against the
        # goldens' kappa-free records above
        pytest.param(
            ["--genus", "10", "--boundary"],
            1495,
            "7b01dfd84d79fe17cb552fd00ccc6d663f02029ad5f6e361da1eb0be68dea6ee",
            id="10-boundary",
            marks=pytest.mark.deep,
        ),
    ],
)
def test_verify_report_matches_its_digest(capsys, tmp_path, options, count, digest):
    # the sha256 of the report file with every ms field set to 0
    path = tmp_path / "report.json"
    assert main(["verify", *options, "--out", str(path)]) == 0
    assert f"PASS: {count}/{count}" in capsys.readouterr().err
    text = re.sub(r'"ms": [0-9]+', '"ms": 0', path.read_text(encoding="utf-8"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def _lines(kind, g):
    """What a digest row hashes. "full" and "monomials": the omega;bamboo;dr
    lines of verify(g, True), with and without boundary classes, which must
    pass. "divisor" and "bamboo": the label;value lines of that side alone
    over the monomial classes."""
    if kind in ("full", "monomials"):
        report = verify(g, include_kappa=True, include_boundary=kind == "full")
        assert report.passed
        return [f"{r.omega};{format_rational(r.bamboo)};{format_rational(r.dr)}\n" for r in report.records]
    pair = {"divisor": pair_dr_side, "bamboo": pair_bamboo_side}[kind]
    return [f"{t.label};{format_rational(pair(t.chain.vertices[0]))}\n" for t in enumerate_omegas(g, True)]


def _row(kind, g, count, digest, deep=False):
    return pytest.param(kind, g, count, digest, id=f"{kind}-{g}", marks=[pytest.mark.deep] * deep)


@pytest.mark.parametrize(
    "kind,g,count,digest",
    [
        _row("divisor", 10, 284, "367effa6962fd0e4a9a58e26902194ca0b69e041bc8b1c2f5226d750f71749d6"),
        _row("bamboo", 10, 284, "367effa6962fd0e4a9a58e26902194ca0b69e041bc8b1c2f5226d750f71749d6"),
        # the deep rows reach vertices with kappa maps up to degree g - 1,
        # above the degree-9 maps that tests/test_kappa.py checks against set
        # partitions, and the divisor side's longer transfer lists
        _row("full", 12, 159601, "bcabc9b08983777af97744aec748125269487957ebc2cd252ac375351fcb3d98", deep=True),
        _row("full", 14, 592906, "1ff41d9a73f812d3f74d08d7e2e2e4ebb619ed657c8cd89c27214b181d8d7f04", deep=True),
        _row("monomials", 14, 1263, "59821d3f658538a54ba98510eabc8bd8f3dc13783d4bd502ab451314d52c0ce6", deep=True),
        _row("divisor", 16, 2455, "41812f370b860b0b2a132e025d8de34d61f11a9bb628e146626a163b6b63ac43", deep=True),
        _row("bamboo", 16, 2455, "41812f370b860b0b2a132e025d8de34d61f11a9bb628e146626a163b6b63ac43", deep=True),
        _row("divisor", 18, 4582, "d1a854a18dd98b2c3bc69fb59107956f57693a4b8bcab0e8e3871132e6ebb602", deep=True),
        _row("bamboo", 18, 4582, "d1a854a18dd98b2c3bc69fb59107956f57693a4b8bcab0e8e3871132e6ebb602", deep=True),
        _row("divisor", 20, 8266, "271a79646c26bb14f8a85131c602533e1b9b7ff9e3a3c97ac243ae769ca6ceca", deep=True),
        _row("bamboo", 20, 8266, "271a79646c26bb14f8a85131c602533e1b9b7ff9e3a3c97ac243ae769ca6ceca", deep=True),
    ],
)
def test_values_match_their_digest(kind, g, count, digest):
    clear_memos()  # from cold memos, so that memory holds one row at a time
    lines = _lines(kind, g)
    assert (len(lines), hashlib.sha256("".join(lines).encode()).hexdigest()) == (count, digest)


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6, 7, 8])
def test_every_golden_label_round_trips(g):
    """Each label of the golden report parses, in the omega grammar, to the
    vertices of the class that enumerate_omegas yields for it, and str gives
    the label back: a one-vertex label at genus g, and each side of
    ``delta(h)[L | R]`` at genus h and g - h."""
    with open(os.path.join(GOLDEN_DIR, f"verify_g{g}_kappa_boundary.json"), encoding="utf-8") as handle:
        labels = [r["omega"] for r in json.load(handle)["records"]]
    classes = list(enumerate_omegas(g, include_kappa=True, include_boundary=True))
    assert [c.label for c in classes] == labels
    for test_class in classes:
        match = BOUNDARY_LABEL.match(test_class.label)
        if match is None:
            sides = [(g, test_class.label)]
        else:
            h = int(match.group(1))
            sides = [(h, match.group(2)), (g - h, match.group(3))]
        vertices = tuple(ChainVertex.parse(genus, text) for genus, text in sides)
        assert vertices == test_class.chain.vertices, test_class.label
        assert [str(v) for v in vertices] == [text for _, text in sides]
