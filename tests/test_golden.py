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
the sha256 of the same text: g = 9 here, g = 10 (5.5 MB) in CI.
"""
import hashlib
import json
import os
import re

import pytest

from gdr.cli import main, verify
from gdr.core import format_rational

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
# sha256 of ``verify --genus 9 --kappa --boundary --out`` with every ms 0
REPORT_G9_SHA256 = "3ce2156bf9ea31708c7ddad553f5da25e8ee24e5880425234d804698b8fd01f6"


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


def test_verify_report_at_genus_9_matches_its_digest(capsys, tmp_path):
    path = tmp_path / "report.json"
    assert main(["verify", "--genus", "9", "--kappa", "--boundary", "--out", str(path)]) == 0
    assert "PASS: 16571/16571" in capsys.readouterr().err
    text = re.sub(r'"ms": [0-9]+', '"ms": 0', path.read_text(encoding="utf-8"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == REPORT_G9_SHA256
