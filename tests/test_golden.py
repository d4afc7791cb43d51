"""Exact golden reports: ``verify --genus g --kappa --boundary`` for g = 1..6.

The files under ``tests/golden/`` are the JSON reports with every ``ms``
field set to 0. Regenerate one (only when a change of values is intended):

    PYTHONPATH=src python -m gdr verify --genus G --kappa --boundary --out report.json

then replace each ``"ms": <n>`` by ``"ms": 0``.
"""
import os
import re

import pytest

from gdr.cli import report_to_json, verify

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6])
def test_verify_report_matches_golden_byte_for_byte(g):
    with open(os.path.join(GOLDEN_DIR, f"verify_g{g}_kappa_boundary.json"), encoding="utf-8") as handle:
        golden = handle.read()
    rendered = report_to_json(verify(g, include_kappa=True, include_boundary=True)) + "\n"
    assert re.sub(r'"ms": \d+', '"ms": 0', rendered) == golden
