"""The checks above tier-1's genus range are the ``deep`` cases of the
tests that make the same checks lower down. Tier-1 deselects them, and
``python -m pytest -m deep`` runs them, as one step of CI. This test keeps
that set from shrinking unnoticed, and keeps the workflow free of checks
that no test makes: it runs pytest, and no gdr command, digest or
development-mode run of its own."""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DEEP_CASES = {
    "tests/test_cli.py::TestBamboos::test_output_matches_its_digest[9]",
    "tests/test_correlators.py::test_golden_values[deepest-string-path]",
    "tests/test_golden.py::test_verify_report_matches_its_digest[10-kappa-boundary]",
    "tests/test_golden.py::test_verify_report_matches_its_digest[10-boundary]",
    "tests/test_golden.py::test_values_match_their_digest[full-12]",
    "tests/test_golden.py::test_values_match_their_digest[monomials-14]",
    "tests/test_golden.py::test_values_match_their_digest[divisor-16]",
    "tests/test_golden.py::test_values_match_their_digest[bamboo-16]",
    "tests/test_golden.py::test_values_match_their_digest[divisor-18]",
    "tests/test_independence.py::test_kappa_expansion_fault_reaches_the_comparison[sign-dropped-g12]",
    "tests/test_independence.py::test_kappa_expansion_fault_reaches_the_comparison[weight-2^|S|-g12]",
    "tests/test_independence.py::test_psi_records_match_the_closed_form[12]",
    "tests/test_independence.py::test_single_factor_records_match_the_closed_form[12-618]",
    "tests/test_independence.py::test_boundary_records_are_zeros_or_products_of_lower_genus_records[10-kinds7]",
}


def test_deep_runs_exactly_the_checks_above_tier_1():
    command = [sys.executable, "-m", "pytest", "--collect-only", "-q", "-m", "deep"]
    collected = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    assert {line for line in collected.splitlines() if "::" in line} == DEEP_CASES
    with open(os.path.join(ROOT, ".github", "workflows", "tests.yml"), encoding="utf-8") as handle:
        workflow = handle.read()
    assert "python -m pytest -q -m deep" in workflow
    for shell_check in ("python - <<", "python -m gdr", "-X dev", "sha256sum"):
        assert shell_check not in workflow
