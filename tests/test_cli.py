import json
import os
import subprocess
import sys

import pytest

from gdr import cli
from gdr.bamboo import pair_bamboo_side
from gdr.cli import (
    enumerate_omegas,
    main,
    report_to_csv,
    report_to_json,
    verify,
)
from gdr.core import PsiKappaMonomial, format_rational

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _strip_ms(payload: dict) -> dict:
    return {
        "genus": payload["genus"],
        "records": [{k: v for k, v in r.items() if k != "ms"} for r in payload["records"]],
        "pass": payload["pass"],
    }


class TestEnumerateOmegas:
    def test_genus_1(self):
        assert [t.label for t in enumerate_omegas(1)] == ["1"]

    def test_genus_2_with_kappa(self):
        assert [t.label for t in enumerate_omegas(2, include_kappa=True)] == [
            "psi1",
            "psi2",
            "kappa1",
        ]

    def test_genus_3_with_kappa(self):
        assert [t.label for t in enumerate_omegas(3, include_kappa=True)] == [
            "psi1^2",
            "psi1 psi2",
            "psi2^2",
            "psi1 kappa1",
            "psi2 kappa1",
            "kappa1^2",
            "kappa2",
        ]

    def test_genus_4_monomial_count(self):
        # all degree-3 monomials in psi1, psi2, kappa1..kappa3
        assert len(enumerate_omegas(4, include_kappa=True)) == 14

    def test_boundary_classes_at_genus_3(self):
        omegas = enumerate_omegas(3, include_kappa=True, include_boundary=True)
        boundary = [t for t in omegas if t.boundary is not None]
        assert len(boundary) == 12
        assert all(t.label.startswith("delta(") for t in boundary)
        assert all(t.boundary.codim + t.boundary.decoration_degree == 2 for t in boundary)

    def test_without_kappa_only_psi_monomials(self):
        assert [t.label for t in enumerate_omegas(3)] == ["psi1^2", "psi1 psi2", "psi2^2"]


class TestReports:
    def test_json_schema_and_values(self):
        report = verify(1)
        payload = json.loads(report_to_json(report))
        assert set(payload) == {"genus", "records", "pass"}
        assert payload["genus"] == 1
        assert payload["pass"] is True
        (record,) = payload["records"]
        assert record["omega"] == "1"
        assert record["bamboo"] == "1/24"
        assert record["dr"] == "1/24"
        assert record["equal"] is True
        assert isinstance(record["ms"], int)

    def test_csv_layout(self):
        report = verify(1)
        lines = report_to_csv(report).splitlines()
        assert lines[0] == "genus,omega,bamboo,dr,equal,ms"
        fields = lines[1].split(",")
        assert fields[:5] == ["1", "1", "1/24", "1/24", "true"]

    def test_reports_deterministic_modulo_timing(self):
        a = _strip_ms(json.loads(report_to_json(verify(2, include_kappa=True))))
        b = _strip_ms(json.loads(report_to_json(verify(2, include_kappa=True))))
        assert a == b

    @pytest.mark.parametrize("error", [ValueError, AssertionError, IndexError], ids=lambda e: e.__name__)
    def test_internal_violation_aborts_record_with_diagnostic(self, monkeypatch, capsys, error):
        import gdr.cli as cli_module

        def broken(g, omega):
            raise error("degree bookkeeping violated")

        monkeypatch.setattr(cli_module, "pair_bamboo_side", broken)
        report = verify(1)
        err = capsys.readouterr().err
        assert report.records == []
        assert report.aborted == ["1"]
        assert not report.passed
        assert "degree bookkeeping violated" in err


class TestMain:
    def test_verify_genus_1(self, capsys):
        code = main(["verify", "--genus", "1"])
        out = capsys.readouterr()
        assert code == 0
        payload = json.loads(out.out)
        assert payload["pass"] is True
        assert payload["records"][0]["bamboo"] == "1/24"
        assert "PASS: 1/1" in out.err

    def test_verify_writes_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.csv"
        code = main(
            [
                "verify",
                "--genus",
                "2",
                "--kappa",
                "--format",
                "csv",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "genus,omega,bamboo,dr,equal,ms"
        assert len(lines) == 4  # psi1, psi2, kappa1

    def test_bside_and_drside(self, capsys):
        assert main(["bside", "--genus", "2", "--omega", "psi2"]) == 0
        assert capsys.readouterr().out.strip() == "1/1152"
        assert main(["drside", "--genus", "2", "--omega", "psi1"]) == 0
        assert capsys.readouterr().out.strip() == "1/1152"

    def test_drside_takes_no_cache(self, capsys, tmp_path):
        # the divisor side evaluates no correlator, so there is nothing to cache
        cache = tmp_path / "c"
        with pytest.raises(SystemExit) as exit_info:
            main(["drside", "--genus", "2", "--omega", "psi1", "--cache", str(cache)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --cache" in capsys.readouterr().err
        assert not cache.exists()

    def test_omega_exponent_shorthand(self, capsys):
        assert main(["drside", "--genus", "3", "--omega", "kappa1^2"]) == 0
        assert capsys.readouterr().out.strip() == "1/630"

    def test_witten(self, capsys):
        assert main(["witten", "--genus", "2", "--exps", "1,4"]) == 0
        assert capsys.readouterr().out.strip() == "1/384"

    def test_hodge(self, capsys):
        assert main(["hodge", "--genus", "2", "--exps", "3,0"]) == 0
        assert capsys.readouterr().out.strip() == "7/5760"

    def test_bamboos(self, capsys):
        assert main(["bamboos", "--genus", "2"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "+1 2:4",
            "-1 1:0|1:3",
            "-1 1:1|1:2",
        ]

    def test_bad_omega_is_an_error(self, capsys):
        code = main(["bside", "--genus", "2", "--omega", "tau3"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_degree_mismatch_is_an_error(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        code = main(["bside", "--genus", "2", "--omega", "psi1^3"])
        assert code == 2
        assert "codim" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_invalid_inputs_are_errors_not_tracebacks(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        assert main(["bamboos", "--genus", "0"]) == 2
        assert "error" in capsys.readouterr().err
        assert main(["witten", "--genus", "1", "--exps=-1,2"]) == 2
        assert "error" in capsys.readouterr().err
        assert main(["hodge", "--genus", "-1", "--exps", "0"]) == 2
        assert "error" in capsys.readouterr().err
        assert main(["witten", "--genus", "2", "--exps", "a,b"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["hodge", "--genus", "2", "--exps", ""]) == 2
        assert "error:" in capsys.readouterr().err

        # a genus above the maximum is rejected before any enumeration or
        # recursion starts
        def no_work(*args, **kwargs):
            raise AssertionError("started work on a genus above the maximum")

        for name in (
            "correlator", "enumerate_bamboos", "verify", "pair_bamboo_side", "pair_dr_side",
            "psi_lambda_g_integral",
        ):
            monkeypatch.setattr(cli, name, no_work)
        for argv in (
            ["witten", "--genus", "16", "--exps", "46"],
            ["bamboos", "--genus", "40"],
            ["verify", "--genus", "11"],
            ["bside", "--genus", "11", "--omega", "1"],
            ["drside", "--genus", "11", "--omega", "1"],
            ["hodge", "--genus", "11", "--exps", "0"],
        ):
            assert main(argv) == 2, argv
            assert f"error: genus {argv[2]} exceeds the maximum {cli.MAX_GENUS}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

        # so is an exponent list longer than MAX_POINTS; 3000 zeros used to
        # end in a RecursionError traceback
        zeros = ",".join(["0"] * 3000)
        for argv in (
            ["witten", "--genus", "10", "--exps", zeros + ",3028"],
            ["hodge", "--genus", "10", "--exps", zeros + ",3018"],
        ):
            assert main(argv) == 2, argv[:3]
            assert f"error: 3001 exponents exceed the maximum {cli.MAX_POINTS}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []
        assert len(cli._parse_exps(",".join(["0"] * cli.MAX_POINTS))) == cli.MAX_POINTS


class TestCache:
    """A call keeps its correlators in memory only: no option, environment
    variable or working directory makes it read or write a cache file."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--genus", "2"],
            ["bside", "--genus", "2", "--omega", "psi2"],
            ["witten", "--genus", "2", "--exps", "1,4"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_cache_option_is_rejected(self, capsys, tmp_path, argv):
        cache = tmp_path / "X"
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--cache", str(cache)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --cache" in capsys.readouterr().err
        assert not cache.exists()

    def test_gdr_cache_env_is_ignored(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=SRC, GDR_CACHE=str(tmp_path / "env_cache.txt"))
        result = subprocess.run(
            [sys.executable, "-m", "gdr", "bside", "--genus", "3", "--omega", "psi1 kappa1"],
            capture_output=True,
            text=True,
            cwd=str(tmp_path),
            env=env,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == format_rational(pair_bamboo_side(3, PsiKappaMonomial.parse("psi1 kappa1")))
        assert os.listdir(tmp_path) == []


class TestParser:
    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_reused_parser_keeps_no_state_between_calls(self, capsys):
        # the second call leaves out --kappa: a Namespace left over from the
        # first would still carry it and report the kappa class too
        assert main(["verify", "--genus", "2", "--kappa"]) == 0
        assert len(json.loads(capsys.readouterr().out)["records"]) == 3
        assert main(["verify", "--genus", "2"]) == 0
        assert len(json.loads(capsys.readouterr().out)["records"]) == 2


def test_module_entry_point(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-m", "gdr", "verify", "--genus", "1"],
        capture_output=True,
        text=True,
        cwd=str(tmp_path),
        env=env,
        timeout=60,
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["pass"] is True and payload["records"][0]["dr"] == "1/24"
