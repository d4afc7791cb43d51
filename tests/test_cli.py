import json
import os
import subprocess
import sys

import pytest

from gdr import cli
from gdr.cli import (
    enumerate_omegas,
    main,
    report_to_csv,
    report_to_json,
    resolve_cache_path,
    verify,
)
from gdr.correlators import load_cache


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
    def test_verify_genus_1(self, capsys, tmp_path):
        code = main(["verify", "--genus", "1", "--cache", str(tmp_path / "c.txt")])
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
                "--cache",
                str(tmp_path / "c.txt"),
            ]
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "genus,omega,bamboo,dr,equal,ms"
        assert len(lines) == 4  # psi1, psi2, kappa1

    def test_bside_and_drside(self, capsys, tmp_path):
        assert main(["bside", "--genus", "2", "--omega", "psi2", "--cache", str(tmp_path / "c")]) == 0
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

    def test_omega_exponent_shorthand(self, capsys, tmp_path):
        assert main(["drside", "--genus", "3", "--omega", "kappa1^2"]) == 0
        assert capsys.readouterr().out.strip() == "1/630"

    def test_witten(self, capsys, tmp_path):
        assert main(["witten", "--genus", "2", "--exps", "1,4", "--cache", str(tmp_path / "c")]) == 0
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

    def test_bad_omega_is_an_error(self, capsys, tmp_path):
        code = main(["bside", "--genus", "2", "--omega", "tau3", "--cache", str(tmp_path / "c")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_degree_mismatch_is_an_error(self, capsys, tmp_path):
        code = main(["bside", "--genus", "2", "--omega", "psi1^3", "--cache", str(tmp_path / "c")])
        assert code == 2
        assert "codim" in capsys.readouterr().err
        # the cache is stored only after a result
        assert not (tmp_path / "c").exists()

    def test_invalid_inputs_are_errors_not_tracebacks(self, capsys, monkeypatch, tmp_path):
        assert main(["bamboos", "--genus", "0"]) == 2
        assert "error" in capsys.readouterr().err
        assert main(["witten", "--genus", "1", "--exps=-1,2", "--cache", str(tmp_path / "c")]) == 2
        assert "error" in capsys.readouterr().err
        assert main(["hodge", "--genus", "-1", "--exps", "0"]) == 2
        assert "error" in capsys.readouterr().err
        assert main(["witten", "--genus", "2", "--exps", "a,b", "--cache", str(tmp_path / "c")]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["hodge", "--genus", "2", "--exps", ""]) == 2
        assert "error:" in capsys.readouterr().err

        # a genus above the maximum is rejected before any enumeration,
        # recursion or cache load starts
        def no_work(*args, **kwargs):
            raise AssertionError("started work on a genus above the maximum")

        for name in (
            "correlator", "enumerate_bamboos", "verify", "pair_bamboo_side", "pair_dr_side",
            "psi_lambda_g_integral", "_load_cache_tolerant",
        ):
            monkeypatch.setattr(cli, name, no_work)
        cache = str(tmp_path / "big")
        for argv in (
            ["witten", "--genus", "16", "--exps", "46", "--cache", cache],
            ["bamboos", "--genus", "40"],
            ["verify", "--genus", "11", "--cache", cache],
            ["bside", "--genus", "11", "--omega", "1", "--cache", cache],
            ["drside", "--genus", "11", "--omega", "1"],
            ["hodge", "--genus", "11", "--exps", "0"],
        ):
            assert main(argv) == 2, argv
            assert f"error: genus {argv[2]} exceeds the maximum {cli.MAX_GENUS}" in capsys.readouterr().err
        assert not os.path.exists(cache)

        # so is an exponent list longer than MAX_POINTS; 3000 zeros used to
        # end in a RecursionError traceback
        zeros = ",".join(["0"] * 3000)
        for argv in (
            ["witten", "--genus", "10", "--exps", zeros + ",3028", "--cache", cache],
            ["hodge", "--genus", "10", "--exps", zeros + ",3018"],
        ):
            assert main(argv) == 2, argv[:3]
            assert f"error: 3001 exponents exceed the maximum {cli.MAX_POINTS}" in capsys.readouterr().err
        assert not os.path.exists(cache)
        assert len(cli._parse_exps(",".join(["0"] * cli.MAX_POINTS))) == cli.MAX_POINTS


class TestCache:
    def test_cache_file_written_and_reusable(self, capsys, tmp_path):
        path = tmp_path / "cache.txt"
        assert main(["verify", "--genus", "2", "--cache", str(path)]) == 0
        capsys.readouterr()
        table = load_cache(str(path))
        assert table  # correlators were persisted
        assert main(["verify", "--genus", "2", "--cache", str(path)]) == 0

    def test_corrupted_cache_rejected_and_recovered(self, capsys, tmp_path):
        path = tmp_path / "cache.txt"
        for corrupted in (b"not;a;valid;line\n", b"1;1;1/24\n\xff\n"):
            path.write_bytes(corrupted)
            code = main(["verify", "--genus", "2", "--cache", str(path)])
            out = capsys.readouterr()
            assert code == 0
            assert "rejected" in out.err
            assert json.loads(out.out)["pass"] is True
            # the rewritten cache is clean again
            assert load_cache(str(path)) != {}

    def test_resolve_cache_path_precedence(self, monkeypatch):
        monkeypatch.delenv("GDR_CACHE", raising=False)
        assert resolve_cache_path(None) == ".gdr_cache"
        monkeypatch.setenv("GDR_CACHE", "/tmp/env_cache")
        assert resolve_cache_path(None) == "/tmp/env_cache"
        assert resolve_cache_path("explicit") == "explicit"

    def test_gdr_cache_env_is_used(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "env_cache.txt"
        monkeypatch.setenv("GDR_CACHE", str(path))
        assert main(["witten", "--genus", "1", "--exps", "0,2"]) == 0
        assert capsys.readouterr().out.strip() == "1/24"
        assert path.exists()


def test_module_entry_point(tmp_path):
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["GDR_CACHE"] = str(tmp_path / "cache.txt")
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
