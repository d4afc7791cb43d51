import errno
import hashlib
import json
import os
import re
import stat
import subprocess
import sys
import threading
from fractions import Fraction

import pytest

from gdr import cli
from gdr.bamboo import enumerate_bamboos, pair_bamboo_side
from gdr.cli import enumerate_omegas, main, verify
from gdr.core import ChainVertex, format_rational

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
# every write to it fails with ENOSPC, the error of a full disk
_FULL = "/dev/full"
needs_dev_full = pytest.mark.skipif(not os.path.exists(_FULL), reason=f"{_FULL} is absent")


def _zero_ms(text: str) -> str:
    """A JSON report with its ms fields set to 0."""
    return re.sub(r'"ms": \d+', '"ms": 0', text)


def _golden(g: int) -> str:
    with open(os.path.join(GOLDEN_DIR, f"verify_g{g}_kappa_boundary.json"), encoding="utf-8") as handle:
        return handle.read()


def _forbid_work(monkeypatch) -> None:
    """Make every entry point of work in gdr.cli fail the test if it is called."""

    def no_work(*args, **kwargs):
        raise AssertionError("started work on input that should have been rejected")

    for name in (
        "correlator", "_bamboos", "enumerate_omegas", "_records", "pair_bamboo_side", "pair_dr_side",
        "psi_lambda_g_integral",
    ):
        monkeypatch.setattr(cli, name, no_work)


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
        assert len(list(enumerate_omegas(4, include_kappa=True))) == 14

    def test_boundary_classes_at_genus_3(self):
        omegas = enumerate_omegas(3, include_kappa=True, include_boundary=True)
        boundary = [t for t in omegas if len(t.chain.vertices) == 2]
        assert len(boundary) == 12
        assert all(t.label.startswith("delta(") for t in boundary)
        # codim 1 plus the decoration degree
        assert all(1 + sum(v.decoration_degree for v in t.chain.vertices) == 2 for t in boundary)

    def test_each_monomial_is_built_once_per_call(self, monkeypatch):
        # each (genus, degree) list of vertices and labels is built once, and
        # a boundary class takes its two vertices from those lists: the 26
        # genus-5 vertices of degree 4, and those of degree 0..3 at each
        # genus 1..4
        per_degree = [len(cli._monomials_of_degree(1, degree, True)) for degree in range(5)]
        built = []
        original = cli.ChainVertex

        def counting(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(cli, "ChainVertex", counting)
        assert len(list(enumerate_omegas(5, include_kappa=True, include_boundary=True))) == 306
        assert per_degree == [1, 3, 7, 14, 26]
        assert len(built) == per_degree[4] + 4 * sum(per_degree[:4]) == 126

    def test_without_kappa_only_psi_monomials(self):
        assert [t.label for t in enumerate_omegas(3)] == ["psi1^2", "psi1 psi2", "psi2^2"]


class TestReports:
    def test_json_schema_and_values(self, capsys):
        assert main(["verify", "--genus", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"genus", "records", "pass"}
        assert payload["genus"] == 1
        assert payload["pass"] is True
        (record,) = payload["records"]
        assert record["omega"] == "1"
        assert record["bamboo"] == "1/24"
        assert record["dr"] == "1/24"
        assert record["equal"] is True
        assert isinstance(record["ms"], int)

    def test_reports_deterministic_modulo_timing(self, capsys):
        payloads = []
        for _ in range(2):
            assert main(["verify", "--genus", "2", "--kappa"]) == 0
            payloads.append(_strip_ms(json.loads(capsys.readouterr().out)))
        assert payloads[0] == payloads[1]

    @pytest.mark.parametrize("error", [ValueError, AssertionError, IndexError], ids=lambda e: e.__name__)
    def test_internal_violation_aborts_record_with_diagnostic(self, monkeypatch, capsys, error):
        import gdr.cli as cli_module

        def broken(omega):
            raise error("degree bookkeeping violated")

        monkeypatch.setattr(cli_module, "pair_bamboo_boundary", broken)
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
        out_path = tmp_path / "report.json"
        code = main(["verify", "--genus", "2", "--kappa", "--out", str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["genus"] == 2 and payload["pass"] is True
        assert [r["omega"] for r in payload["records"]] == ["psi1", "psi2", "kappa1"]
        assert capsys.readouterr().out == ""

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

    @pytest.mark.parametrize(
        "argv, name, expected",
        [
            (
                ["bside", "--genus", "3", "--omega", "psi1 kappa1"],
                "pair_bamboo_side",
                (ChainVertex.parse(3, "psi1 kappa1"),),
            ),
            (["drside", "--genus", "2", "--omega", "psi2"], "pair_dr_side", (ChainVertex.parse(2, "psi2"),)),
            (["witten", "--genus", "2", "--exps", "1,4"], "correlator", (2, (1, 4))),
            (["hodge", "--genus", "2", "--exps", "3,0"], "psi_lambda_g_integral", (2, (3, 0))),
        ],
        ids=["bside", "drside", "witten", "hodge"],
    )
    def test_value_subcommands_call_the_module_level_function(self, capsys, monkeypatch, argv, name, expected):
        # perfbench's tracer rebinds these names in gdr.cli: the command
        # line must look them up there when it runs
        calls = []

        def recorder(*args):
            calls.append(args)
            return Fraction(-7, 3)

        monkeypatch.setattr(cli, name, recorder)
        assert main(argv) == 0
        assert calls == [expected]
        assert capsys.readouterr().out == "-7/3\n"

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
        # only ASCII digits are numbers; str.isdigit would take these
        for omega, message in (
            ("psi1^\u00b2", "bad exponent in 'psi1^\u00b2'"),
            ("psi1^\u0663", "bad exponent in 'psi1^\u0663'"),
            ("kappa\u00b2", "unknown factor 'kappa\u00b2'"),
        ):
            for side in ("bside", "drside"):
                assert main([side, "--genus", "4", "--omega", omega]) == 2
                assert capsys.readouterr().err == f"error: {message}\n"

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
        for side in ("bside", "drside"):
            assert main([side, "--genus", "0", "--omega", "1"]) == 2
            assert capsys.readouterr().err == "error: genus must be >= 1\n"
        assert main(["witten", "--genus", "1", "--exps=-1,2"]) == 2
        assert "error" in capsys.readouterr().err
        assert main(["hodge", "--genus", "-1", "--exps", "0"]) == 2
        assert "error" in capsys.readouterr().err
        assert main(["witten", "--genus", "2", "--exps", "a,b"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["hodge", "--genus", "2", "--exps", ""]) == 2
        assert "error:" in capsys.readouterr().err
        # int() would read each of these entries as a number
        for command, genus, exps in (
            ("witten", "4", "1_0"),
            ("witten", "1", "\u0661"),
            ("hodge", "1", "\u0660"),
            ("witten", "1", "+1"),
            ("hodge", "2", "1, 2"),
        ):
            assert main([command, "--genus", genus, "--exps", exps]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: bad exponent list {exps!r}")
        # a negative entry is an integer, rejected by the integral itself
        assert main(["witten", "--genus", "1", "--exps=1,-2"]) == 2
        assert capsys.readouterr().err == "error: psi exponents must be >= 0\n"

        # a genus above the maximum is rejected before any enumeration or
        # recursion starts
        _forbid_work(monkeypatch)
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

    @pytest.mark.parametrize("out", [[], ["--out", "r.json"]], ids=["stdout", "out"])
    @pytest.mark.parametrize("genus", ["0", "-1"])
    def test_verify_rejects_a_genus_below_1(self, capsys, monkeypatch, tmp_path, genus, out):
        # rejected by enumerate_omegas, before the report file is opened
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--genus", genus, *out]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: genus must be >= 1\n"
        assert captured.out == ""
        assert os.listdir(tmp_path) == []


class TestStreamedReport:
    """The command line writes each record as it is produced; the report
    is the golden file byte for byte."""

    @pytest.mark.parametrize("g", range(1, 9))
    def test_out_file_matches_golden(self, capsys, tmp_path, g):
        path = tmp_path / "report.json"
        assert main(["verify", "--genus", str(g), "--kappa", "--boundary", "--out", str(path)]) == 0
        assert _zero_ms(path.read_text(encoding="utf-8")) == _golden(g)
        # the temporary file was renamed onto the target
        assert os.listdir(tmp_path) == ["report.json"]

    @pytest.mark.parametrize("g", range(1, 9))
    def test_stdout_matches_golden(self, capsys, g):
        assert main(["verify", "--genus", str(g), "--kappa", "--boundary"]) == 0
        assert _zero_ms(capsys.readouterr().out) == _golden(g)

    def test_boundary_without_kappa_streams_the_kappa_free_golden_records(self, capsys):
        assert main(["verify", "--genus", "4", "--boundary"]) == 0
        golden = _strip_ms(json.loads(_golden(4)))
        golden["records"] = [r for r in golden["records"] if "kappa" not in r["omega"]]
        assert _strip_ms(json.loads(capsys.readouterr().out)) == golden
        assert len(golden["records"]) == 34 and golden["pass"] is True

    @pytest.mark.parametrize("g", range(1, 6))
    def test_json_stdout_matches_out_file(self, capsys, tmp_path, g):
        argv = ["verify", "--genus", str(g), "--kappa", "--boundary"]
        path = tmp_path / "report.json"
        assert main(argv + ["--out", str(path)]) == 0
        assert main(argv) == 0
        assert _zero_ms(capsys.readouterr().out) == _zero_ms(path.read_bytes().decode("utf-8"))

    def test_failed_pairing_streams_no_records_and_fails(self, capsys, monkeypatch):
        def broken(omega):
            raise ValueError("degree bookkeeping violated")

        monkeypatch.setattr(cli, "pair_bamboo_boundary", broken)
        assert main(["verify", "--genus", "1"]) == 1
        out = capsys.readouterr()
        assert out.out == '{\n  "genus": 1,\n  "records": [],\n  "pass": false\n}\n'
        assert out.out == json.dumps({"genus": 1, "records": [], "pass": False}, indent=2) + "\n"
        assert "aborted record '1'" in out.err and "FAIL: 0/0" in out.err

    def test_out_file_mode_is_that_of_open(self, capsys, tmp_path):
        # the temporary file is created private; the report gets the mode
        # open(path, "w") gives a new file
        assert main(["verify", "--genus", "2", "--out", str(tmp_path / "report.json")]) == 0
        umask = os.umask(0)
        os.umask(umask)
        assert os.stat(tmp_path / "report.json").st_mode & 0o777 == 0o666 & ~umask

    @pytest.mark.parametrize("mode", [0o600, 0o640], ids=oct)
    def test_out_file_keeps_an_existing_reports_mode(self, capsys, tmp_path, mode):
        # open(path, "w") on an existing file keeps its mode; so does the rename
        path = tmp_path / "report.json"
        path.write_text("previous report\n", encoding="utf-8")
        os.chmod(path, mode)
        assert main(["verify", "--genus", "2", "--out", str(path)]) == 0
        assert os.stat(path).st_mode & 0o777 == mode
        assert json.loads(path.read_text(encoding="utf-8"))["pass"] is True


class TestOutPath:
    @pytest.mark.parametrize(
        "target, reason",
        [("missing/x.json", "No such file or directory"), (".", "Is a directory"), ("", "No such file or directory")],
        ids=["missing-directory", "a-directory", "an-empty-path"],
    )
    def test_unwritable_out_fails_before_any_work(self, capsys, monkeypatch, tmp_path, target, reason):
        def no_work(*args, **kwargs):
            raise AssertionError("paired a class for a report that cannot be written")

        for name in ("pair_bamboo_side", "pair_bamboo_boundary", "pair_dr_side", "pair_dr_boundary"):
            monkeypatch.setattr(cli, name, no_work)
        # an empty path is not the working directory: it names no file
        monkeypatch.chdir(tmp_path)
        out = str(tmp_path / target) if target else target
        code = main(["verify", "--genus", "3", "--kappa", "--boundary", "--out", out])
        # the error names the path given and the reason, never the temporary file
        assert code == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"
        assert os.listdir(tmp_path) == []

    def test_out_never_writes_through_an_existing_temporary_name(self, capsys, monkeypatch, tmp_path):
        # a link planted at the temporary file's name is not followed
        victim = tmp_path / "victim"
        victim.write_text("keep\n", encoding="utf-8")
        out = tmp_path / "report.json"
        os.symlink(victim, f"{out}.{os.getpid()}.tmp")
        assert main(["verify", "--genus", "1", "--out", str(out)]) == 2
        assert "error: cannot write" in capsys.readouterr().err
        assert victim.read_text(encoding="utf-8") == "keep\n" and not out.exists()

    def test_out_writes_through_a_symlink(self, capsys, tmp_path):
        # as open(path, "w") would: the link stays a link, its target gets the report
        argv = ["verify", "--genus", "3", "--kappa", "--boundary"]
        real = tmp_path / "real.json"
        real.write_text("previous report\n", encoding="utf-8")
        link = tmp_path / "link.json"
        os.symlink(real, link)
        assert main(argv + ["--out", str(link)]) == 0
        assert main(argv) == 0
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert _zero_ms(real.read_text(encoding="utf-8")) == _zero_ms(capsys.readouterr().out)
        assert sorted(os.listdir(tmp_path)) == ["link.json", "real.json"]

    def test_out_writes_into_a_fifo(self, capsys, tmp_path):
        # a pipe is written, not replaced by a regular file; a thread reads it
        argv = ["verify", "--genus", "3", "--kappa", "--boundary"]
        fifo = tmp_path / "report.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main(argv + ["--out", str(fifo)]) == 0
        reader.join(timeout=60)
        assert not reader.is_alive() and stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert main(argv) == 0
        assert _zero_ms(received[0].decode("utf-8")) == _zero_ms(capsys.readouterr().out)
        assert os.listdir(tmp_path) == ["report.fifo"]

    def test_out_writes_into_a_pipe_named_by_its_descriptor(self, capsys, tmp_path):
        # /dev/fd/N of a pipe, as a shell's >(...) or /dev/stdout into a pipe
        # passes it, is written, not resolved to a name that does not exist
        argv = ["verify", "--genus", "3", "--kappa", "--boundary"]
        read_end, write_end = os.pipe()
        received = []

        def drain():
            with os.fdopen(read_end, "rb") as pipe:
                received.append(pipe.read())

        reader = threading.Thread(target=drain, daemon=True)
        reader.start()
        try:
            assert main(argv + ["--out", f"/dev/fd/{write_end}"]) == 0
        finally:
            os.close(write_end)
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert main(argv) == 0
        assert _zero_ms(received[0].decode("utf-8")) == _zero_ms(capsys.readouterr().out)

    def test_out_pipe_that_closes_is_a_failed_write(self, capsys):
        # /dev/fd/N of a pipe whose reader closes after the first bytes, long
        # before the 136 kB report fits in the pipe: a failed write of the
        # report, not a closed stdout, although stdout has no descriptor
        argv = ["verify", "--genus", "6", "--kappa", "--boundary"]
        read_end, write_end = os.pipe()
        received = []

        def read_first_bytes():
            with os.fdopen(read_end, "rb") as pipe:
                received.append(pipe.read(100))

        reader = threading.Thread(target=read_first_bytes, daemon=True)
        reader.start()
        try:
            assert main(argv + ["--out", f"/dev/fd/{write_end}"]) == 2
        finally:
            os.close(write_end)
        reader.join(timeout=60)
        assert not reader.is_alive() and received[0].startswith(b'{\n  "genus": 6,')
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write /dev/fd/{write_end}: {os.strerror(errno.EPIPE)}\n"
        assert captured.out == ""

    @needs_dev_full
    def test_out_device_that_fails_to_write_is_an_error(self, capsys):
        # /dev/full is written directly, as a device; the error is the write's
        assert main(["verify", "--genus", "2", "--out", _FULL]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {_FULL}: {os.strerror(errno.ENOSPC)}\n"
        assert captured.out == ""

    @needs_dev_full
    @pytest.mark.parametrize(
        "argv",
        [["--genus", "2"], ["--genus", "4", "--kappa", "--boundary"]],
        ids=["fails-at-the-flush", "fails-part-way"],
    )
    def test_out_file_that_fails_to_write_keeps_previous_report(self, capsys, monkeypatch, tmp_path, argv):
        # the temporary file's descriptor is pointed at /dev/full as the
        # report starts, as if the disk filled up. A 1 kB report fails at
        # the flush after it, an 11 kB one (more than the 8 kB buffer)
        # part-way; closing the file then fails again, and the first error
        # is the one shown
        path = tmp_path / "report.json"
        path.write_text("previous report\n", encoding="utf-8")
        write_report = cli._write_report

        def on_a_full_disk(handle, *args):
            full = os.open(_FULL, os.O_WRONLY)
            os.dup2(full, handle.fileno())
            os.close(full)
            return write_report(handle, *args)

        monkeypatch.setattr(cli, "_write_report", on_a_full_disk)
        assert main(["verify", *argv, "--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {path}: {os.strerror(errno.ENOSPC)}\n"
        assert captured.out == ""
        assert path.read_text(encoding="utf-8") == "previous report\n"
        assert os.listdir(tmp_path) == ["report.json"]

    def test_interrupted_run_keeps_previous_report(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("previous report\n", encoding="utf-8")
        original = cli.pair_dr_boundary
        calls = []

        def interrupted(omega):
            calls.append(omega)
            if len(calls) > 3:
                raise KeyboardInterrupt
            return original(omega)

        monkeypatch.setattr(cli, "pair_dr_boundary", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["verify", "--genus", "3", "--kappa", "--boundary", "--out", str(path)])
        assert len(calls) == 4
        assert path.read_text(encoding="utf-8") == "previous report\n"
        assert os.listdir(tmp_path) == ["report.json"]


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
        assert result.stdout.strip() == format_rational(pair_bamboo_side(ChainVertex.parse(3, "psi1 kappa1")))
        assert os.listdir(tmp_path) == []


# Every option of each subcommand, with a value, and the options of the
# other subcommands as they would be given.
OWN_OPTIONS = {
    "verify": ["--genus", "2", "--kappa", "--boundary", "--out", "r.json"],
    "bside": ["--genus", "2", "--omega", "psi2"],
    "drside": ["--genus", "2", "--omega", "psi1"],
    "witten": ["--genus", "2", "--exps", "1,4"],
    "hodge": ["--genus", "2", "--exps", "3,0"],
    "bamboos": ["--genus", "2"],
}
ANY_OPTION = {
    "--kappa": [], "--boundary": [], "--out": ["r.json"], "--omega": ["psi1"], "--exps": ["1"],
}


class TestParser:
    """The command line is read against one table of subcommands and
    options, with argparse's wording for every usage error."""

    @pytest.mark.parametrize("command", sorted(OWN_OPTIONS))
    def test_each_subcommand_accepts_exactly_its_own_options(self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        argv = [command] + OWN_OPTIONS[command]
        own = [word for word in OWN_OPTIONS[command] if word.startswith("--")]
        assert sorted(vars(cli._parse(argv))) == sorted(["command"] + [name[2:] for name in own])
        for name, value in ANY_OPTION.items():
            if name in own:
                continue
            with pytest.raises(SystemExit) as exit_info:
                main(argv + [name] + value)
            assert exit_info.value.code == 2
            assert capsys.readouterr().err.endswith(f"gdr: error: unrecognized arguments: {' '.join([name] + value)}\n")
        assert os.listdir(tmp_path) == []

    def test_values_and_defaults(self):
        assert vars(cli._parse(["verify"] + OWN_OPTIONS["verify"])) == {
            "command": "verify", "genus": 2, "kappa": True, "boundary": True, "out": "r.json",
        }
        assert vars(cli._parse(["verify", "--genus", "-1"])) == {
            "command": "verify", "genus": -1, "kappa": False, "boundary": False, "out": None,
        }

    def test_equals_form_any_order_and_last_occurrence(self):
        expected = cli._parse(["bside", "--genus", "3", "--omega", "psi1 kappa1"])
        assert vars(expected) == {"command": "bside", "genus": 3, "omega": "psi1 kappa1"}
        for argv in (
            ["bside", "--genus=3", "--omega=psi1 kappa1"],
            ["bside", "--omega", "psi1 kappa1", "--genus=3"],
            ["bside", "--genus", "5", "--omega", "psi2", "--genus=3", "--omega", "psi1 kappa1"],
        ):
            assert cli._parse(argv) == expected, argv
        assert cli._parse(["witten", "--genus", "1", "--exps=-1,2"]).exps == "-1,2"

    @pytest.mark.parametrize(
        "argv, wording",
        [
            (["bside", "--omega", "psi1", "--genus"], "argument --genus: expected one argument"),
            (["witten", "--genus", "2", "--exps", "-1,2"], "argument --exps: expected one argument"),
            (["bside", "--genus", "2"], "the following arguments are required: --omega"),
            (["witten"], "the following arguments are required: --genus, --exps"),
            (["bside", "--genus", "x", "--omega", "1"], "argument --genus: invalid int value: 'x'"),
            # a negative decimal is a value, as in argparse, and no int
            (["hodge", "--genus", "-.5", "--exps", "1"], "argument --genus: invalid int value: '-.5'"),
            # verify writes JSON only: --format is an option of no subcommand
            (["verify", "--genus", "1", "--format", "xml"], "unrecognized arguments: --format xml"),
            (["verify", "--genus", "1", "--format", "csv"], "unrecognized arguments: --format csv"),
            (["verify", "--format=json", "--genus", "1"], "unrecognized arguments: --format=json"),
            (
                ["frobnicate", "--genus", "1"],
                "argument command: invalid choice: 'frobnicate' "
                "(choose from 'verify', 'bside', 'drside', 'witten', 'hodge', 'bamboos')",
            ),
            ([], "the following arguments are required: command"),
            (["verify", "--genus", "1", "--kappa=yes"], "argument --kappa: ignored explicit argument 'yes'"),
            # names are not abbreviated
            (["verify", "--gen", "1"], "the following arguments are required: --genus"),
        ],
        ids=[
            "missing-value", "option-as-value", "missing-option", "missing-options", "bad-int", "decimal-int",
            "bad-format", "format-csv", "format-equals-json",
            "unknown-subcommand", "no-arguments", "flag-with-value", "abbreviation",
        ],
    )
    def test_usage_error_exits_2_with_argparse_wording(self, capsys, monkeypatch, argv, wording):
        _forbid_work(monkeypatch)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: gdr ")
        assert captured.err.endswith(f"\ngdr: error: {wording}\n")

    @pytest.mark.parametrize("value", ["1_0", "\u0661", " +2", "+2"])
    @pytest.mark.parametrize("equals", [False, True], ids=["spaced", "equals"])
    @pytest.mark.parametrize("command", ["verify", "bside", "witten", "bamboos"])
    def test_genus_outside_the_integer_grammar_is_a_usage_error(self, capsys, monkeypatch, command, equals, value):
        _forbid_work(monkeypatch)
        # int() reads each of these values as a number; the grammar of
        # --exps entries reads none of them
        genus = [f"--genus={value}"] if equals else ["--genus", value]
        rest = {"bside": ["--omega", "psi1"], "witten": ["--exps", "1"]}.get(command, [])
        with pytest.raises(SystemExit) as exit_info:
            main([command] + genus + rest)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: gdr {command} ")
        assert captured.err.endswith(f"\ngdr: error: argument --genus: invalid int value: {value!r}\n")

    def test_negative_decimal_is_a_value(self, capsys):
        # argparse takes -1.5 as the value of --exps, and the exponent list
        # then rejects it: exit 2 from main, not a usage error
        assert cli._parse(["hodge", "--genus", "2", "--exps", "-1.5"]).exps == "-1.5"
        assert main(["hodge", "--genus", "2", "--exps", "-1.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad exponent list '-1.5'")

    def test_value_with_a_space_is_a_value(self, capsys):
        # as in argparse: a known option, also as --opt=value, is an option
        # even with a space; any other token with a space is a value
        assert cli._parse(["bside", "--genus", "2", "--omega", "-psi1 psi2"]).omega == "-psi1 psi2"
        assert main(["bside", "--genus", "2", "--omega", "-psi1 psi2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown factor '-psi1'\n"
        with pytest.raises(SystemExit) as exit_info:
            main(["bside", "--genus", "2", "--omega", "--genus=2 psi2"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.endswith("\ngdr: error: argument --omega: expected one argument\n")

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["verify", "--genus", "2", "--help"]])
    def test_help_prints_the_module_docstring(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == cli.__doc__.splitlines()[0]
        # the docstring lists every subcommand with every option of the table
        listed = {line.split()[0]: line for line in out.splitlines() if line.startswith("    ")}
        for command, (options, _) in cli._COMMANDS.items():
            assert all(name in listed[command] for name in options), command

    @pytest.mark.parametrize("module", ["argparse", "dataclasses"])
    def test_import_leaves_module_out(self, module):
        code = f"import sys, gdr.cli; assert {module!r} not in sys.modules"
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
            timeout=60,
        )
        assert result.returncode == 0, result.stderr

    def test_reused_parser_keeps_no_state_between_calls(self, capsys):
        # the second call leaves out --kappa: a Namespace left over from the
        # first would still carry it and report the kappa class too
        assert main(["verify", "--genus", "2", "--kappa"]) == 0
        assert len(json.loads(capsys.readouterr().out)["records"]) == 3
        assert main(["verify", "--genus", "2"]) == 0
        assert len(json.loads(capsys.readouterr().out)["records"]) == 2


# sha256 of ``gdr bamboos --genus 8`` (43,263 lines); CI pins g = 9 the same way
BAMBOOS_G8_SHA256 = "82017b34a073f14d48cbbd464daf89722899658808e303d274336cce6182defe"


class TestBamboos:
    def test_genus_8_matches_its_digest(self, capsys):
        assert main(["bamboos", "--genus", "8"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 43263
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == BAMBOOS_G8_SHA256

    @pytest.mark.parametrize("g", range(1, 8))
    def test_lists_enumerate_bamboos(self, capsys, g):
        assert main(["bamboos", "--genus", str(g)]) == 0
        assert capsys.readouterr().out.splitlines() == [str(b) for b in enumerate_bamboos(g)]

    def test_each_term_is_printed_before_the_next_is_built(self, capsys, monkeypatch):
        produced = []
        terms = cli._bamboos

        def watched(g):
            for term in terms(g):
                assert capsys.readouterr().out == "".join(f"{t}\n" for t in produced[-1:])
                produced.append(term)
                yield term

        monkeypatch.setattr(cli, "_bamboos", watched)
        assert main(["bamboos", "--genus", "4"]) == 0
        assert capsys.readouterr().out == f"{produced[-1]}\n"
        assert produced == enumerate_bamboos(4)


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


@pytest.mark.parametrize(
    "argv",
    [["bamboos", "--genus", "8"], ["verify", "--genus", "7", "--kappa", "--boundary"]],
    ids=["bamboos", "verify"],
)
def test_closed_pipe_ends_without_a_traceback(tmp_path, argv):
    # the reader closes after one line, long before the output (about 1 MB
    # and 0.4 MB) fits in the pipe: the next write fails with EPIPE
    env = dict(os.environ, PYTHONPATH=SRC)
    # leaving the block closes both pipes and waits for the child
    with subprocess.Popen(
        [sys.executable, "-m", "gdr", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=str(tmp_path),
        env=env,
    ) as process:
        try:
            assert process.stdout.readline()
            process.stdout.close()
            err = process.stderr.read().decode()
            assert process.wait(timeout=60) == 1
        finally:
            process.kill()
    assert err == ""
    assert os.listdir(tmp_path) == []


def test_closed_out_pipe_ends_with_an_error_not_a_traceback(tmp_path):
    # --out names a pipe whose reader closes after the first bytes, long
    # before the 0.4 MB report fits in it: a failed write of the report,
    # exit 2 with one error line, while stdout stays open
    env = dict(os.environ, PYTHONPATH=SRC)
    read_end, write_end = os.pipe()
    path = f"/dev/fd/{write_end}"
    with subprocess.Popen(
        [sys.executable, "-m", "gdr", "verify", "--genus", "7", "--kappa", "--boundary", "--out", path],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=str(tmp_path),
        env=env,
        pass_fds=(write_end,),
    ) as process:
        try:
            os.close(write_end)  # the child holds the only write end
            with os.fdopen(read_end, "rb") as pipe:
                assert pipe.read(100)
            out, err = process.communicate(timeout=60)
        finally:
            process.kill()
    assert process.returncode == 2
    assert err.decode() == f"error: cannot write {path}: {os.strerror(errno.EPIPE)}\n"
    assert out == b""
    assert os.listdir(tmp_path) == []


@needs_dev_full
@pytest.mark.parametrize(
    "argv", [["bamboos", "--genus", "3"], ["verify", "--genus", "3"]], ids=["bamboos", "verify"]
)
def test_full_stdout_ends_with_an_error_not_a_traceback(tmp_path, argv):
    # the flush at exit must not raise the error again
    env = dict(os.environ, PYTHONPATH=SRC)
    with open(_FULL, "w", encoding="utf-8") as full:
        result = subprocess.run(
            [sys.executable, "-m", "gdr", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            cwd=str(tmp_path),
            env=env,
            timeout=60,
        )
    assert result.returncode == 2
    assert result.stderr == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"
    assert os.listdir(tmp_path) == []
