"""Tests for the CSV front end: schemas, exit codes, determinism."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mazersim
import mazersim.cli
from mazersim.cli import main
from mazersim.transfer import TransferError

SWEEP_HEADER = "kappaL,P_em,Ta2,Tb2,Ra2,Rb2,unit_defect_plus,unit_defect_minus"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(text):
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


class TestSweep:
    def test_row_count_and_schema(self, capsys):
        code, out, _ = run(capsys, [
            "sweep", "--profile", "mesa", "--k", "0.5",
            "--range", "0:20:0.1", "--J", "2"])
        assert code == 0
        rows = data_rows(out)
        assert rows[0] == SWEEP_HEADER
        assert len(rows) == 1 + 201
        first = rows[1].split(",")
        assert len(first) == 8
        assert float(first[0]) == 0.0
        assert float(rows[-1].split(",")[0]) == 20.0

    def test_header_echoes_config_with_hash(self, capsys):
        code, out, _ = run(capsys, [
            "sweep", "--profile", "mesa", "--k", "0.5",
            "--range", "0:1:0.5", "--J", "2"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# mazersim sweep"
        assert "profile=mesa" in lines[1]
        assert "k_over_kappa=0.5" in lines[1]
        assert lines[2].startswith("# config_sha256=")
        assert len(lines[2].split("=")[1]) == 12

    def test_byte_identical_reruns(self, capsys):
        argv = ["sweep", "--profile", "sech2", "--k", "0.1",
                "--range", "0:2:0.5", "--J", "40"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_parallel_output_identical(self, capsys):
        # 17 rows, three chunks: one chunk alone is solved without a pool
        base = ["sweep", "--profile", "mesa", "--k", "0.5",
                "--range", "0:8:0.5", "--J", "2"]
        _, serial, _ = run(capsys, base)
        _, parallel, _ = run(capsys, base + ["--workers", "2"])
        assert serial == parallel

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, [
            "sweep", "--profile", "mesa", "--k", "0.5",
            "--range", "0:1:0.5", "--J", "2", "--output", str(target)])
        assert code == 0
        assert out == ""
        text = target.read_text()
        assert SWEEP_HEADER in text
        assert len(data_rows(text)) == 1 + 3

    def test_failed_row_marks_and_exit_2(self, capsys, monkeypatch):
        import mazersim.mazer as mz

        real = mz.solve_scattering

        def boom(grid, **kw):
            if grid.profile.length == 1.0:
                raise RuntimeError("synthetic failure")
            return real(grid, **kw)

        monkeypatch.setattr(mz, "solve_scattering", boom)
        code, out, _ = run(capsys, [
            "sweep", "--profile", "mesa", "--k", "0.5",
            "--range", "0.5:1.5:0.5", "--J", "2"])
        assert code == 2
        rows = data_rows(out)
        assert len(rows) == 1 + 3
        bad = rows[2].split(",")
        assert float(bad[0]) == 1.0
        assert math.isnan(float(bad[1]))
        assert any(ln.startswith("# error kappaL=1.0") for ln in out.splitlines())


class TestConfigErrors:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--profile", "nope", "--k", "0.5", "--range", "0:1:0.5", "--J", "2"],
        ["sweep", "--profile", "mesa", "--k", "0.5", "--range", "0:1", "--J", "2"],
        ["sweep", "--profile", "mesa", "--k", "0.5", "--range", "1:0:0.5", "--J", "2"],
        ["sweep", "--profile", "mesa", "--k", "0.5", "--range", "0:1:0", "--J", "2"],
        ["sweep", "--profile", "mesa", "--k", "0.5", "--range", "0:1:inf", "--J", "2"],
        ["sweep", "--profile", "mesa", "--k", "-1", "--range", "0:1:0.5", "--J", "2"],
        ["sweep", "--profile", "sech2", "--k", "inf", "--range", "0:1:0.5", "--J", "20"],
        ["sweep", "--profile", "sech2", "--k", "1e-300", "--range", "0:1:0.5", "--J", "20"],
        ["sweep", "--profile", "sech2", "--k", "1e110", "--range", "0:1:0.5", "--J", "20"],
        ["sweep", "--profile", "mesa", "--k", "0.5", "--range", "0:1:0.5", "--J", "1"],
        ["sweep", "--profile", "mesa", "--k", "0.5", "--range", "0:1:0.5", "--J", "2",
         "--workers", "0"],
        ["converge", "--profile", "mesa", "--k", "0.5", "--kappaL", "1",
         "--J", "100,50"],
        ["compare-oracle", "--profile", "sin", "--k", "0.5",
         "--range", "0:1:0.5", "--J", "2"],
        ["wavefunction", "--profile", "mesa", "--k", "0.5", "--kappaL", "1",
         "--J", "2", "--branch", "both"],
        ["no-such-command"],
        ["sweep", "--profile", "sech2", "--k", "0.5", "--range", "0:1:0.5",
         "--J", "20", "--window-factor", "-1"],
        ["sweep", "--profile", "sech2", "--k", "0.5", "--range", "0:1:0.5",
         "--J", "20", "--window-factor", "nan"],
        ["converge", "--profile", "gauss", "--k", "0.5", "--kappaL", "1",
         "--J", "20,40", "--window-factor", "inf"],
        ["sweep", "--profile", "sech2", "--k", "0.5", "--range", "0:1:0.5",
         "--J", "20", "--window-factor", "1e4"],
        ["sweep", "--profile", "sech2", "--k", "0.1", "--range=-0.2:0.2:0.1",
         "--J", "50"],
        ["sweep", "--profile", "mesa", "--k", "0.5", "--range", "0:a:1", "--J", "2"],
        ["converge", "--profile", "mesa", "--k", "0.5", "--kappaL", "1",
         "--J", "100,x"],
        ["converge", "--profile", "mesa", "--k", "0.5", "--kappaL", "1",
         "--J", "1,100"],
        ["wavefunction", "--profile", "mesa", "--k", "0.5", "--kappaL", "1",
         "--J", "2", "--samples", "1"],
        ["wavefunction", "--profile", "sin2", "--k", "0.1", "--kappaL", "5",
         "--J", "1"],
        ["sweep", "--profile", "tabulated", "--k", "0.5", "--range", "0:1:0.5",
         "--J", "2"],
        ["sweep", "--profile", "mesa", "--k", "0.5", "--range", "0:1e308:1e-300",
         "--J", "2"],
        ["sweep", "--profile", "mesa", "--k", "0.5", "--range", "0:1e6:1",
         "--J", "2"],
    ])
    def test_exit_1(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 1
        assert err.startswith("error:")

    def test_unwritable_output_path(self, capsys):
        code, _, err = run(capsys, [
            "sweep", "--profile", "mesa", "--k", "0.5",
            "--range", "0:1:0.5", "--J", "2",
            "--output", "/no/such/dir/out.csv"])
        assert code == 1
        assert "cannot write" in err

    @pytest.mark.parametrize("value", ["many", "0"])
    def test_bad_threads_env(self, capsys, monkeypatch, value):
        monkeypatch.setenv("MAZER_THREADS", value)
        code, _, err = run(capsys, [
            "sweep", "--profile", "mesa", "--k", "0.5",
            "--range", "0:1:0.5", "--J", "2"])
        assert code == 1
        assert "MAZER_THREADS" in err

    def test_threads_env_bounds_workers(self, capsys, monkeypatch):
        monkeypatch.setenv("MAZER_THREADS", "1")
        code, out, _ = run(capsys, [
            "sweep", "--profile", "mesa", "--k", "0.5",
            "--range", "0:1:0.5", "--J", "2", "--workers", "8"])
        assert code == 0
        assert len(data_rows(out)) == 1 + 3


class TestConverge:
    def test_schema_and_settle_line(self, capsys):
        code, out, _ = run(capsys, [
            "converge", "--profile", "sech2", "--k", "0.1",
            "--kappaL", "5", "--J", "50,100,200"])
        assert code == 0
        rows = data_rows(out)
        assert rows[0] == "J,P_em"
        assert [int(r.split(",")[0]) for r in rows[1:]] == [50, 100, 200]
        settle_lines = [ln for ln in out.splitlines()
                        if ln.startswith("# settle=")]
        assert len(settle_lines) == 1
        assert float(settle_lines[0].split("=")[1]) < 0.005

    def test_failed_study_marks_and_exit_2(self, capsys):
        # two nodes cannot resolve the first excited sine
        code, out, _ = run(capsys, [
            "converge", "--profile", "sin2", "--k", "0.1",
            "--kappaL", "5", "--J", "2,3"])
        assert code == 2
        assert data_rows(out) == ["J,P_em"]
        assert out.splitlines()[-1].startswith("# error: GridResolutionError: ")


class TestCompareOracle:
    def test_mesa_agreement_is_exact(self, capsys):
        code, out, _ = run(capsys, [
            "compare-oracle", "--profile", "mesa", "--k", "0.5",
            "--range", "0:2:0.5", "--J", "2"])
        assert code == 0
        rows = data_rows(out)
        assert rows[0] == SWEEP_HEADER + ",P_em_oracle,abs_dev"
        assert len(rows) == 1 + 5
        summary = [ln for ln in out.splitlines()
                   if ln.startswith("# max_abs_dev=")]
        assert len(summary) == 1
        assert float(summary[0].split("=")[1]) <= 1e-12

    def test_sech2_agreement_is_close(self, capsys):
        code, out, _ = run(capsys, [
            "compare-oracle", "--profile", "sech2", "--k", "0.1",
            "--range", "0:4:1", "--J", "100"])
        assert code == 0
        summary = [ln for ln in out.splitlines()
                   if ln.startswith("# max_abs_dev=")][0]
        assert float(summary.split("=")[1]) <= 0.01


class TestWavefunction:
    def test_dump_schema(self, capsys):
        code, out, _ = run(capsys, [
            "wavefunction", "--profile", "mesa", "--k", "0.5",
            "--kappaL", "2", "--J", "2", "--samples", "9"])
        assert code == 0
        rows = data_rows(out)
        assert rows[0] == "x,re_psi,im_psi,abs2_psi"
        assert len(rows) == 1 + 9
        xs = [float(r.split(",")[0]) for r in rows[1:]]
        assert xs[0] == 0.0 and xs[-1] == 2.0
        assert xs == sorted(xs)
        for r in rows[1:]:
            _, re, im, a2 = (float(v) for v in r.split(","))
            assert a2 == pytest.approx(re * re + im * im, rel=1e-12)

    def test_negative_branch(self, capsys):
        code, out, _ = run(capsys, [
            "wavefunction", "--profile", "sech2", "--k", "0.1",
            "--kappaL", "2", "--J", "50", "--branch", "-1", "--samples", "5"])
        assert code == 0
        assert "branch=-1" in out.splitlines()[1]

    def test_unresolved_grid_marks_and_exit_2(self, capsys):
        # a valid invocation whose grid two nodes cannot resolve is failed
        # data, as in converge, not a configuration error
        code, out, err = run(capsys, [
            "wavefunction", "--profile", "sin2", "--k", "0.1",
            "--kappaL", "5", "--J", "2"])
        assert code == 2
        assert err == ""
        assert out.splitlines()[0] == "# mazersim wavefunction"
        assert data_rows(out) == ["x,re_psi,im_psi,abs2_psi"]
        assert out.splitlines()[-1].startswith("# error: GridResolutionError: ")

    def test_transfer_error_marks_and_exit_2(self, capsys, monkeypatch):
        # a solve that raises while sampling is failed data as well
        def degenerate(*args):
            raise TransferError("C0 - i*D0 vanished: degenerate normalization")

        monkeypatch.setattr(mazersim.cli, "wavefunction", degenerate)
        code, out, err = run(capsys, [
            "wavefunction", "--profile", "mesa", "--k", "0.5",
            "--kappaL", "2", "--J", "2"])
        assert code == 2
        assert err == ""
        assert data_rows(out) == ["x,re_psi,im_psi,abs2_psi"]
        assert out.splitlines()[-1] == (
            "# error: TransferError: C0 - i*D0 vanished: degenerate normalization")

    def test_requires_positive_length(self, capsys):
        code, _, err = run(capsys, [
            "wavefunction", "--profile", "mesa", "--k", "0.5",
            "--kappaL", "0", "--J", "2"])
        assert code == 1
        assert "kappaL" in err


def python(*args: str, text: bool = True) -> subprocess.CompletedProcess:
    """A fresh interpreter run with this package's source on PYTHONPATH."""
    src = str(Path(mazersim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=text, check=False)


def test_import_loads_no_scipy_optimize_integrate_or_linalg():
    # brentq, quad and loggamma are imported inside the functions that call
    # them, so a fresh interpreter that starts the command line loads no
    # scipy module at all, these three stacks included
    done = python("-c", "import sys, mazersim, mazersim.cli; print([m for m "
                  "in sys.modules if m.split('.')[0] == 'scipy'])")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("argv, exit_code", [
    (["sweep", "--profile", "mesa", "--k", "0.5", "--range", "0:2:0.5",
      "--J", "2"], 0),
    (["sweep", "--profile", "sech2", "--k", "1e110", "--range", "0:1:0.5",
      "--J", "20"], 1),
], ids=["mesa_sweep", "refused_momentum"])
def test_module_form_runs_the_command(capsys, argv, exit_code):
    # python -m mazersim.cli prints the bytes main(argv) prints and exits
    # with its code
    code, out, err = run(capsys, argv)
    done = python("-m", "mazersim.cli", *argv, text=False)
    assert done.returncode == code == exit_code
    assert done.stdout == out.encode()
    assert done.stderr == err.encode()
    assert bool(out) != bool(exit_code)
    assert err.startswith("error:") == bool(exit_code)


def test_back_to_back_calls_print_what_a_first_call_prints(capsys):
    # main builds its parser once per process; a sweep, a refused call
    # (argparse error, exit 1), a converge and the sweep again each print
    # the bytes they print as the first call of a process
    sweep = ["sweep", "--profile", "sech2", "--k", "0.1",
             "--range", "0:2:0.5", "--J", "40"]
    calls = [
        sweep,
        ["converge", "--profile", "sech2", "--k", "0.1", "--kappaL", "2"],
        ["converge", "--profile", "sech2", "--k", "0.1", "--kappaL", "2",
         "--J", "40,80"],
        sweep,
    ]
    first = []
    for argv in calls:
        mazersim.cli._build_parser.cache_clear()
        first.append(run(capsys, argv))
    mazersim.cli._build_parser.cache_clear()
    again = [run(capsys, argv) for argv in calls]
    assert mazersim.cli._build_parser.cache_info().misses == 1
    assert again == first
    assert [code for code, _, _ in first] == [0, 1, 0, 0]
    assert first[1][2].startswith("error: the following arguments are "
                                  "required: --J")
