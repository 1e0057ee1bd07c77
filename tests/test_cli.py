"""Tests for the CSV front end: schemas, exit codes, determinism."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import mazersim
import mazersim.cli
from mazersim.cli import main
from mazersim.grid import J_MAX
from mazersim.mazer import SWEEP_ROWS_MAX
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
        ["sweep", "--profile", "mesa", "--k", "0.5", "--range", "0:1:0.5", "--J", "2",
         "--workers", "-1"],
    ])
    def test_exit_1(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv, bound", [
        (["sweep", "--profile", "sech2", "--k", "0.1", "--range", "0:1:0.5",
          "--J", str(J_MAX + 1)], "J_MAX"),
        (["compare-oracle", "--profile", "sech2", "--k", "0.1",
          "--range", "0:1:0.5", "--J", str(J_MAX + 1)], "J_MAX"),
        (["wavefunction", "--profile", "sech2", "--k", "0.1", "--kappaL", "5",
          "--J", str(J_MAX + 1)], "J_MAX"),
        (["converge", "--profile", "sech2", "--k", "0.1", "--kappaL", "5",
          "--J", f"100,{J_MAX + 1}"], "J_MAX"),
        (["wavefunction", "--profile", "sech2", "--k", "0.1", "--kappaL", "5",
          "--J", "100", "--samples", str(SWEEP_ROWS_MAX + 1)], "SWEEP_ROWS_MAX"),
        # each J within J_MAX, their sum above J_LIST_SUM_MAX
        (["converge", "--profile", "sech2", "--k", "0.1", "--kappaL", "5",
          "--J", ",".join(map(str, range(J_MAX - 8, J_MAX + 1)))],
         "J_LIST_SUM_MAX"),
    ])
    def test_size_above_its_bound_refused_before_allocation(self, capsys,
                                                            argv, bound):
        # a grid of J_MAX + 1 nodes samples 14 MB of mode, SWEEP_ROWS_MAX
        # + 1 samples are 8 MB of positions and a J list above
        # J_LIST_SUM_MAX would peak above 1 GB; none is allocated
        tracemalloc.start()
        try:
            code, out, err = run(capsys, argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert bound in err
        assert peak < 1_000_000

    def test_unwritable_output_path(self, capsys):
        code, _, err = run(capsys, [
            "sweep", "--profile", "mesa", "--k", "0.5",
            "--range", "0:1:0.5", "--J", "2",
            "--output", "/no/such/dir/out.csv"])
        assert code == 1
        assert "cannot write" in err


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


# The exact bytes four commands print, one of each: the echo, its hash, the
# column line, every value and every trailing '#' line.  A change to the
# CSV layout or to a printed value fails here.
GOLDEN = {
    "sweep --profile mesa --k 0.5 --range 0:1:0.5 --J 2": """\
# mazersim sweep
# profile=mesa k_over_kappa=0.5 range=0:1:0.5 J=2 window_factor=16.0
# config_sha256=a128b55b4fa4
kappaL,P_em,Ta2,Tb2,Ra2,Rb2,unit_defect_plus,unit_defect_minus
0.0,0.0,1.0,0.0,0.0,0.0,0.0,0.0
0.5,0.3185787313245416,0.641733279506678,0.16136167107188415,0.03968798916878013,0.1572170602526575,4.440892098500626e-16,1.1102230246251565e-16
1.0,0.5008464823362198,0.2523530309839087,0.2708924912683209,0.2468004866798713,0.2299539910678989,0.0,2.220446049250313e-16
""",
    "compare-oracle --profile mesa --k 0.01 --range 0:0.1:0.05 --J 2": """\
# mazersim compare-oracle
# profile=mesa k_over_kappa=0.01 range=0:0.1:0.05 J=2 window_factor=16.0
# config_sha256=a7fa0313f382
kappaL,P_em,Ta2,Tb2,Ra2,Rb2,unit_defect_plus,unit_defect_minus,P_em_oracle,abs_dev
0.0,0.0,1.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0
0.05,0.2378121243566377,0.019024984448466377,0.11890609809785913,0.7431628911948958,0.11890602625877858,2.220446049250313e-16,0.0,0.23781212435663793,2.220446049250313e-16
0.1,0.07396447486700634,0.00147938384338535,0.036982397690010625,0.9245561412896082,0.03698207717699572,3.3306690738754696e-16,0.0,0.0739644748670063,4.163336342344337e-17
# max_abs_dev=2.220446049250313e-16
""",
    "converge --profile mesa --k 0.5 --kappaL 1 --J 2,3": """\
# mazersim converge
# profile=mesa k_over_kappa=0.5 kappaL=1.0 J=2,3 window_factor=16.0
# config_sha256=eac897dc15b9
J,P_em
2,0.5008464823362198
3,0.5008464823362198
# settle=0.0
""",
    "wavefunction --profile mesa --k 0.5 --kappaL 2 --J 2 --samples 5 --branch -1": """\
# mazersim wavefunction
# profile=mesa k_over_kappa=0.5 kappaL=2.0 J=2 branch=-1 window_factor=16.0 samples=5
# config_sha256=beaa64e49bb6
x,re_psi,im_psi,abs2_psi
0.0,0.5032241237052026,-0.2905127299472454,0.33763216494027026
0.5,0.3577176360228555,0.1087169935577733,0.13978129181002105
1.0,0.10330534519116544,0.47484823293148476,0.23615283866321946
1.5,-0.182557873564428,0.696413694793054,0.5183194114956787
2.0,-0.41284202704715384,0.7059585987674717,0.6688160824701349
""",
}

# Failed data exits 2 and keeps its header: the echo, its hash, the column
# line, then the error line (the sweep's follows its refused row).
GOLDEN_FAILURES = {
    "sweep --profile sech2 --k 0.1 --range 0:2e-100:5e-101 --J 50": [
        "# mazersim sweep",
        "# profile=sech2 k_over_kappa=0.1 range=0:2e-100:5e-101 J=50 "
        "window_factor=16.0",
        "# config_sha256=53e82c3f2566",
        SWEEP_HEADER,
        "# error kappaL=5e-101: ValueError: length 5e-101 is below "
        "LENGTH_MIN = 1e-100; use 0 for no mode",
    ],
    "converge --profile sin2 --k 0.1 --kappaL 5 --J 2,3": [
        "# mazersim converge",
        "# profile=sin2 k_over_kappa=0.1 kappaL=5.0 J=2,3 window_factor=16.0",
        "# config_sha256=dc7b6003233c",
        "J,P_em",
        "# error: GridResolutionError: every one of the J = 2 nodes sits on "
        "a zero of the mode; increase J",
    ],
    "wavefunction --profile sin2 --k 0.1 --kappaL 5 --J 2": [
        "# mazersim wavefunction",
        "# profile=sin2 k_over_kappa=0.1 kappaL=5.0 J=2 branch=+1 "
        "window_factor=16.0 samples=400",
        "# config_sha256=ca5a9bb1e78f",
        "x,re_psi,im_psi,abs2_psi",
        "# error: GridResolutionError: every one of the J = 2 nodes sits on "
        "a zero of the mode; increase J",
    ],
}


class TestGolden:
    @pytest.mark.parametrize("command", GOLDEN)
    def test_exact_bytes_on_stdout_and_in_output_file(
            self, capsys, tmp_path, command):
        assert run(capsys, command.split()) == (0, GOLDEN[command], "")
        target = tmp_path / "out.csv"
        assert run(capsys, command.split() + ["--output", str(target)]) == (
            0, "", "")
        assert target.read_bytes() == GOLDEN[command].encode()

    @pytest.mark.parametrize("command", GOLDEN_FAILURES)
    def test_failure_header_and_error_line(self, capsys, command):
        code, out, err = run(capsys, command.split())
        assert (code, err) == (2, "")
        lines = out.splitlines()
        assert lines[:4] + [ln for ln in lines if ln.startswith("# error")] == (
            GOLDEN_FAILURES[command])

    def test_config_error_on_stderr_alone(self, capsys):
        assert run(capsys, ["converge", "--profile", "mesa", "--k", "0.5",
                            "--kappaL", "1", "--J", "100,50"]) == (
            1, "", "error: J list must be strictly ascending\n")
