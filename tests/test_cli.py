import argparse
import contextlib
import functools
import hashlib
import io
import os
import re
import shlex
import stat
import subprocess
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

import tvar2
import tvar2.cli as cli
from tvar2 import _rowkernel, build_vs
from tvar2._oracles import stacked_var_radius

with open(os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")) as _fh:
    README = _fh.read()

CONSTANT = """
schema_version: 1
schedule:
  kind: constant
  phi0: 0.0
  phi1: 1.2
  phi2: -0.32
  sigma2: 1.0
params:
  t: 10
  k: 4
"""

PERIODIC = """
schema_version: 1
schedule:
  kind: periodic
  seasons:
    - {phi0: 0.2, phi1: 0.6, phi2: -0.1, sigma2: 1.0}
    - {phi0: 0.0, phi1: -0.4, phi2: 0.2, sigma2: 1.5}
    - {phi0: 0.1, phi1: 0.8, phi2: -0.3, sigma2: 0.8}
    - {phi0: 0.3, phi1: 0.1, phi2: 0.25, sigma2: 1.2}
"""

CYCLICAL = """
schema_version: 1
schedule:
  kind: cyclical
  period: 6
  boundaries: [2, 4]
  cycles:
    - {phi0: 0.0, phi1: 0.5, phi2: -0.2, sigma2: 1.0}
    - {phi0: 0.0, phi1: -0.3, phi2: 0.4, sigma2: 1.0}
    - {phi0: 0.0, phi1: 0.8, phi2: -0.1, sigma2: 1.0}
"""

BREAKS = """
schema_version: 1
schedule:
  kind: abrupt-breaks
  anchor: 50
  horizon: 10
  offsets: [3, 7]
  regimes:
    - {phi0: 0.0, phi1: 0.5, phi2: -0.2, sigma2: 1.0}
    - {phi0: 0.0, phi1: -0.4, phi2: 0.3, sigma2: 1.0}
    - {phi0: 0.0, phi1: 0.9, phi2: -0.5, sigma2: 1.0}
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _run(tmp_path, argv, out_name="out.csv"):
    out = tmp_path / out_name
    code = cli.main(argv + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def test_green_known_values(tmp_path):
    cfg = _write(tmp_path, "c.yaml", CONSTANT)
    code, text = _run(tmp_path, ["green", "--config", cfg])
    assert code == 0
    assert text.splitlines() == ["t,i,xi", "10,0,1", "10,1,1.2", "10,2,1.12",
                                 "10,3,0.96", "10,4,0.7936"]


def test_forecast_output(tmp_path):
    cfg = _write(tmp_path, "c.yaml", CONSTANT)
    code, text = _run(tmp_path, ["forecast", "--config", cfg, "--k", "3",
                                 "--y0", "1", "--y1", "2"])
    assert code == 0
    assert text.splitlines()[1] == "10,3,0.2432,3.6944"


def test_acf_output(tmp_path):
    cfg = _write(tmp_path, "c.yaml", CONSTANT)
    code, text = _run(tmp_path, ["acf", "--config", cfg, "--max-lag", "2"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "t,k,gamma,converged"
    assert len(lines) == 4
    assert all(line.endswith("true") for line in lines[1:])


@pytest.mark.parametrize("config", [CONSTANT, PERIODIC, CYCLICAL])
def test_stationary_acf_rows_are_exact_whatever_tol_and_nmax(tmp_path, config):
    # the series of these lags is cut at 5 terms, or runs to a tolerance of
    # 1e-3; an exact row ignores both and is always converged
    cfg = _write(tmp_path, "s.yaml", config)
    argv = ["acf", "--config", cfg, "--t", "5001", "--max-lag", "6"]
    code, text = _run(tmp_path, argv)
    assert code == 0
    covs = [tvar2.autocovariance(_schedule(config), 5001, k) for k in range(7)]
    assert text == _reference_csv("t,k,gamma,converged", [
        (5001, c.lag, c.value, c.converged) for c in covs])
    assert all((c.depth, c.tail_bound, c.converged) == (0, 0.0, True)
               for c in covs)
    for flags in (["--nmax", "5"], ["--tol", "1e-3"]):
        assert _run(tmp_path, argv + flags) == (0, text)


def test_non_utf8_config_exits_2(tmp_path, capsys):
    # a config is UTF-8 text, whatever the locale: byte 0xe9 (latin-1 e
    # acute) in a comment is no UTF-8
    path = tmp_path / "latin1.yaml"
    path.write_bytes(CONSTANT.encode() + b"# r\xe9sum\xe9\n")
    out = tmp_path / "out.csv"
    code = cli.main(["green", "--config", str(path), "--t", "1", "--k", "2",
                     "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert err == ("config error: 'utf-8' codec can't decode byte 0xe9 in "
                   f"position {len(CONSTANT) + 3}: invalid continuation "
                   "byte\n")


def test_negative_sigma2_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.yaml",
                 CONSTANT.replace("sigma2: 1.0", "sigma2: -1.0"))
    code = cli.main(["green", "--config", cfg])
    assert code == 2
    assert "sigma2" in capsys.readouterr().err


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.yaml", CONSTANT.replace("phi0:", "psi0:"))
    code = cli.main(["green", "--config", cfg])
    assert code == 2
    assert "psi0" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path):
    code = cli.main(["green", "--config", str(tmp_path / "absent.yaml")])
    assert code == 2


# a name over the file system's 255-byte limit fails the path's own stat,
# before the staged file is created
@pytest.mark.parametrize("out", ["missing_dir/o.csv", ".", "o" * 300],
                         ids=["missing-directory", "a-directory",
                              "name-too-long"])
def test_out_that_cannot_be_opened_exits_2(tmp_path, capsys, out):
    cfg = _write(tmp_path, "c.yaml", PERIODIC)
    code = cli.main(["green", "--config", cfg, "--t", "50", "--k", "3",
                     "--out", str(tmp_path / out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: cannot open --out: ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "missing_dir").exists()


@pytest.mark.parametrize("out", ["missing_dir/o.csv", "kept.csv/o.csv",
                                 "sub", "sub/", ""],
                         ids=["missing-directory", "directory-is-a-file",
                              "a-directory", "a-directory-with-slash",
                              "empty"])
def test_out_directory_is_checked_before_computing(tmp_path, monkeypatch,
                                                   capsys, out):
    # the k = 999 999 table would take a third of a second to compute
    monkeypatch.setattr(cli, "green_functions", _not_called)
    kept = tmp_path / "kept.csv"
    kept.write_bytes(b"t,i,xi\n1,0,1\n")
    (tmp_path / "sub").mkdir()
    cfg = _write(tmp_path, "c.yaml", PERIODIC)
    code = cli.main(["green", "--config", cfg, "--t", "40", "--k", "999999",
                     "--out", os.path.join(tmp_path, out) if out else ""])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "config error: cannot open --out: ")
    assert kept.read_bytes() == b"t,i,xi\n1,0,1\n"
    assert sorted(os.listdir(tmp_path)) == ["c.yaml", "kept.csv", "sub"]
    assert os.listdir(tmp_path / "sub") == []


def test_rejected_run_leaves_an_existing_out_file_alone(tmp_path):
    # the flags are checked before the staged file is created, so a run
    # rejected by them neither truncates nor removes the file
    kept = tmp_path / "kept.csv"
    kept.write_bytes(b"t,i,xi\n1,0,1\n")
    cfg = _write(tmp_path, "c.yaml", PERIODIC)
    code = cli.main(["green", "--config", cfg, "--t", "40", "--k", "1000000",
                     "--out", str(kept)])
    assert code == 2
    assert kept.read_bytes() == b"t,i,xi\n1,0,1\n"


@pytest.mark.parametrize("through_link", [False, True],
                         ids=["file", "symlink"])
def test_run_failing_after_its_header_leaves_the_out_file_alone(
        tmp_path, capsys, through_link):
    # acf writes its header, then reads past the break window and raises
    (tmp_path / "data").mkdir()
    kept = tmp_path / "data" / "kept.csv"
    kept.write_bytes(b"t,i,xi\n1,0,1\n")
    out = kept
    if through_link:
        out = tmp_path / "link.csv"
        out.symlink_to("data/kept.csv")
    cfg = _write(tmp_path, "b.yaml", BREAKS)
    code = cli.main(["acf", "--config", cfg, "--t", "50", "--max-lag", "2",
                     "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: t=")
    assert kept.read_bytes() == b"t,i,xi\n1,0,1\n"
    assert os.listdir(tmp_path / "data") == ["kept.csv"]
    assert sorted(os.listdir(tmp_path)) == (
        ["b.yaml", "data", "link.csv"] if through_link else ["b.yaml", "data"])
    if through_link:
        assert os.readlink(out) == "data/kept.csv"


@pytest.mark.parametrize("kind", ["fifo", "device"])
def test_out_that_is_not_a_regular_file_exits_2_before_computing(
        tmp_path, monkeypatch, capsys, kind):
    # without the check, open() would block on the FIFO until a reader came
    monkeypatch.setattr(cli, "green_functions", _not_called)
    out = str(tmp_path / "fifo") if kind == "fifo" else os.devnull
    if kind == "fifo":
        os.mkfifo(out)
    cfg = _write(tmp_path, "c.yaml", PERIODIC)
    code = cli.main(["green", "--config", cfg, "--t", "40", "--k", "3",
                     "--out", out])
    assert code == 2
    assert capsys.readouterr().err == (
        f"config error: cannot open --out: {out!r} is not a regular file\n")
    mode = os.lstat(out).st_mode
    assert stat.S_ISFIFO(mode) if kind == "fifo" else stat.S_ISCHR(mode)
    assert sorted(os.listdir(tmp_path)) == (
        ["c.yaml", "fifo"] if kind == "fifo" else ["c.yaml"])


@pytest.mark.parametrize("exists", [True, False],
                         ids=["target-exists", "dangling-link"])
def test_out_through_a_symlink_writes_its_target(tmp_path, exists):
    cfg = _write(tmp_path, "p.yaml", PERIODIC)
    argv = ["green", "--config", cfg, "--t", "10", "--k", "4"]
    _, expected = _run(tmp_path, argv, "plain.csv")
    (tmp_path / "data").mkdir()
    target = tmp_path / "data" / "t.csv"
    if exists:
        target.write_text("t,i,xi\n1,0,1\n")
    link = tmp_path / "link.csv"
    link.symlink_to("data/t.csv")   # relative to the link, not the cwd
    assert cli.main(argv + ["--out", str(link)]) == 0
    assert os.readlink(link) == "data/t.csv"
    assert target.read_text() == expected
    assert os.listdir(tmp_path / "data") == ["t.csv"]


def test_threads_writing_one_out_leave_one_whole_csv(tmp_path):
    cfg = _write(tmp_path, "c.yaml", CONSTANT)
    # tables of different lengths, so that interleaved writes show
    argvs = [["green", "--config", cfg, "--t", str(t), "--k", str(k)]
             for t, k in ((10, 60000), (11, 40000), (12, 20000), (13, 400))]
    expected = [_run(tmp_path, argv, f"single{j}.csv")[1]
                for j, argv in enumerate(argvs)]
    out = tmp_path / "shared.csv"
    start = threading.Barrier(4)
    codes = []

    def caller(argv):
        start.wait()
        codes.append(cli.main(argv + ["--out", str(out)]))

    threads = [threading.Thread(target=caller, args=(argv,))
               for argv in argvs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert codes == [0] * 4
    assert out.read_text() in expected
    assert sorted(os.listdir(tmp_path)) == ["c.yaml", "shared.csv"] + [
        f"single{j}.csv" for j in range(4)]


def _run_module(tmp_path, argv):
    """``python -m tvar2.cli`` in a process of its own, run in tmp_path."""
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(tvar2.__file__))}
    return subprocess.run([sys.executable, "-m", "tvar2.cli", *argv],
                          cwd=tmp_path, env=env, capture_output=True,
                          timeout=60)


def test_module_entry_point_matches_main(tmp_path):
    cfg = _write(tmp_path, "p.yaml", PERIODIC)
    argv = ["green", "--config", cfg, "--t", "10", "--k", "4"]
    done = _run_module(tmp_path, argv)
    out = tmp_path / "out.csv"
    code = cli.main(argv + ["--out", str(out)])
    assert (done.returncode, done.stderr) == (code, b"")
    assert done.stdout == out.read_bytes()

    failed = _run_module(tmp_path, argv + ["--out", "missing_dir/o.csv"])
    assert failed.returncode == 2
    assert failed.stdout == b""
    assert failed.stderr.startswith(b"config error: cannot open --out: ")
    assert failed.stderr.count(b"\n") == 1
    assert not (tmp_path / "missing_dir").exists()


@pytest.mark.parametrize("argv", [["green", "--t", "10", "--k", "100000"],
                                  ["acf", "--t", "10", "--max-lag", "4000"]],
                         ids=["kernel-table", "percent-rows"])
def test_reader_closing_after_one_line_gets_exit_1_and_no_message(tmp_path,
                                                                   argv):
    # both tables are longer than a pipe holds, so the writer meets the
    # closed pipe whatever the buffering of its standard output
    cfg = _write(tmp_path, "p.yaml", PERIODIC)
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(tvar2.__file__))}
    with subprocess.Popen([sys.executable, "-m", "tvar2.cli", argv[0],
                           "--config", cfg, *argv[1:]], cwd=tmp_path, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith(b"t,")
        proc.stdout.close()
        assert (proc.stderr.read(), proc.wait(timeout=60)) == (b"", 1)


def test_broken_pipe_points_standard_output_at_devnull(tmp_path, capsys,
                                                       monkeypatch):
    cfg = _write(tmp_path, "p.yaml", PERIODIC)

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return fd

    with open(tmp_path / "stdout", "w") as fh:
        fd = fh.fileno()
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert cli.main(["green", "--config", cfg, "--t", "10", "--k", "4"]) == 1
        devnull = os.stat(os.devnull)
        assert (os.fstat(fd).st_ino, os.fstat(fd).st_dev) == (devnull.st_ino,
                                                              devnull.st_dev)
    assert capsys.readouterr().err == ""


def test_domain_error_exits_1(tmp_path, capsys):
    cfg = _write(tmp_path, "c.yaml", BREAKS)
    # anchor outside the break window
    code = cli.main(["green", "--config", cfg, "--t", "500", "--k", "4"])
    assert code == 1
    assert "window" in capsys.readouterr().err


def test_stationarity_verdict(tmp_path):
    cfg = _write(tmp_path, "p.yaml", PERIODIC)
    code, text = _run(tmp_path, ["stationarity", "--config", cfg])
    assert code == 0
    lines = dict(line.split(",", 1) for line in text.splitlines())
    assert float(lines["spectral_radius"]) < 1.0
    assert lines["stationary"] == "true"


def _lag_polynomial_radius(phi1, phi2):
    return max(abs(np.roots([1.0, -phi1, -phi2])))


def test_stationarity_answers_each_kind_with_a_season_table(tmp_path, capsys):
    # the verdict is the period matrix's, for constant, cyclical and
    # one-season periodic schedules too; only --matrices needs a periodic
    # schedule of two or more seasons
    one_season = PERIODIC[:PERIODIC.index("    - {phi0: 0.0")]
    cycles = tvar2.config.load(CYCLICAL)[0]
    as_periodic = tvar2.PeriodicSchedule([
        (c.phi0, c.phi1, c.phi2, c.sigma2) for c in map(cycles.at, range(1, 7))])
    for name, text, want, message in (
            ("c.yaml", CONSTANT, _lag_polynomial_radius(1.2, -0.32),
             "the stacked form needs a periodic schedule (got kind "
             "'constant')"),
            ("cy.yaml", CYCLICAL, stacked_var_radius(build_vs(as_periodic)),
             "the stacked form needs a periodic schedule (got kind "
             "'cyclical')"),
            ("p1.yaml", one_season, _lag_polynomial_radius(0.6, -0.1),
             "vector-of-seasons form needs at least 2 seasons")):
        cfg = _write(tmp_path, name, text)
        code, text_out = _run(tmp_path, ["stationarity", "--config", cfg])
        assert code == 0
        rows = dict(line.split(",") for line in text_out.splitlines())
        assert list(rows) == ["spectral_radius", "margin", "stationary"]
        radius = float(rows["spectral_radius"])
        assert abs(radius - want) <= 1e-12 * want
        assert rows["stationary"] == "true"
        code, text_out = _run(tmp_path, ["stationarity", "--config", cfg,
                                         "--matrices"], "matrices.csv")
        assert (code, text_out) == (1, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    cfg = _write(tmp_path, "b.yaml", BREAKS)
    for flags in ([], ["--matrices"]):
        code, text_out = _run(tmp_path, ["stationarity", "--config", cfg]
                              + flags, "breaks.csv")
        assert (code, text_out) == (1, "")
        assert capsys.readouterr().err == (
            "error: the period matrix needs a schedule tiled by season (got "
            "kind 'abrupt-breaks')\n")


def test_decompose_verify_each_kind(tmp_path):
    for name, text, extra in (("p.yaml", PERIODIC, ["--n", "3", "--t", "12"]),
                              ("cy.yaml", CYCLICAL, ["--t", "6"]),
                              ("b.yaml", BREAKS, [])):
        cfg = _write(tmp_path, name, text)
        code, out = _run(tmp_path, ["decompose-verify", "--config", cfg]
                         + extra)
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [r[0] for r in rows] == ["recurrence", "decomposition",
                                        "block-determinant"]
        assert all(float(r[2]) < 1e-11 for r in rows)


def test_decompose_verify_deepest_periodic_layout_is_accurate(tmp_path):
    # 16 periods of 4 seasons: 15 boundaries, the deepest layout under the
    # oracle cap; the decomposition stays within 1e-13 of the recurrence
    cfg = _write(tmp_path, "p.yaml", PERIODIC)
    code, out = _run(tmp_path, ["decompose-verify", "--config", cfg,
                                "--n", "16"])
    assert code == 0
    recurrence, decomposition = [line.split(",")
                                 for line in out.splitlines()[1:3]]
    assert (recurrence[0], decomposition[0]) == ("recurrence", "decomposition")
    reference, value = float(recurrence[1]), float(decomposition[1])
    assert reference != 0.0
    assert abs(value - reference) <= 1e-13 * abs(reference)
    assert float(decomposition[2]) <= 1e-13


@pytest.mark.parametrize("config, extra", [
    (BREAKS, ["--t", "50"]),
    (BREAKS + "params:\n  t: 49\n", ["--t", "50"]),
], ids=["flag", "flag-over-yaml"])
def test_decompose_verify_breaks_accepts_its_anchor(tmp_path, config, extra):
    _, unset = _run(tmp_path, ["decompose-verify", "--config",
                               _write(tmp_path, "b.yaml", BREAKS)], "unset.csv")
    cfg = _write(tmp_path, "t.yaml", config)
    code, out = _run(tmp_path, ["decompose-verify", "--config", cfg] + extra)
    assert code == 0
    assert out == unset


@pytest.mark.parametrize("config, extra", [
    (PERIODIC, ["--n", "2", "--t", "9"]),
    (CYCLICAL, ["--t", "5"]),
    (CYCLICAL + "params:\n  t: 13\n", []),
], ids=["periodic-flag", "cyclical-flag", "cyclical-yaml"])
def test_decompose_verify_t_off_a_period_end_exits_2(tmp_path, capsys, config,
                                                      extra):
    cfg = _write(tmp_path, "c.yaml", config)
    code = cli.main(["decompose-verify", "--config", cfg] + extra)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: key 't' must end a period")
    assert "not at the last season of a period" in err


@pytest.mark.parametrize("config, extra", [
    (CYCLICAL, ["--n", "5"]),
    (BREAKS, ["--n", "5"]),
    (CYCLICAL + "params:\n  n: 5\n", []),
    (BREAKS + "params:\n  n: 5\n", []),
], ids=["cyclical-flag", "breaks-flag", "cyclical-yaml", "breaks-yaml"])
def test_decompose_verify_n_off_a_periodic_schedule_exits_2(tmp_path, capsys,
                                                            config, extra):
    # n counts periods of a periodic layout; a cyclical or abrupt-breaks
    # layout has no n to read, so a given one is refused, not ignored
    cfg = _write(tmp_path, "c.yaml", config)
    code, text = _run(tmp_path, ["decompose-verify", "--config", cfg] + extra)
    assert (code, text) == (2, "")
    kind = tvar2.config.load(config)[0].kind
    assert capsys.readouterr().err == (
        f"config error: key 'n' must be left unset on a {kind} schedule "
        "(got 5)\n")


def test_verify_passes(tmp_path):
    for text in (CONSTANT, PERIODIC, CYCLICAL):
        cfg = _write(tmp_path, "v.yaml", text)
        args = ["verify", "--config", cfg]
        if text is not CONSTANT:
            args += ["--t", "24"]
        code, out = _run(tmp_path, args)
        assert code == 0
        assert all(line.endswith(",pass") for line in out.splitlines())


@pytest.mark.parametrize("anchor, horizon", [(50, 10), (150, 100)],
                         ids=["readme", "horizon-100"])
def test_verify_on_abrupt_breaks_needs_the_window_around_t(
        tmp_path, capsys, anchor, horizon):
    # no check reads past anchor - horizon, and each reads time t, so verify
    # passes for every t in [anchor - horizon, anchor] and exits 1 elsewhere
    cfg = _write(tmp_path, "b.yaml", _edit(
        BREAKS, "anchor: 50\n  horizon: 10",
        f"anchor: {anchor}\n  horizon: {horizon}"))
    earliest = anchor - horizon
    window = f"outside break-schedule window [{earliest}, {anchor}]"
    for t in [None, earliest - 1, earliest, earliest + 1, anchor - 5, anchor,
              anchor + 1, 98, 99, 100, 101]:
        argv = ["verify", "--config", cfg] + (["--t", str(t)] if t else [])
        code, out = _run(tmp_path, argv, f"v{t}.csv")
        err = capsys.readouterr().err
        at = 40 if t is None else t     # verify's default t
        if earliest <= at <= anchor:
            assert (code, err) == (0, ""), t
            assert out.splitlines() == [
                "green-recurrence-vs-determinant,pass",
                "solution-closed-form-vs-recursion,pass",
                "config-round-trip,pass"], t
        else:
            assert (code, out) == (1, ""), t
            assert err == f"error: t={at} {window}\n", t


def test_simulate_deterministic_and_thread_invariant(tmp_path):
    cfg = _write(tmp_path, "c.yaml", CONSTANT)
    base = ["simulate", "--config", cfg, "--t", "40", "--length", "3",
            "--paths", "50", "--burn-in", "50", "--seed", "9"]
    _, first = _run(tmp_path, base + ["--workers", "1"], "a.csv")
    _, second = _run(tmp_path, base + ["--workers", "1"], "b.csv")
    _, threaded = _run(tmp_path, base + ["--workers", "8"], "c.csv")
    assert first == second == threaded
    assert first.splitlines()[0] == "path,t,y"
    assert len(first.splitlines()) == 1 + 50 * 3


@pytest.mark.parametrize("flag, value, message", [
    ("--paths", "-5", "n_paths"), ("--length", "0", "length"),
    ("--burn-in", "-1", "burn_in"), ("--workers", "0", "workers")])
def test_simulate_bad_flag_exits_2(tmp_path, capsys, flag, value, message):
    cfg = _write(tmp_path, "c.yaml", CONSTANT)
    code = cli.main(["simulate", "--config", cfg, "--t", "40", "--paths", "10",
                     "--burn-in", "5", flag, value])
    assert code == 2
    assert message in capsys.readouterr().err


def test_simulate_aggregate(tmp_path):
    cfg = _write(tmp_path, "c.yaml", CONSTANT)
    code, text = _run(tmp_path, ["simulate", "--config", cfg, "--t", "40",
                                 "--length", "2", "--paths", "400",
                                 "--burn-in", "50", "--seed", "3",
                                 "--aggregate"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "t,stat,value,se"
    assert len(lines) == 1 + 2 * 2
    assert lines[1].startswith("39,mean,")


def test_all_subcommands_deterministic(tmp_path):
    cfg = _write(tmp_path, "p.yaml", PERIODIC)
    cases = [["green", "--t", "12", "--k", "6"],
             ["forecast", "--t", "12", "--k", "3"],
             ["acf", "--t", "12", "--max-lag", "3"],
             ["stationarity", "--matrices"],
             ["decompose-verify", "--n", "2", "--t", "8"],
             ["verify", "--t", "24"],
             ["simulate", "--t", "20", "--length", "2", "--paths", "30",
              "--burn-in", "20", "--seed", "5"]]
    for case in cases:
        argv = [case[0], "--config", cfg] + case[1:]
        _, first = _run(tmp_path, argv, "r1.csv")
        _, second = _run(tmp_path, argv, "r2.csv")
        assert first == second


@pytest.mark.parametrize("config, argv, exit_code", [
    (PERIODIC, ["acf", "--t", "5", "--tol", "0"], 2),
    (PERIODIC, ["acf", "--t", "5", "--nmax", "0"], 2),
    (PERIODIC, ["acf", "--t", "5", "--max-lag", "-1"], 2),
    (PERIODIC, ["green", "--t", "5", "--k", "-3"], 2),
    (PERIODIC, ["simulate", "--t", "5", "--paths", "-5"], 2),
    (PERIODIC, ["forecast", "--t", "5", "--k", "0"], 2),
    (PERIODIC, ["decompose-verify", "--n", "0"], 2),
    (BREAKS, ["decompose-verify", "--t", "49"], 2),
    (BREAKS + "params:\n  t: 49\n", ["decompose-verify"], 2),
    (PERIODIC, ["decompose-verify", "--n", "2", "--t", "9"], 2),
    (CYCLICAL, ["decompose-verify", "--n", "5"], 2),
    (BREAKS, ["decompose-verify", "--n", "5"], 2),
    (CYCLICAL + "params:\n  n: 1\n", ["decompose-verify"], 2),
    (BREAKS + "params:\n  n: 1\n", ["decompose-verify"], 2),
    (PERIODIC, ["acf", "--t", "5", "--tol", "inf"], 2),
    (PERIODIC, ["acf", "--t", "5", "--tol", "nan"], 2),
    (PERIODIC + "params:\n  tol: .inf\n", ["acf", "--t", "5"], 2),
    (PERIODIC, ["forecast", "--t", "40", "--k", "3", "--y0", "nan"], 2),
    (PERIODIC, ["forecast", "--t", "40", "--k", "3", "--y0", "inf"], 2),
    (PERIODIC, ["forecast", "--t", "40", "--k", "3", "--y1=-inf"], 2),
    (PERIODIC + "params:\n  y0: .nan\n", ["forecast", "--t", "40", "--k",
                                           "3"], 2),
    (PERIODIC + "params:\n  y1: .inf\n", ["forecast", "--t", "40", "--k",
                                           "3"], 2),
    # fails after the header is written: the series runs past the window
    (BREAKS, ["acf", "--t", "50", "--max-lag", "2"], 1),
], ids=["acf-tol-0", "acf-nmax-0", "acf-max-lag-negative", "green-k-negative",
        "simulate-paths-negative", "forecast-k-0", "decompose-verify-n-0",
        "decompose-verify-breaks-t-flag", "decompose-verify-breaks-t-yaml",
        "decompose-verify-t-off-period-end", "decompose-verify-cyclical-n-flag",
        "decompose-verify-breaks-n-flag", "decompose-verify-cyclical-n-yaml",
        "decompose-verify-breaks-n-yaml", "acf-tol-inf", "acf-tol-nan",
        "acf-tol-inf-yaml", "forecast-y0-nan", "forecast-y0-inf",
        "forecast-y1-minus-inf", "forecast-y0-nan-yaml",
        "forecast-y1-inf-yaml", "acf-past-break-window"])
def test_failed_command_leaves_no_out_file(tmp_path, config, argv, exit_code):
    cfg = _write(tmp_path, "c.yaml", config)
    out = tmp_path / "out.csv"
    code = cli.main([argv[0], "--config", cfg, "--out", str(out)] + argv[1:])
    assert code == exit_code
    assert not out.exists()


@pytest.mark.parametrize("argv, name", [
    (["acf", "--t", "40", "--tol", "inf"], "tol"),
    (["forecast", "--t", "40", "--k", "3", "--y0", "nan"], "y0"),
    (["forecast", "--t", "40", "--k", "3", "--y1", "inf"], "y1"),
], ids=["acf-tol-inf", "forecast-y0-nan", "forecast-y1-inf"])
def test_nonfinite_float_flag_exits_2_before_any_output(tmp_path, monkeypatch,
                                                        capsys, argv, name):
    monkeypatch.setattr(cli, "autocovariance", _not_called)
    monkeypatch.setattr(cli, "forecast", _not_called)
    cfg = _write(tmp_path, "c.yaml", PERIODIC)
    assert cli.main([argv[0], "--config", cfg] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: key '{name}' must be "
                                   f"finite")


@pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
def test_nonfinite_coefficient_in_config_exits_2(tmp_path, capsys, value):
    cfg = _write(tmp_path, "c.yaml", CONSTANT.replace("phi1: 1.2", f"phi1: {value}"))
    out = tmp_path / "out.csv"
    code = cli.main(["forecast", "--config", cfg, "--out", str(out)])
    assert code == 2
    assert "phi1 must be finite" in capsys.readouterr().err
    assert not out.exists()


def _not_called(*args, **kwargs):
    raise AssertionError("an over-cap request reached the library")


@pytest.mark.parametrize("argv", [
    ["green", "--t", "5", "--k", "{depth}"],          # k + 1 = depth cap + 1
    ["forecast", "--t", "5", "--k", "{depth_over}"],
    ["acf", "--t", "5", "--max-lag", "{depth}"],
    ["acf", "--t", "5", "--nmax", "{depth_over}"],
    # burn_in = path-step cap, over the burn-in cap of 10**6
    ["simulate", "--t", "5", "--paths", "1", "--burn-in", "{steps}",
     "--length", "1"],
    # n * period = 17 * 4 > oracle cap 64
    ["decompose-verify", "--n", "{n_over}"],
    # n itself over the oracle cap, rejected before the layout is built
    ["decompose-verify", "--n", "{oracle_over}"],
], ids=["green-k", "forecast-k", "acf-max-lag", "acf-nmax", "simulate-size",
        "decompose-verify-n", "decompose-verify-n-key"])
def test_over_cap_request_exits_2_before_computing(tmp_path, monkeypatch, argv):
    for name in ("green_functions", "forecast", "autocovariance",
                 "simulate_paths", "xi_par_decomposed"):
        monkeypatch.setattr(cli, name, _not_called)
    depth, steps, oracle = cli.MAX_DEPTH, cli.MAX_PATH_STEPS, cli.ORACLE_CAP
    assert (depth, steps, oracle) == (10**6, 10**8, 64)
    argv = [a.format(depth=depth, depth_over=depth + 1, steps=steps,
                     n_over=oracle // 4 + 1, oracle_over=oracle + 1)
            for a in argv]
    cfg = _write(tmp_path, "c.yaml", PERIODIC)
    out = tmp_path / "out.csv"
    code = cli.main([argv[0], "--config", cfg, "--out", str(out)] + argv[1:])
    assert code == 2
    assert not out.exists()


def test_path_step_cap_counts_whole_blocks(tmp_path, monkeypatch):
    # one uniform path draws a full block of SUB_BLOCK: 256 * 390 626 > 10**8
    monkeypatch.setattr(cli, "simulate_paths", _not_called)
    cfg = _write(tmp_path, "c.yaml", PERIODIC)
    out = tmp_path / "out.csv"
    code = cli.main(["simulate", "--config", cfg, "--out", str(out), "--t",
                     "5", "--paths", "1", "--burn-in", "390625",
                     "--length", "1", "--innovations", "uniform"])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--burn-in", "1000001", "--length", "1"], "burn_in"),
    (["--burn-in", "1000001", "--length", "1", "--innovations", "uniform"],
     "burn_in"),
    # a normal block draws 2 + length rows: 256 * (2 + 390 624) > 10**8
    (["--burn-in", "0", "--length", "390624"], "(2 + length)"),
], ids=["burn-in-normal", "burn-in-uniform", "normal-start-rows"])
def test_over_cap_simulate_exits_2_before_computing(tmp_path, monkeypatch,
                                                    capsys, argv, message):
    monkeypatch.setattr(cli, "simulate_paths", _not_called)
    assert tvar2.simulate.MAX_BURN_IN == cli.MAX_DEPTH
    cfg = _write(tmp_path, "c.yaml", PERIODIC)
    out = tmp_path / "out.csv"
    code = cli.main(["simulate", "--config", cfg, "--out", str(out), "--t",
                     "500000", "--paths", "1"] + argv)
    assert code == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--seed", "-1"],
    ["simulate", "--seed", str(-2**63)],
    ["simulate", "--seed", str(2**63)],
    ["simulate", "--seed", str(2**64)],
    ["verify", "--seed", "-3"],
    ["verify", "--seed", str(2**63)],
], ids=["simulate-minus-1", "simulate-minus-2-63", "simulate-2-63",
        "simulate-2-64", "verify-minus-3", "verify-2-63"])
def test_seed_outside_its_range_exits_2(tmp_path, capsys, argv):
    cfg = _write(tmp_path, "c.yaml", PERIODIC)
    out = tmp_path / "out.csv"
    code = cli.main([argv[0], "--config", cfg, "--out", str(out),
                     "--t", "40"] + argv[1:])
    assert code == 2
    assert not out.exists()
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_largest_seed_runs(tmp_path, command):
    cfg = _write(tmp_path, "c.yaml", PERIODIC)
    extra = ["--paths", "20", "--burn-in", "5"] if command == "simulate" else []
    code, text = _run(tmp_path, [command, "--config", cfg, "--t", "40",
                                 "--seed", str(2**63 - 1)] + extra)
    assert code == 0 and text


ANCHOR_COMMANDS = [["green", "--k", "3"], ["forecast", "--k", "3"],
                   ["acf", "--max-lag", "1"],
                   ["simulate", "--paths", "20", "--burn-in", "5"],
                   ["decompose-verify"], ["verify"]]


@pytest.mark.parametrize("t", [2**62 + 1, -2**62 - 1, 2**63, -2**63, 10**20])
@pytest.mark.parametrize("argv", ANCHOR_COMMANDS,
                         ids=[argv[0] for argv in ANCHOR_COMMANDS])
def test_anchor_outside_its_range_exits_2(tmp_path, capsys, argv, t):
    cfg = _write(tmp_path, "c.yaml", PERIODIC)
    out = tmp_path / "out.csv"
    code = cli.main([argv[0], "--config", cfg, "--out", str(out),
                     "--t", str(t)] + argv[1:])
    assert code == 2
    assert not out.exists()
    assert "key 't'" in capsys.readouterr().err


def test_anchor_outside_its_range_in_params_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "c.yaml", PERIODIC + f"params:\n  t: {10**20}\n")
    out = tmp_path / "out.csv"
    assert cli.main(["green", "--config", cfg, "--out", str(out),
                     "--k", "3"]) == 2
    assert not out.exists()
    assert "key 't'" in capsys.readouterr().err


@pytest.mark.parametrize("t", [2**62, -2**62])
def test_anchor_at_the_range_edge_runs(tmp_path, t):
    # t = +-2**62 is a multiple of the period 4, so its xi equal those at 12
    cfg = _write(tmp_path, "c.yaml", PERIODIC)
    code, edge = _run(tmp_path, ["green", "--config", cfg, "--t", str(t),
                                 "--k", "6"], "edge.csv")
    assert code == 0
    _, near = _run(tmp_path, ["green", "--config", cfg, "--t", "12",
                              "--k", "6"], "near.csv")
    assert edge.replace(str(t), "12") == near


RULED = [(command, name, interval)
         for command, (_, _, flags, _) in cli._COMMANDS.items()
         for name, interval in flags.items() if interval]


@pytest.mark.parametrize("route", ["flag", "params"])
@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("command, name, interval", RULED,
                         ids=[f"{c}-{n}" for c, n, _ in RULED])
def test_each_interval_is_held_on_both_routes(tmp_path, monkeypatch, capsys,
                                              command, name, interval, side,
                                              route):
    for library in ("green_functions", "forecast", "autocovariance",
                    "segment_layout", "simulate_paths", "general_solution"):
        monkeypatch.setattr(cli, library, _not_called)
    low, high = interval
    value = low - 1 if side == "below" else high + 1
    # the keys without a default, in range, unless they are the one ruled
    argv = [arg for other, given in (("t", "40"), ("k", "3"))
            if other != name and other in cli._COMMANDS[command][2]
            for arg in (f"--{other}", given)]
    text = PERIODIC
    if route == "flag":
        argv += [f"--{name.replace('_', '-')}", str(value)]
    else:
        text += f"params:\n  {name}: {value}\n"
    cfg = _write(tmp_path, "c.yaml", text)
    out = tmp_path / "out.csv"
    code = cli.main([command, "--config", cfg, "--out", str(out)] + argv)
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr() == ("", f"config error: key '{name}' must be "
                                       f"in [{low}, {high}] (got {value})\n")


MISTYPED = [
    (CYCLICAL, "period: 6", "period: x", "period"),
    (BREAKS, "anchor: 50", "anchor: 1.5", "anchor"),
    (BREAKS, "offsets: [3, 7]", "offsets: 3", "offsets"),
    (CYCLICAL, "boundaries: [2, 4]", "boundaries: [2, x]", "boundaries[1]"),
    (CONSTANT, "sigma2: 1.0", "sigma2: 1.0\n  sigma2_bounds: [a, 2]",
     "sigma2_bounds[0]"),
    (CONSTANT, "t: 10", "t: abc", "t"),
    (CONSTANT, "k: 4", "k: 3.7", "k"),
    (CONSTANT, "t: 10", "t: true", "t"),
    (CONSTANT, "k: 4", "horizon: 3", "horizon"),
]
MISTYPED_IDS = ["period-x", "anchor-float", "offsets-scalar", "boundaries-item",
                "sigma2-bounds-item", "t-string", "k-float", "t-bool",
                "horizon-param"]


def _edit(text, old, new):
    assert old in text
    return text.replace(old, new)


# every config the CLI rejects at load time, and what its message must hold
REJECTED = [
    (CONSTANT.replace("sigma2: 1.0", "sigma2: -1.0"), "sigma2 must be > 0"),
    (CONSTANT.replace("phi0:", "psi0:"), "unknown key 'psi0'"),
    (CONSTANT.replace("phi1: 1.2", "phi1: .nan"), "phi1 must be finite"),
    (CONSTANT.replace("phi1: 1.2", "phi1: [1.2"), "invalid YAML"),
    (CONSTANT.replace("  kind", "kind"), "invalid YAML"),
    ("[schema_version, 1]", "config must be a mapping"),
    ("schema_version: 1\nschedule: constant\n", "schedule must be a mapping"),
    (_edit(CONSTANT, "  t: 10\n  k: 4", "  - t"), "params must be a mapping"),
    (_edit(CYCLICAL, "- {phi0: 0.0, phi1: 0.5, phi2: -0.2, sigma2: 1.0}",
           "- 0.5"), "cycles[0] must be a mapping"),
    (_edit(CONSTANT, "sigma2: 1.0", "sigma2: 1.0\n  sigma2_bounds: [2, 1]"),
     "sigma2 bounds must satisfy 0 <= lower < upper"),
    ("schema_version: 1\nschedule: {kind: periodic, seasons: []}\n",
     "need at least one season"),
    (_edit(CYCLICAL, "period: 6", "period: 0"), "period must be >= 1"),
    (_edit(BREAKS, "horizon: 10", "horizon: 0"), "horizon must be >= 1"),
] + [(_edit(config, old, new), f"key {key!r}") for config, old, new, key in MISTYPED]


@pytest.mark.parametrize("config, message", REJECTED,
                         ids=["sigma2-negative", "unknown-key", "phi1-nan",
                              "unclosed-list", "bad-indent", "config-not-mapping",
                              "schedule-not-mapping", "params-not-mapping",
                              "cycle-not-mapping", "sigma2-bounds-order",
                              "no-seasons", "period-0", "horizon-0"]
                         + MISTYPED_IDS)
def test_mistyped_config_exits_2_without_out_file(tmp_path, capsys, yaml_pairs,
                                                  config, message):
    cfg = _write(tmp_path, "c.yaml", config)
    out = tmp_path / "out.csv"
    for pair in yaml_pairs():
        code = cli.main(["green", "--config", cfg, "--out", str(out),
                         "--t", "50", "--k", "3"])
        assert code == 2, pair
        assert not out.exists(), pair
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err, pair


# each declared kind with one entry outside its sigma2_bounds, and the entry
# its load names
OUT_OF_BOUNDS = {
    "constant": (_edit(CONSTANT, "sigma2: 1.0", "sigma2: 1.0\n  sigma2_bounds: "
                       "[0.5, 0.9]"),
                 "sigma2=1.0 outside declared bounds (0.5, 0.9)"),
    "periodic": (_edit(PERIODIC, "kind: periodic", "kind: periodic\n  "
                       "sigma2_bounds: [0.5, 1.4]"),
                 "sigma2=1.5 at season 2 outside declared bounds (0.5, 1.4)"),
    "cyclical": (_edit(_edit(CYCLICAL, "phi2: -0.1, sigma2: 1.0", "phi2: "
                             "-0.1, sigma2: 2.5"), "period: 6",
                       "period: 6\n  sigma2_bounds: [0.5, 2.0]"),
                 "sigma2=2.5 at cycle 3 outside declared bounds (0.5, 2.0)"),
    "breaks": (_edit(_edit(BREAKS, "phi2: 0.3, sigma2: 1.0", "phi2: 0.3, "
                           "sigma2: 0.1"), "anchor: 50",
                     "anchor: 50\n  sigma2_bounds: [0.5, 2.0]"),
               "sigma2=0.1 at regime 2 outside declared bounds (0.5, 2.0)"),
}
EVERY_COMMAND = [
    ["green", "--t", "50", "--k", "4"],
    ["green", "--t", "50", "--k", "0"],
    ["forecast", "--t", "50", "--k", "3"],
    ["acf", "--t", "50", "--max-lag", "2"],
    ["simulate", "--t", "50", "--length", "2", "--paths", "30", "--burn-in", "5"],
    ["stationarity"],
    ["decompose-verify"],
    ["verify", "--t", "45"],
]


@pytest.mark.parametrize("kind", sorted(OUT_OF_BOUNDS))
def test_entry_outside_sigma2_bounds_exits_2_at_load(tmp_path, capsys, kind):
    # the declared table is checked once, when the config is loaded: no
    # subcommand answers or writes, on standard output or to --out
    config, message = OUT_OF_BOUNDS[kind]
    cfg = _write(tmp_path, "c.yaml", config)
    out = tmp_path / "out.csv"
    for argv in EVERY_COMMAND:
        for to in (["--out", str(out)], []):
            assert cli.main([argv[0], "--config", cfg] + to + argv[1:]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists(), argv
            assert captured.err == f"config error: {message}\n", argv


@pytest.mark.parametrize("argv", [
    ["green", "--t", "5", "--k", "3", "--tol", "1e-3"],
    ["stationarity", "--seed", "3"],
    ["decompose-verify", "--horizon", "5"],
], ids=["green-tol", "stationarity-seed", "decompose-verify-horizon"])
def test_flag_the_subcommand_does_not_read_is_rejected(tmp_path, capsys, argv):
    cfg = _write(tmp_path, "p.yaml", PERIODIC)
    with pytest.raises(SystemExit) as exc:
        cli.main([argv[0], "--config", cfg] + argv[1:])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _subparsers() -> dict:
    return next(action for action in cli._build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices


def test_each_subcommand_accepts_only_the_flags_it_reads():
    reads = {"green": "--t --k",
             "forecast": "--t --k --y0 --y1",
             "acf": "--t --max-lag --tol --nmax",
             "simulate": "--t --seed --paths --length --burn-in --workers "
                         "--innovations --aggregate",
             "stationarity": "--matrices",
             "decompose-verify": "--t --n",
             "verify": "--t --seed"}
    assert set(_subparsers()) == set(reads)
    for name, subparser in _subparsers().items():
        flags = {option for action in subparser._actions
                 for option in action.option_strings}
        assert flags == {"-h", "--help", "--config", "--out",
                         *reads[name].split()}, name
    # the README's table of subcommands lists the same flags
    table = re.search(r"^\| subcommand .*?\n((?:\|.*\n)+)", README, re.M)
    listed = {}
    for row in table.group(1).splitlines()[1:]:
        cells = row.split("|")
        listed[cells[1].strip(" `")] = re.findall(r"`(--[a-z0-9-]+)`",
                                                  cells[-2])
    assert listed == {name: flags.split() for name, flags in reads.items()}


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_help_describes_every_flag(capsys, name):
    with pytest.raises(SystemExit) as exc:
        cli.main([name, "--help"])
    assert exc.value.code == 0
    printed = "".join(capsys.readouterr().out.split())
    helps = {option: action.help for action in _subparsers()[name]._actions
             for option in action.option_strings}
    for flag in cli._COMMANDS[name][2]:
        text = helps["--" + flag.replace("_", "-")]
        assert text and "".join(text.split()) in printed, flag


# sha256 of the CSV each README command writes on the README periodic
# config (simulate on a small ensemble, aggregated and raw), so that a
# change to how the CLI reads its flags and config cannot change its bytes
README_DIGESTS = [
    (["green", "--t", "10", "--k", "4"],
     "9f64bc39258e336b03327a91587833def7f1ded127d54b9791bc6edf26a2d8b8"),
    (["forecast", "--t", "10", "--k", "3", "--y0", "1", "--y1", "2"],
     "5a80d76c4e842ddd8c33ebc55d9c9053108b7b3744cfe9efe89ac2eb26d3c350"),
    (["acf", "--t", "10", "--max-lag", "4"],
     "8e93292d9ac4110a1633dc2e2dd58ff0b3bb6363b0cdce638b17551bdcb6579e"),
    (["simulate", "--t", "40", "--paths", "200", "--seed", "7", "--aggregate"],
     "a1bca5ab96c469181ead3ede5b8f36047494d0d1b6eeef325b84902ce4f56b25"),
    (["simulate", "--t", "40", "--length", "3", "--paths", "20", "--burn-in",
      "50", "--seed", "7"],
     "548c4a0f01fddb91c626a28767120c2baed47ad249be50a9e78303cb2242ded5"),
    (["stationarity", "--matrices"],
     "6d3395fd844f893db8fb30902c6081c62e1a0b7e6279a8f3f490fbd61e2929b6"),
    (["decompose-verify", "--n", "3", "--t", "12"],
     "c892d3041a2f7242615620ebb17487a8e38d06d9a07af02a0bf4c014cea3016d"),
    (["verify"],
     "0d978ac58a4ac1bb053470e3de2426460cf68c3f4ac2ab185f5dac830a0fef27"),
]


def test_readme_commands_are_the_pinned_ones():
    block = re.search(r"^```sh\n(tvar2 .*?)^```", README, re.M | re.S)
    shown = [shlex.split(line) for line in block.group(1).splitlines()]
    assert all(argv[0] == "tvar2" and argv[2:4] == ["--config", "model.yaml"]
               for argv in shown)
    assert [argv[1:2] + argv[4:] for argv in shown] == [
        argv for argv, _ in README_DIGESTS]


def test_readme_library_tour_prints_what_it_shows():
    lines = re.search(r"^```python\n(.*?)^```", README,
                      re.M | re.S).group(1).splitlines()
    scope, checked = {}, 0
    for line, shown in zip(lines, lines[1:] + [""]):
        if not line or line.startswith("#"):
            continue
        if not shown.startswith("# "):
            exec(line, scope)
            continue
        # each number shown equals the value rounded to the digits shown
        value = np.ravel(eval(line, scope))
        numbers = re.findall(r"-?\d+\.\d*", shown)
        assert len(numbers) == len(value), line
        for text, v in zip(numbers, value.tolist()):
            assert round(v, len(text.split(".")[1])) == float(text), line
        checked += 1
    assert checked == 2


@pytest.mark.parametrize("phi1s, rho, stationary", [
    ([1.2] * 3000, float(Fraction(1.2) ** 3000), "false"),
    ([1e200, 1e200, 1e-200], 1e200, "false"),
    ([1e-200, 1e-200, 1e200, 1e200], 0.9999999999999998, "indeterminate"),
    ([1e-170, 1.0], 1e-170, "true"),
], ids=["3000x1.2", "1e200-1e200-1e-200", "1e-200-1e-200-1e200-1e200",
        "1e-170-1"])
def test_stationarity_of_seasons_far_apart_in_scale(tmp_path, phi1s, rho,
                                                    stationary):
    # a^2 overflows, or the small seasons sit far below the large ones, or
    # a^2 underflows: the radius is printed, never a verdict from an
    # overflow or an underflow
    cfg = _write(tmp_path, "far.yaml", "schema_version: 1\nschedule:\n"
                 "  kind: periodic\n  seasons:\n" + "".join(
                     f"    - {{phi0: 0.0, phi1: {p!r}, phi2: 0.0, sigma2: 1.0}}\n"
                     for p in phi1s))
    code, text = _run(tmp_path, ["stationarity", "--config", cfg])
    rows = dict(line.split(",") for line in text.splitlines())
    assert code == 0 and rows["stationary"] == stationary
    assert float(rows["spectral_radius"]) == pytest.approx(rho, rel=1e-12,
                                                           abs=0.0)


@pytest.mark.parametrize("argv, digest", README_DIGESTS,
                         ids=[" ".join(argv) for argv, _ in README_DIGESTS])
def test_readme_command_bytes_pinned(tmp_path, argv, digest):
    cfg = _write(tmp_path, "p.yaml", PERIODIC)
    out = tmp_path / "out.csv"
    code = cli.main([argv[0], "--config", cfg, "--out", str(out)] + argv[1:])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_parser_is_built_once_per_process(tmp_path, capsys):
    # a well-formed command line builds no parser; the first one argparse
    # reads (help, an error, an = form) builds it, and the rest reuse it
    cli._build_parser.cache_clear()
    cfg = _write(tmp_path, "c.yaml", CONSTANT)
    for argv in (["green"], ["forecast", "--k", "2"], ["acf"], ["green"]):
        code, _ = _run(tmp_path, [argv[0], "--config", cfg] + argv[1:])
        assert code == 0
    assert cli._build_parser.cache_info().misses == 0
    for argv, code in ((["green", "--help"], 0), (["green", "--k", "x3"], 2)):
        with pytest.raises(SystemExit) as exc:
            cli.main([argv[0], "--config", cfg] + argv[1:])
        assert exc.value.code == code
    assert _run(tmp_path, ["green", "--config", cfg, "--k=2"])[0] == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


@pytest.mark.parametrize("flag, value", [
    ("--y1", "-3.7e-05"), ("--y0", "-1."), ("--y1", "-2E+3"), ("--y0", "-2"),
])
def test_negative_flag_value_in_any_float_form_runs(tmp_path, flag, value):
    # argparse takes -3.7e-05 and -1. for options ("expected one
    # argument"); the command line reader takes them as values, and they
    # write what their = forms write
    cfg = _write(tmp_path, "p.yaml", PERIODIC)
    argv = ["forecast", "--config", cfg, "--t", "10", "--k", "3"]
    code, spaced = _run(tmp_path, argv + [flag, value], "a.csv")
    assert code == 0
    assert _run(tmp_path, argv + [f"{flag}={value}"], "b.csv") == (0, spaced)


@pytest.mark.parametrize("value", [3, b"3"])
def test_value_that_is_not_a_string_raises_argparses_type_error(tmp_path,
                                                                 value):
    cfg = _write(tmp_path, "c.yaml", CONSTANT)
    with pytest.raises(TypeError):
        cli.main(["green", "--config", cfg, "--k", value])


class _Handed(Exception):
    """Raised in place of _resolve, with the namespace main hands on."""


def _outcome(argv, read, joined=None):
    """What cli.main does with argv while ``cli._read`` is ``read`` (and
    ``cli._joined`` is ``joined``, if given): the namespace it hands on,
    with nan made comparable, or its exit code and what it printed."""
    def hand_on(args, *_):
        raise _Handed({k: "nan" if v != v else v for k, v in vars(args).items()})

    saved = cli._read, cli._resolve, cli._joined
    cli._read, cli._resolve = read, hand_on
    cli._joined = joined or cli._joined
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except _Handed as handed:
        return "namespace", handed.args[0]
    except SystemExit as exc:
        code = f"SystemExit {exc.code}"
    finally:
        cli._read, cli._resolve, cli._joined = saved
    return code, out.getvalue(), err.getvalue()


def _negative_value(token) -> bool:
    """Whether ``token`` is a value that starts with '-' and float() reads."""
    try:
        float(token)
    except (TypeError, ValueError):
        return False
    return isinstance(token, str) and token.startswith("-")


def _random_argv(rng, cfg) -> list:
    """A command line from the pieces users type: each subcommand's flags
    with good, bad and negative values, other subcommands' flags,
    abbreviations, = forms, help, stray words and missing values."""
    if rng.random() < 0.03:
        return rng.choice([[], ["-h"], ["gren", "--config", cfg],
                           ["--config", cfg, "green"]])
    name = rng.choice(list(cli._COMMANDS))
    options = {o: kind for o, (_, kind) in cli._OPTIONS[name][0].items()}
    others = sorted({o for table, _ in cli._OPTIONS.values() for o in table}
                    - set(options))
    values = {int: ["0", "3", "12", "-2", "+4", "1_0", "x3", "1.5", ""],
              float: ["0.5", "1e-3", "-0.25", "-2", "nan", "inf", "x"],
              str: ["normal", "uniform", "-1", "u"]}
    odd = ["-3.7e-05", "-1.", "-inf", "-1e3", "-x", "-", "--", "-1 2", "a b"]
    pieces = [["--config", cfg]] if rng.random() < 0.9 else []
    mixed = rng.random() < 0.5   # else only whole pairs and switches
    for _ in range(rng.randrange(6)):
        option = rng.choice(list(options)[1:])
        kind = options[option]
        value = [] if kind is None else [rng.choice(
            values[kind] + odd if rng.random() < 0.3 else values[kind][:4])]
        pieces.append(rng.choice(
            [[option] + value] if not mixed else (
                4 * [[option] + value]
                + [[option[:rng.randrange(2, len(option))]] + value,
                   [option + "=" + value[0]] if value else [option],
                   [rng.choice(others), "1"], [rng.choice(["-h", "--help"])],
                   ["extra"], [option]])))
    rng.shuffle(pieces)
    return [name] + [token for piece in pieces for token in piece]


def test_reader_answers_as_argparse_does(tmp_path, monkeypatch):
    # on seeded command lines, each one the reader reads gives the
    # namespace argparse gives, and each other one what argparse makes of
    # it.  A value that starts with '-' and that float() reads, which
    # argparse alone takes for an option ("expected one argument"), is
    # handed to argparse as its = form, so it never causes that error
    import random
    monkeypatch.chdir(tmp_path)   # no file is written, --out or other
    cfg = _write(tmp_path, "c.yaml", CONSTANT)
    rng = random.Random(47)
    counts = {"read": 0, "passed on": 0, "joined": 0}
    for _ in range(3000):
        argv = _random_argv(rng, cfg)
        read = cli._read(argv)
        got = _outcome(argv, cli._read)
        want = _outcome(argv, lambda argv: None)
        alone = _outcome(argv, lambda argv: None, lambda argv: argv)
        if alone != want:
            # --flag -3.7e-05 -> --flag=-3.7e-05, which argparse reads
            counts["joined"] += 1
            assert alone[0] == "SystemExit 2" and "expected one argument" in (
                alone[2]), argv
        assert got == want, argv
        if read is not None:
            counts["read"] += 1
            assert got == ("namespace", {k: "nan" if v != v else v
                                         for k, v in vars(read).items()}), argv
            continue
        counts["passed on"] += 1
        blamed = got[0] != "namespace" and re.search(
            r"argument (--[\w-]+): expected one argument", got[2])
        if blamed:
            # unless argparse read an abbreviation of the flag it names (the
            # reader leaves those alone), some use of the flag lacks a
            # value that float() reads
            flag = blamed.group(1)
            spelt = argv[:argv.index("--")] if "--" in argv else argv
            uses = [i for i, token in enumerate(spelt) if isinstance(token, str)
                    and len(token) > 2 and flag.startswith(token)]
            assert any(argv[i] != flag for i in uses) or not all(
                _negative_value(argv[i + 1]) if i + 1 < len(argv) else False
                for i in uses), argv
    assert min(counts.values()) >= 50, counts


def test_flag_does_not_leak_into_the_next_call(tmp_path):
    cfg = _write(tmp_path, "c.yaml", CONSTANT)     # params: t 10, k 4
    _, flagged = _run(tmp_path, ["green", "--config", cfg, "--k", "3"], "a.csv")
    _, from_yaml = _run(tmp_path, ["green", "--config", cfg], "b.csv")
    assert flagged.splitlines()[-1].startswith("10,3,")
    assert from_yaml.splitlines()[-1] == "10,4,0.7936"


def test_resolved_value_does_not_persist(tmp_path, capsys):
    # the first call fills k from its config's params; the second config
    # has none, so the second call must fail for want of k
    with_k = _write(tmp_path, "c.yaml", CONSTANT)
    without_k = _write(tmp_path, "p.yaml", PERIODIC)
    assert _run(tmp_path, ["green", "--config", with_k])[0] == 0
    code = cli.main(["green", "--config", without_k, "--t", "10"])
    assert code == 2
    assert "missing key 'k'" in capsys.readouterr().err


def test_argparse_error_leaves_the_next_call_working(tmp_path, capsys):
    cfg = _write(tmp_path, "c.yaml", CONSTANT)
    _, before = _run(tmp_path, ["green", "--config", cfg, "--k", "3"], "a.csv")
    with pytest.raises(SystemExit) as exc:
        cli.main(["green", "--config", cfg, "--k", "x3"])
    assert exc.value.code == 2
    assert "invalid int value: 'x3'" in capsys.readouterr().err
    code, after = _run(tmp_path, ["green", "--config", cfg, "--k", "3"], "b.csv")
    assert code == 0 and after == before


def _reference_csv(header, rows):
    """Rows formatted one at a time, each value on its own: ints as str,
    bools as true/false, strings as they are, floats through %.15g."""
    def cell(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (int, str)):
            return str(value)
        return "%.15g" % value
    lines = ([header] if header else []) + [",".join(map(cell, row))
                                            for row in rows]
    return "".join(line + "\n" for line in lines)


def _schedule(text):
    return tvar2.load(text)[0]


@pytest.mark.parametrize("k", [
    # k + 1 rows: one short of the cut (the % writer), the cut and one past
    # it (the array kernel); then tables inside one kernel batch, and one
    # short of a kernel batch, one batch, a batch and a row, two batches
    cli.PERCENT_MAX_ROWS - 2, cli.PERCENT_MAX_ROWS - 1, cli.PERCENT_MAX_ROWS,
    1022, 1023, 2047, cli.RAW_BATCH_ROWS - 2, cli.RAW_BATCH_ROWS - 1,
    cli.RAW_BATCH_ROWS, 2 * cli.RAW_BATCH_ROWS - 1])
def test_green_rows_at_the_batch_edges(tmp_path, k):
    cfg = _write(tmp_path, "p.yaml", PERIODIC)
    code, text = _run(tmp_path, ["green", "--config", cfg, "--t", "97",
                                 "--k", str(k)])
    values = tvar2.green_functions(_schedule(PERIODIC), 97, k).values
    assert code == 0
    assert text == _reference_csv("t,i,xi", [(97, i, v) for i, v in
                                             enumerate(values.tolist())])


@pytest.mark.parametrize("rows", [1023, 1024, 1025, 2048])
def test_percent_writer_at_its_batch_edges(rows):
    # one short of a batch, one batch, a batch and a row, two batches
    assert cli.BATCH_ROWS == 1024
    y = np.random.default_rng(rows).normal(size=rows)
    out = io.StringIO()
    cli._write_rows(out, "t,i,xi\n", cli._INDEXED,
                    zip([-7] * rows, range(rows), y.tolist()))
    assert out.getvalue() == _reference_csv("t,i,xi", [
        (-7, i, v) for i, v in enumerate(y.tolist())])


def test_deep_constant_green_table(tmp_path):
    # all but 45 values below 1e-4, 1823 of them subnormal: the exponent
    # form of the array kernel
    cfg = _write(tmp_path, "c.yaml", CONSTANT)
    code, text = _run(tmp_path, ["green", "--config", cfg, "--t", "4242",
                                 "--k", "5000"])
    values = tvar2.green_functions(_schedule(CONSTANT), 4242, 5000).values
    assert code == 0
    assert np.count_nonzero(np.abs(values) < 2.0**-1022) >= 1800
    assert text == _reference_csv("t,i,xi", [(4242, i, v) for i, v in
                                             enumerate(values.tolist())])


RAW_EDGES = [
    # 4 rows per path: exactly one batch, and one batch and one path; one
    # row per path: one batch and one row
    ("one-batch", cli.RAW_BATCH_ROWS // 4, 4, 40),
    ("one-batch-and-a-path", cli.RAW_BATCH_ROWS // 4 + 1, 4, 40),
    ("one-batch-and-a-row", cli.RAW_BATCH_ROWS + 1, 1, 40),
    # at the anchor's range edges, whose times print exactly: paths inside
    # one batch, then paths longer than a batch, each crossing a batch edge
    ("3x1500-at-2**62", 3, 1500, 2**62),
    ("3x1500-at--2**62", 3, 1500, -2**62),
    ("3-longer-than-a-batch-at--2**62", 3, cli.RAW_BATCH_ROWS + 1500, -2**62),
    # 4 rows per path: 300 rows, the last table of the % writer; one row
    # per path: 301 rows, the first of the array kernel
    ("at-the-cut", 75, 4, 40),
    ("one-past-the-cut", 301, 1, 40),
]


@pytest.mark.parametrize("paths, length, t", [case[1:] for case in RAW_EDGES],
                         ids=[case[0] for case in RAW_EDGES])
def test_raw_simulate_rows_at_the_batch_edges(tmp_path, paths, length, t):
    cfg = _write(tmp_path, "p.yaml", PERIODIC)
    code, text = _run(tmp_path, ["simulate", "--config", cfg, "--t", str(t),
                                 "--length", str(length), "--paths",
                                 str(paths), "--burn-in", "30", "--seed",
                                 "11"])
    ensemble = tvar2.simulate_paths(tvar2.SimulationConfig(
        _schedule(PERIODIC), paths, t, length, 11, burn_in=30))
    times = ensemble.times.tolist()
    assert code == 0
    assert text == _reference_csv("path,t,y", [
        (p, t, y) for p in range(paths)
        for t, y in zip(times, ensemble.values[p].tolist())])


def test_only_a_long_table_loads_the_kernel(tmp_path):
    # in a fresh interpreter, since this one has loaded the kernel: the
    # tables of 300 rows do not load it, those of 301 rows do
    cfg = _write(tmp_path, "p.yaml", PERIODIC)
    sim = ["--t", "40", "--burn-in", "30", "--seed", "11"]
    runs = [["green", "--t", "97", "--k", "299"],
            ["simulate", "--paths", "75", "--length", "4", *sim],
            ["green", "--t", "97", "--k", "300"],
            ["simulate", "--paths", "301", "--length", "1", *sim]]
    argvs = [[*run, "--config", cfg, "--out", str(tmp_path / f"{n}.csv")]
             for n, run in enumerate(runs)]
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(tvar2.__file__))}
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, tvar2.cli\n"
         "loaded = ['tvar2._rowkernel' in sys.modules]\n"
         f"for argv in {argvs!r}:\n"
         "    assert tvar2.cli.main(argv) == 0\n"
         "    loaded.append('tvar2._rowkernel' in sys.modules)\n"
         "print(loaded)\n"],
        env=env, timeout=120, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[False, False, False, True, True]\n"
    schedule = _schedule(PERIODIC)
    for n, k in ((0, 299), (2, 300)):
        values = tvar2.green_functions(schedule, 97, k).values.tolist()
        assert (tmp_path / f"{n}.csv").read_text() == _reference_csv(
            "t,i,xi", [(97, i, v) for i, v in enumerate(values)])
    for n, paths, length in ((1, 75, 4), (3, 301, 1)):
        ensemble = tvar2.simulate_paths(tvar2.SimulationConfig(
            schedule, paths, 40, length, 11, burn_in=30))
        assert (tmp_path / f"{n}.csv").read_text() == _reference_csv(
            "path,t,y", [(p, t, y) for p in range(paths)
                         for t, y in zip(ensemble.times.tolist(),
                                         ensemble.values[p].tolist())])


def test_module_run_as_main_is_not_imported_again(tmp_path):
    # python -m tvar2.cli runs cli.py as __main__; a table of 301 rows loads
    # the array kernel, which must not import cli.py a second time
    cfg = _write(tmp_path, "p.yaml", PERIODIC)
    out = tmp_path / "out.csv"
    argv = ["tvar2", "green", "--config", cfg, "--t", "97", "--k", "300",
            "--out", str(out)]
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(tvar2.__file__))}
    done = subprocess.run(
        [sys.executable, "-c",
         "import runpy, sys\n"
         f"sys.argv = {argv!r}\n"
         "try:\n"
         "    runpy.run_module('tvar2.cli', run_name='__main__',"
         " alter_sys=True)\n"
         "except SystemExit as exc:\n"
         "    assert exc.code == 0, exc.code\n"
         "print(['tvar2.cli' in sys.modules,"
         " 'tvar2._rowkernel' in sys.modules])\n"],
        env=env, timeout=120, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[False, True]\n"
    values = tvar2.green_functions(_schedule(PERIODIC), 97, 300).values
    assert out.read_text() == _reference_csv(
        "t,i,xi", [(97, i, v) for i, v in enumerate(values.tolist())])


@pytest.mark.parametrize("config, paths, length, expect", [
    # phi1 = 2.5 from a zero start: fixed notation, then exponent form, then
    # overflow to inf and -inf, then nan
    (CONSTANT.replace("phi1: 1.2", "phi1: 2.5").replace("phi2: -0.32",
                                                        "phi2: 0.0"),
     20, 800, (",-1.", "e+", ",inf\n", ",-inf\n", ",nan\n")),
    # sigma2 at its floor: |y| < 1e-4, every value in exponent form
    (CONSTANT.replace("sigma2: 1.0", "sigma2: 2e-12"), 3000, 4, ("e-",)),
], ids=["explosive", "tiny"])
def test_raw_simulate_rows_that_fall_back(tmp_path, config, paths, length,
                                          expect):
    # the floats that the array kernel leaves to FLOAT_FORMAT % and the
    # spelled strings keep the bytes of the % writer
    cfg = _write(tmp_path, "c.yaml", config)
    code, text = _run(tmp_path, ["simulate", "--config", cfg, "--t", "5000",
                                 "--length", str(length), "--paths",
                                 str(paths), "--burn-in", "0", "--seed", "5"])
    ensemble = tvar2.simulate_paths(tvar2.SimulationConfig(
        _schedule(config), paths, 5000, length, 5, burn_in=0))
    times = ensemble.times.tolist()
    assert code == 0
    assert text == _reference_csv("path,t,y", [
        (p, t, y) for p in range(paths)
        for t, y in zip(times, ensemble.values[p].tolist())])
    assert all(word in text for word in expect)


@functools.cache
def _kernel_cases():
    """Seeded (i, j, y) columns for the array kernel, 2.27e6 rows in all:
    float64 bit patterns; each decade from 1e-5 to 1e16 with the nearest
    floats around each power of ten; exact ties at the 15th digit (16
    significant digits ending in 5, as c / 2**k); zeros, infinities, nans,
    subnormals and the edges of fixed notation.  For the exponent form:
    odd c / 2**k below 2**10 / 2**20 .. 2**-30, which hold its exact ties
    at e = -5 .. -7 (none has 16 digits at e = -8) and the values near
    e = -8 .. -10 where 10**(14 - e) stops being a float; the values whose
    15 digits carry into the next decade, or up to 1e-4
    (9.999999999999995e-N), and the subnormal edges 5e-324 and 2**-1022,
    each with its eight nearest floats on either side.  The ints cover
    int64, the anchors at +-2**62 (+ 1500), +-(2**63 - 1) and -2**63
    included."""
    rng = np.random.default_rng(24)
    bits = rng.integers(0, 2**64, 2 * 10**5, dtype=np.uint64).view(np.float64)
    # the floats nearest 1e-5 .. 1e17, read from text, not from numpy's pow
    powers = np.array([float(f"1e{d}") for d in range(-5, 18)])
    signs = np.where(rng.random(80000) < 0.5, -1.0, 1.0)
    decades = np.concatenate([(1 + 9 * rng.random(80000)) * power * signs
                              for power in powers[:-1]])
    near = [powers]
    for toward in (0.0, np.inf):
        step = powers
        for _ in range(8):
            step = np.nextafter(step, toward)
            near.append(step)
    ties = []
    for k in range(1, 23):      # c * 5**k has 16 digits and ends in 5
        c = rng.integers(-(-10**15 // 5**k), 10**16 // 5**k, 6000) | 1
        ties.append(c[c < 2**53] / 2.0**k)
    fixed = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
             2.2250738585072014e-308, 1e15, -1e15, 999999999999999.5,
             999999999999999.4, 1e-4, -1e-4, 9.99999999999999949e-5,
             0.5, 1.5, 2.5, 1e300, -1e-300, 1.0, -1.0]
    subnormal = rng.integers(1, 2**52, 10000, dtype=np.uint64).view(
        np.float64)
    binary = (np.arange(1, 2**10, 2) / 2.0**np.arange(20, 31)[:, None]).ravel()
    edges = [np.array([float(f"9.999999999999995e-{d}")
                       for d in range(5, 324)] + [5e-324, 2.0**-1022])]
    for toward in (0.0, np.inf):
        step = edges[0]
        for _ in range(8):
            step = np.nextafter(step, toward)
            edges.append(step)
    edges = np.concatenate(edges)
    y = np.concatenate([bits, decades, np.concatenate(near).ravel(),
                        np.concatenate(ties), -np.concatenate(ties), fixed,
                        subnormal, -subnormal, binary, -binary, edges, -edges])
    anchors = np.array([0, 1, -1, 2**62 + 1500, -(2**62 + 1500), 2**62,
                        -2**62, 2**63 - 1, -(2**63 - 1), -2**63])
    i = rng.integers(-2**63, 2**63, len(y), dtype=np.int64)
    i[:len(anchors)] = anchors
    j = rng.integers(-10**6, 10**6, len(y)) // 10**rng.integers(0, 7, len(y))
    j[-len(anchors):] = anchors
    return i, j, y


CHUNK = 2**16


@functools.cache
def _kernel_reference():
    """The % reference text of each CHUNK rows of _kernel_cases, and its
    sha256."""
    i, j, y = _kernel_cases()
    texts = [_reference_csv("", zip(i[r0:r0 + CHUNK].tolist(),
                                    j[r0:r0 + CHUNK].tolist(),
                                    y[r0:r0 + CHUNK].tolist()))
             for r0 in range(0, len(y), CHUNK)]
    return texts, [hashlib.sha256(t.encode()).hexdigest() for t in texts]


def _kernel_texts():
    # i one value a row, j once per distinct value of the chunk
    i, j, y = _kernel_cases()
    return [_rowkernel.indexed_rows((i[r0:r0 + CHUNK], None),
                                    np.unique(j[r0:r0 + CHUNK],
                                              return_inverse=True),
                                    y[r0:r0 + CHUNK])
            for r0 in range(0, len(y), CHUNK)]


def test_array_rows_equal_the_percent_reference():
    assert len(_kernel_cases()[2]) >= 2 * 10**6
    with np.errstate(all="raise"):      # no floating-point warning leaks
        texts = _kernel_texts()
    for got, want in zip(texts, _kernel_reference()[0], strict=True):
        if got != want:     # name the first row that differs
            for line, expected in zip(got.splitlines(), want.splitlines()):
                assert line == expected
        assert got == want


def test_kernel_tables_equal_the_string_built_ones():
    # the tables as the kernel once built them, from 4 * 10**4 strings
    full = [f"{g:04d}" for g in range(10**4)]
    lead = [d.lstrip("0").rjust(4) for d in full]
    text = "".join(
        full + lead + ["   0"] + lead[1:]
        + [d.rstrip("0").ljust(4) for d in full]
        + [" ." + d[2:] for d in full[:100]] + ["    "]
        + [(" ." + d[2:].rstrip("0")).ljust(4) for d in full[1:100]]
        + [d[2:].rstrip("0").ljust(2) + "e-" for d in full[:100]]
        + [f"{x:02d}".rjust(4) for x in range(325)]
        + ["," + word.rjust(22) + " "
           for word in ("", "", "inf", "-inf", "nan", "nan")])
    *tables, spelled = np.split(
        np.frombuffer(text.replace(" ", "\0").encode("ascii"), "<u4"),
        np.cumsum([4 * 10**4, 200, 100, 325]))
    for want, got in zip(tables + [spelled.reshape(6, 6)],
                         (_rowkernel._QUADS, _rowkernel._TOP, _rowkernel._TAIL,
                          _rowkernel._POWER, _rowkernel._SPELLED)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert not got.flags.writeable


def test_undecided_exponent_form_goes_through_percent(monkeypatch):
    # with a bound too wide to decide many residues of the exponent form
    # where 10**q is not a float, those values go through % instead, and
    # the bytes of the last chunk (subnormals, exponent-form edges) hold
    monkeypatch.setattr(_rowkernel, "_RESIDUE_ERROR", 0.25)
    i, j, y = _kernel_cases()
    r0 = (len(y) - 1) // CHUNK * CHUNK
    small = np.abs(y[r0:])
    small = small[(small > 0) & (small < 1e-8)]
    assert np.count_nonzero(~_rowkernel._decimal(small)[2]) > len(small) // 4
    with np.errstate(all="raise"):
        text = _rowkernel.indexed_rows((i[r0:], None), (j[r0:], None),
                                       y[r0:])
    assert text == _kernel_reference()[0][-1]


def test_array_rows_do_not_depend_on_simd_log10():
    # numpy's baseline SIMD routines: log10 may round differently, but the
    # kernel corrects its decimal exponent, so the bytes do not move
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES":
           "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
           "PYTHONPATH": os.pathsep.join([os.path.dirname(__file__),
                                          os.path.dirname(os.path.dirname(
                                              tvar2.__file__))])}
    done = subprocess.run(
        [sys.executable, "-c",
         "import hashlib, test_cli\n"
         "for text in test_cli._kernel_texts():\n"
         "    print(hashlib.sha256(text.encode()).hexdigest())\n"],
        env=env, timeout=300, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == _kernel_reference()[1]


def test_acf_nonfinite_rows(tmp_path):
    config = CONSTANT.replace("phi1: 1.2", "phi1: 1.5").replace(
        "phi2: -0.32", "phi2: 0.0")
    cfg = _write(tmp_path, "c.yaml", config)
    code, text = _run(tmp_path, ["acf", "--config", cfg, "--max-lag", "3"])
    covs = [tvar2.autocovariance(_schedule(config), 10, k) for k in range(4)]
    assert code == 0
    assert "10,0,inf,false" in text.splitlines()
    assert text == _reference_csv("t,k,gamma,converged", [
        (10, c.lag, c.value, c.converged) for c in covs])


@pytest.mark.parametrize("k", [390, 2000])
def test_forecast_nonfinite_rows(tmp_path, k):
    # an infinite mse, then a nan point and mse
    config = CONSTANT.replace("phi1: 1.2", "phi1: 2.5").replace(
        "phi2: -0.32", "phi2: 0.0")
    cfg = _write(tmp_path, "c.yaml", config)
    code, text = _run(tmp_path, ["forecast", "--config", cfg, "--k", str(k),
                                 "--y0", "1", "--y1", "2"])
    result = tvar2.forecast(_schedule(config), 10, k, (1.0, 2.0))
    assert code == 0 and not result.finite
    assert text == _reference_csv("t,k,point,mse",
                                  [(10, k, result.point, result.mse)])


def test_stationarity_rows_match_the_reference(tmp_path):
    cfg = _write(tmp_path, "p.yaml", PERIODIC)
    code, text = _run(tmp_path, ["stationarity", "--config", cfg,
                                 "--matrices"])
    schedule = _schedule(PERIODIC)
    vs = tvar2.build_vs(schedule)
    verdict = tvar2.stationarity_check(schedule)
    assert code == 0
    assert text == _reference_csv("", [
        (label, *row) for label, mat in (("phi0_mat", vs.phi0_mat),
                                         ("phi1_mat", vs.phi1_mat))
        for row in mat.tolist()] + [
        ("spectral_radius", verdict.spectral_radius),
        ("margin", verdict.margin), ("stationary", verdict.stationary)])


@pytest.mark.parametrize("phi1, phi2", [(1e200, 1e200), (1e60, 0.0)])
def test_stationarity_overflow_is_named_and_leaves_no_csv(tmp_path, capsys,
                                                          phi1, phi2):
    # the period matrix of six such seasons overflows; the unit-triangular
    # pencil is not singular, so no linear-algebra error may stand in for it
    season = f"    - {{phi0: 0.0, phi1: {phi1!r}, phi2: {phi2!r}, sigma2: 1.0}}\n"
    cfg = _write(tmp_path, "big.yaml", "schema_version: 1\nschedule:\n"
                 "  kind: periodic\n  seasons:\n" + season * 6)
    code, text = _run(tmp_path, ["stationarity", "--config", cfg,
                                 "--matrices"])
    assert code == 1 and text == ""
    assert not (tmp_path / "out.csv").exists()
    assert capsys.readouterr().err == (
        "error: overflow in the period matrix's radius\n")


@pytest.mark.parametrize("phi1, phi2", [(1e30, 0.0), (1e30, 1e30)])
def test_stationarity_of_a_finite_radius_past_the_matrix_range(
        tmp_path, phi1, phi2):
    # M's entries (1e180) square past the float range, its radius does not:
    # each value of M carries its own exponent, so nothing overflows
    season = f"    - {{phi0: 0.0, phi1: {phi1!r}, phi2: {phi2!r}, sigma2: 1.0}}\n"
    cfg = _write(tmp_path, "big.yaml", "schema_version: 1\nschedule:\n"
                 "  kind: periodic\n  seasons:\n" + season * 6)
    code, text = _run(tmp_path, ["stationarity", "--config", cfg])
    rows = dict(line.split(",") for line in text.splitlines())
    assert code == 0 and rows["stationary"] == "false"
    assert float(rows["spectral_radius"]) == pytest.approx(1e180, rel=1e-12)
    assert float(rows["margin"]) == pytest.approx(-1e180, rel=1e-12)


@pytest.mark.parametrize("argv, digest", README_DIGESTS,
                         ids=[" ".join(argv) for argv, _ in README_DIGESTS])
def test_standard_output_holds_the_pinned_bytes(tmp_path, capsys, argv,
                                                digest):
    cfg = _write(tmp_path, "p.yaml", PERIODIC)
    assert cli.main([argv[0], "--config", cfg] + argv[1:]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_failed_run_on_standard_output_stops_at_a_whole_batch(tmp_path,
                                                              capsys):
    # the series at lag 0 runs past the break window: the header is out,
    # the rows of the batch being formatted are not
    cfg = _write(tmp_path, "b.yaml", BREAKS)
    assert cli.main(["acf", "--config", cfg, "--t", "50",
                     "--max-lag", "2"]) == 1
    assert capsys.readouterr().out == "t,k,gamma,converged\n"


def test_verify_exits_2_when_the_dumped_config_does_not_load(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.config_mod, "dump",
                        lambda schedule: "schema_version: 99\n")
    cfg = _write(tmp_path, "p.yaml", PERIODIC)
    out = tmp_path / "out.csv"
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().out == ""


def test_stationarity_prints_indeterminate_on_the_boundary(tmp_path):
    # phi1 multiplies to exactly 1 over the period: radius 1, margin 0
    seasons = "".join(f"    - {{phi0: 0.0, phi1: {p}, phi2: 0.0, sigma2: 1.0}}\n"
                      for p in (2, 0.5, 1, 1))
    cfg = _write(tmp_path, "b.yaml", PERIODIC.split("  seasons:")[0]
                 + "  seasons:\n" + seasons)
    code, text = _run(tmp_path, ["stationarity", "--config", cfg])
    assert code == 0
    assert text.splitlines()[-2:] == ["margin,0", "stationary,indeterminate"]


def test_verify_passes_past_the_block_determinant_cap(tmp_path):
    # two periods of 40 seasons exceed the oracle's 64: the decomposition
    # check still runs, against the recurrence
    seasons = "".join(f"    - {{phi0: 0.1, phi1: {0.9 + 0.005 * (j % 5):.3f}, "
                      "phi2: 0.05, sigma2: 1.0}\n" for j in range(40))
    cfg = _write(tmp_path, "p40.yaml", PERIODIC.split("  seasons:")[0]
                 + "  seasons:\n" + seasons)
    code, text = _run(tmp_path, ["verify", "--config", cfg, "--t", "80"])
    assert code == 0
    assert text.splitlines() == [
        "green-recurrence-vs-determinant,pass",
        "solution-closed-form-vs-recursion,pass", "config-round-trip,pass",
        "periodic-decomposition,pass"]


def test_verify_fails_a_decomposition_off_the_recurrence(tmp_path,
                                                        monkeypatch):
    real = cli.xi_par_decomposed
    monkeypatch.setattr(cli, "xi_par_decomposed",
                        lambda *args: real(*args) * (1 + 1e-9))
    cfg = _write(tmp_path, "p.yaml", PERIODIC)
    (tmp_path / "out.csv").write_text("t,i,xi\n1,0,1\n")
    code, text = _run(tmp_path, ["verify", "--config", cfg, "--t", "24"])
    assert code == 1
    assert text.splitlines()[-1] == "periodic-decomposition,fail"
    # the report of a check that fails is written whole, over the old file
    assert text == ("green-recurrence-vs-determinant,pass\n"
                    "solution-closed-form-vs-recursion,pass\n"
                    "config-round-trip,pass\nperiodic-decomposition,fail\n")
    assert sorted(os.listdir(tmp_path)) == ["out.csv", "p.yaml"]


def test_verify_passes_a_decomposition_where_xi_cancels_to_tiny(tmp_path):
    # xi_{80,80} is 9.1e-53, while the terms either method adds are bounded
    # by the |phi1|, |phi2| recurrence, 3.6e-38: the two methods' relative
    # deviation of 1.8e-9 is cancellation, not a wrong decomposition
    seasons = "".join(f"    - {{phi0: 0.1, phi1: {0.02 * j - 0.4:.2f}, "
                      "phi2: 0.05, sigma2: 1.0}\n" for j in range(40))
    cfg = _write(tmp_path, "p40.yaml", PERIODIC.split("  seasons:")[0]
                 + "  seasons:\n" + seasons)
    code, text = _run(tmp_path, ["verify", "--config", cfg, "--t", "80"])
    assert code == 0
    assert text.splitlines()[-1] == "periodic-decomposition,pass"
