import argparse
import hashlib

import pytest

import tvar2.cli as cli

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


def test_stationarity_needs_periodic(tmp_path, capsys):
    cfg = _write(tmp_path, "c.yaml", CONSTANT)
    assert cli.main(["stationarity", "--config", cfg]) == 1


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


def test_verify_passes(tmp_path):
    for text in (CONSTANT, PERIODIC, CYCLICAL):
        cfg = _write(tmp_path, "v.yaml", text)
        args = ["verify", "--config", cfg]
        if text is not CONSTANT:
            args += ["--t", "24"]
        code, out = _run(tmp_path, args)
        assert code == 0
        assert all(line.endswith(",pass") for line in out.splitlines())


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
    # fails after the header is written: the series runs past the window
    (BREAKS, ["acf", "--t", "50", "--max-lag", "2"], 1),
], ids=["acf-tol-0", "acf-nmax-0", "acf-max-lag-negative", "green-k-negative",
        "simulate-paths-negative", "forecast-k-0", "decompose-verify-n-0",
        "decompose-verify-breaks-t-flag", "decompose-verify-breaks-t-yaml",
        "decompose-verify-t-off-period-end", "acf-past-break-window"])
def test_failed_command_leaves_no_out_file(tmp_path, config, argv, exit_code):
    cfg = _write(tmp_path, "c.yaml", config)
    out = tmp_path / "out.csv"
    code = cli.main([argv[0], "--config", cfg, "--out", str(out)] + argv[1:])
    assert code == exit_code
    assert not out.exists()


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
    # 1 * (steps + 1) = path-step cap + 1
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
    # one path draws a full block of SUB_BLOCK: 256 * 390 626 > 10**8
    monkeypatch.setattr(cli, "simulate_paths", _not_called)
    cfg = _write(tmp_path, "c.yaml", PERIODIC)
    out = tmp_path / "out.csv"
    code = cli.main(["simulate", "--config", cfg, "--out", str(out), "--t",
                     "5", "--paths", "1", "--burn-in", "390625",
                     "--length", "1"])
    assert code == 2
    assert not out.exists()


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
] + [(_edit(config, old, new), f"key {key!r}") for config, old, new, key in MISTYPED]


@pytest.mark.parametrize("config, message", REJECTED,
                         ids=["sigma2-negative", "unknown-key", "phi1-nan",
                              "unclosed-list", "bad-indent"] + MISTYPED_IDS)
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


def test_each_subcommand_accepts_only_the_flags_it_reads():
    reads = {"green": "--t --k",
             "forecast": "--t --k --y0 --y1",
             "acf": "--t --max-lag --tol --nmax",
             "simulate": "--t --seed --paths --length --burn-in --workers "
                         "--innovations --aggregate",
             "stationarity": "--matrices",
             "decompose-verify": "--t --n",
             "verify": "--t --seed"}
    parser = cli._build_parser()
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    assert set(sub.choices) == set(reads)
    for name, subparser in sub.choices.items():
        flags = {option for action in subparser._actions
                 for option in action.option_strings}
        assert flags == {"-h", "--help", "--config", "--out",
                         *reads[name].split()}, name


# sha256 of the CSV each README command writes on the README periodic
# config (simulate on a small ensemble, aggregated and raw), so that a
# change to how the CLI reads its flags and config cannot change its bytes
README_DIGESTS = [
    (["green", "--t", "10", "--k", "4"],
     "9f64bc39258e336b03327a91587833def7f1ded127d54b9791bc6edf26a2d8b8"),
    (["forecast", "--t", "10", "--k", "3", "--y0", "1", "--y1", "2"],
     "5a80d76c4e842ddd8c33ebc55d9c9053108b7b3744cfe9efe89ac2eb26d3c350"),
    (["acf", "--t", "10", "--max-lag", "4"],
     "5c82096836d734b50cbd532c6db3712758b4890cf990e0f3430f1a39911ddc16"),
    (["simulate", "--t", "40", "--paths", "200", "--seed", "7", "--aggregate"],
     "62dfa4ac02a49818a296b203769ee062d47b6f65dc2128869729c0199e78e5c1"),
    (["simulate", "--t", "40", "--length", "3", "--paths", "20", "--burn-in",
      "50", "--seed", "7"],
     "42b1cd945c1646d0ff1ceb5435d62eb9a509d279da9d7eab0101624988c7c7eb"),
    (["stationarity", "--matrices"],
     "6d3395fd844f893db8fb30902c6081c62e1a0b7e6279a8f3f490fbd61e2929b6"),
    (["decompose-verify", "--n", "3", "--t", "12"],
     "c892d3041a2f7242615620ebb17487a8e38d06d9a07af02a0bf4c014cea3016d"),
    (["verify"],
     "0d978ac58a4ac1bb053470e3de2426460cf68c3f4ac2ab185f5dac830a0fef27"),
]


@pytest.mark.parametrize("argv, digest", README_DIGESTS,
                         ids=[" ".join(argv) for argv, _ in README_DIGESTS])
def test_readme_command_bytes_pinned(tmp_path, argv, digest):
    cfg = _write(tmp_path, "p.yaml", PERIODIC)
    out = tmp_path / "out.csv"
    code = cli.main([argv[0], "--config", cfg, "--out", str(out)] + argv[1:])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_parser_is_built_once_per_process(tmp_path):
    cli._build_parser.cache_clear()
    cfg = _write(tmp_path, "c.yaml", CONSTANT)
    for argv in (["green"], ["forecast", "--k", "2"], ["acf"], ["green"]):
        code, _ = _run(tmp_path, [argv[0], "--config", cfg] + argv[1:])
        assert code == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)


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
