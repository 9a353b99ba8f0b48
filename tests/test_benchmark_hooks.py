"""The names the benchmark in perfbench/ hooks into must keep existing.

perfbench/layertrace.py wraps tvar2 functions by name for ``--trace 1``,
and perfbench/selftest.py patches names bound in ``tvar2.cli``.  A
refactor that drops one should fail here, not in a benchmark run.
"""

import importlib
import os

import tvar2
import tvar2.cli
import tvar2.moments
import tvar2.schedules

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
XI = importlib.import_module("tvar2.xi")

# names perfbench/selftest.py replaces in tvar2.cli
SELFTEST_CLI_NAMES = ("forecast", "green_functions", "autocovariance",
                      "xi_par_decomposed", "stationarity_check",
                      "empirical_moments")


def test_cli_binds_the_names_the_selftest_patches():
    for name in SELFTEST_CLI_NAMES:
        assert callable(getattr(tvar2.cli, name)), name


def test_layer_tracer_installs_counts_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    layertrace = importlib.import_module("layertrace")
    originals = (XI.xi_stream, tvar2.moments._truncated_sum,
                 tvar2.schedules.Schedule.at, tvar2.cli.forecast)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        tracer.active = True
        s = tvar2.PeriodicSchedule([(0.2, 0.6, -0.1, 1.0), (0.0, -0.4, 0.2, 1.5)])
        tvar2.unconditional_variance(s, 41)
        tvar2.forecast(s, 41, 5, (1.0, 0.0))
        stream = XI.xi_stream(s, 41)
        for _ in range(4):
            next(stream)
        stream.close()
        s.at(3)
        metrics = layertrace.layer_metrics(tracer, 0, 0, 0)
    finally:
        tracer.uninstall()
    assert metrics["moments.series.calls"][0] == 2
    assert metrics["moments.series.terms"][0] > 0
    assert tracer.counters["xi.steps.none"] == 4
    assert tracer.counters["xi.steps.moments"] == metrics["moments.series.terms"][0]
    assert metrics["schedules.at.calls"][0] == 1
    assert tracer.span_counts()["moments.forecast"] == 1
    assert (XI.xi_stream, tvar2.moments._truncated_sum,
            tvar2.schedules.Schedule.at, tvar2.cli.forecast) == originals


def test_layer_tracer_counts_the_steps_of_a_green_table(monkeypatch):
    # green_functions reads xi_stream through its module global, so the
    # tracer's wrapper counts its steps in the xi layer
    monkeypatch.syspath_prepend(PERFBENCH)
    layertrace = importlib.import_module("layertrace")
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        tracer.active = True
        s = tvar2.PeriodicSchedule([(0.2, 0.6, -0.1, 1.0), (0.0, -0.4, 0.2, 1.5)])
        table = tvar2.green_functions(s, 41, 30)
        metrics = layertrace.layer_metrics(tracer, 0, 0, 0)
    finally:
        tracer.uninstall()
    assert tracer.counters["xi.steps.xi"] == table.depth + 1 == 31
    assert metrics["xi.ns_per_step"][0] > 0


PERIODIC = """
schema_version: 1
schedule:
  kind: periodic
  seasons:
    - {phi0: 0.2, phi1: 0.6, phi2: -0.1, sigma2: 1.0}
    - {phi0: 0.0, phi1: -0.4, phi2: 0.2, sigma2: 1.5}
"""


def test_layer_tracer_wraps_the_reexported_oracles(monkeypatch, tmp_path):
    # the oracles are defined in tvar2._oracles, which the tracer does not
    # patch; the CLI reaches them through the names xi, solution and
    # blockdet re-export, and those must still open spans
    monkeypatch.syspath_prepend(PERFBENCH)
    layertrace = importlib.import_module("layertrace")
    cfg = tmp_path / "p.yaml"
    cfg.write_text(PERIODIC)
    out = str(tmp_path / "out.csv")
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        tracer.active = True
        verified = tvar2.cli.main(["verify", "--config", str(cfg), "--t", "24",
                                   "--out", out])
        after_verify = tracer.span_counts()
        decomposed = tvar2.cli.main(["decompose-verify", "--config", str(cfg),
                                     "--n", "2", "--out", out])
        after_decompose = tracer.span_counts()
    finally:
        tracer.uninstall()
    assert verified == decomposed == 0
    assert after_verify["xi.xi_determinant_oracle"] == 12
    assert after_verify["solution.forward_recursion"] == 1
    block = "blockdet.block_determinant_oracle"
    assert after_decompose[block] == after_verify[block] + 1
