"""The names the benchmark in perfbench/ hooks into must keep existing.

perfbench/layertrace.py wraps tvar2 functions by name for ``--trace 1``,
and perfbench/selftest.py patches names bound in ``tvar2.cli``.  A
refactor that drops one should fail here, not in a benchmark run.
"""

import importlib
import os

import tvar2
import tvar2.cli
import tvar2.config
import tvar2.moments
import tvar2.schedules
import tvar2.simulate

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
XI = importlib.import_module("tvar2.xi")
SEASONS = [(0.2, 0.6, -0.1, 1.0), (0.0, -0.4, 0.2, 1.5)]

# names perfbench/selftest.py replaces in tvar2.cli
SELFTEST_CLI_NAMES = ("forecast", "green_functions", "autocovariance",
                      "xi_par_decomposed", "stationarity_check",
                      "empirical_moments")


def test_cli_binds_the_names_the_selftest_patches():
    for name in SELFTEST_CLI_NAMES:
        assert callable(getattr(tvar2.cli, name)), name


def test_simulate_binds_the_chunk_target_the_montecarlo_check_reads():
    # perfbench/workloads.py digests an ensemble of more than CHUNK_TARGET
    # paths, which spans chunks, to check that its bits hold across workers
    assert isinstance(tvar2.simulate.CHUNK_TARGET, int)
    assert tvar2.simulate.CHUNK_TARGET > 0


def test_layer_tracer_installs_counts_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    layertrace = importlib.import_module("layertrace")
    originals = (XI.xi_stream, tvar2.moments._truncated_sum,
                 tvar2.schedules.Schedule.at, tvar2.cli.forecast)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        tracer.active = True
        # a generic schedule's series read one xi step per term
        s = tvar2.GenericSchedule(lambda t: SEASONS[(t - 1) % 2])
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


def test_layer_tracer_leaves_every_package_name_as_it_was(monkeypatch):
    # the tracer restores only the names it replaced in vars(tvar2); a name
    # the package resolved lazily, and kept, while the tracer was installed
    # would keep its wrapper after uninstall
    monkeypatch.syspath_prepend(PERFBENCH)
    layertrace = importlib.import_module("layertrace")
    before = {name: getattr(tvar2, name) for name in tvar2.__all__}
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        during = {name: getattr(tvar2, name) for name in tvar2.__all__}
    finally:
        tracer.uninstall()
    for name in ("forecast", "simulate_paths", "load", "xi", "green_functions"):
        assert during[name] is not before[name], name
    for name, value in before.items():
        assert getattr(tvar2, name) is value, name
    assert importlib.import_module("tvar2.xi") is XI
    assert tvar2.xi is XI.xi


def test_layer_tracer_counts_the_xi_prefix_of_a_tiled_series(monkeypatch):
    # the exact lags 0..10 at t share the cached xi prefix of the season of
    # t, read at lags 1, 4 and 10, 4, 10 and 22 values long; the tracer
    # counts its steps as it is read, and no series is summed
    monkeypatch.syspath_prepend(PERFBENCH)
    layertrace = importlib.import_module("layertrace")
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        tracer.active = True
        s = tvar2.PeriodicSchedule(SEASONS)
        covs = [tvar2.autocovariance(s, 41, k) for k in range(11)]
        metrics = layertrace.layer_metrics(tracer, 0, 0, 0)
    finally:
        tracer.uninstall()
    assert metrics["moments.series.calls"][0] == 0
    assert all(c.depth == 0 and c.converged for c in covs)
    assert len(s._season_cache["xi", 0]) == 22
    assert tracer.counters["xi.steps.moments"] == 4 + 10 + 22


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


def test_traced_acf_counts_one_series_per_lag(monkeypatch, series_only,
                                              tmp_path):
    # each lag's series walks its own xi streams, one step a term: k + n of
    # the anchor and n of the lagged stream for a lag k series of n terms
    monkeypatch.syspath_prepend(PERFBENCH)
    layertrace = importlib.import_module("layertrace")
    cfg = tmp_path / "p.yaml"
    cfg.write_text(PERIODIC)
    out = tmp_path / "acf.csv"
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        tracer.active = True
        code = tvar2.cli.main(["acf", "--config", str(cfg), "--t", "5001",
                               "--max-lag", "20", "--out", str(out)])
        metrics = layertrace.layer_metrics(tracer, 0, 0, 0)
    finally:
        tracer.uninstall()
    assert code == 0
    schedule = tvar2.config.load(PERIODIC)[0]
    covs = [tvar2.autocovariance(schedule, 5001, k) for k in range(21)]
    assert out.read_text() == "t,k,gamma,converged\n" + "".join(
        tvar2.cli._ACF % (c.anchor, c.lag, c.value, tvar2.cli._WORD[c.converged])
        for c in covs)
    assert metrics["moments.series.calls"][0] == 21
    assert metrics["moments.series.terms"][0] == sum(c.depth for c in covs)
    lazy = sum(c.lag + c.depth + (c.depth if c.lag else 0) for c in covs)
    assert metrics["xi.steps"][0] == lazy > 0


def test_traced_exact_acf_sums_no_series(monkeypatch, tmp_path):
    # a stationary periodic schedule has season moments: its lags read the
    # one xi prefix of the season of t, each read twice as long as asked
    monkeypatch.syspath_prepend(PERFBENCH)
    layertrace = importlib.import_module("layertrace")
    cfg = tmp_path / "p.yaml"
    cfg.write_text(PERIODIC)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        tracer.active = True
        code = tvar2.cli.main(["acf", "--config", str(cfg), "--t", "5001",
                               "--max-lag", "20", "--out",
                               str(tmp_path / "acf.csv")])
        metrics = layertrace.layer_metrics(tracer, 0, 0, 0)
    finally:
        tracer.uninstall()
    assert code == 0
    assert metrics["moments.series.calls"][0] == 0
    assert tracer.counters["xi.steps.moments"] == 4 + 10 + 22   # lags 1, 4, 10
    assert tracer.span_counts()["moments.autocovariance"] == 21
