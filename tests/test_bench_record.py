"""bench/record.py's summarize: when a BENCH_<n>.json may claim a gain."""

import importlib.util
import json
import os
import subprocess

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench", "record.py")
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

END_TO_END = {"requests_per_s": "higher", "latency_p50_ms": "lower"}


def _entry(base, change, name="requests_per_s"):
    """A workload entry with one metric's per-seed values on each side,
    plus a per-layer metric that no gain is computed for."""
    return {"runs": {side: [{"metrics": {name: v, "xi.steps": 1.0}}
                            for v in values]
                     for side, values in (("base", base), ("change", change))}}


def test_fewer_than_min_pairs_has_no_gain_entry():
    n = record.MIN_PAIRS - 1
    entry = _entry([10.0] * n, [20.0] * n)
    entry["gain"] = {"stale": True}
    record.summarize(entry, END_TO_END)
    assert "gain" not in entry
    assert entry["summary"]["requests_per_s"]["change"]["median"] == 20.0


def test_gain_counts_pairs_and_skips_per_layer_metrics():
    base = [10.0 + 0.1 * i for i in range(10)]
    entry = _entry(base, [b + 5.0 for b in base])
    record.summarize(entry, END_TO_END)
    assert set(entry["gain"]) == {"requests_per_s"}
    gain = entry["gain"]["requests_per_s"]
    assert (gain["wins"], gain["losses"], gain["pairs"]) == (10, 0, 10)
    assert gain["claimable"]
    summary = entry["summary"]["requests_per_s"]["base"]
    assert gain["base_iqr"] == pytest.approx(summary["q3"] - summary["q1"])
    assert gain["median_ratio"] == pytest.approx(
        entry["summary"]["requests_per_s"]["change"]["median"]
        / summary["median"])


@pytest.mark.parametrize("losses, claimable", [(1, True), (2, False)],
                         ids=["9-of-10", "8-of-10"])
def test_claim_needs_nine_tenths_of_the_pairs(losses, claimable):
    base = [10.0 + 0.1 * i for i in range(10)]
    change = [b - 1.0 if i < losses else b + 5.0 for i, b in enumerate(base)]
    entry = _entry(base, change)
    record.summarize(entry, END_TO_END)
    gain = entry["gain"]["requests_per_s"]
    assert (gain["wins"], gain["losses"]) == (10 - losses, losses)
    assert gain["claimable"] is claimable


def test_claim_needs_a_median_shift_beyond_the_base_iqr():
    base = [10.0 + i for i in range(10)]          # interquartile distance 5.5
    entry = _entry(base, [b + 0.5 for b in base])
    record.summarize(entry, END_TO_END)
    gain = entry["gain"]["requests_per_s"]
    assert (gain["wins"], gain["losses"]) == (10, 0)
    assert gain["base_iqr"] > 0.5
    assert not gain["claimable"]


def test_ties_count_for_neither_side():
    base = [10.0 + 0.1 * i for i in range(10)]
    change = [b if i < 3 else b + 5.0 for i, b in enumerate(base)]
    entry = _entry(base, change)
    record.summarize(entry, END_TO_END)
    gain = entry["gain"]["requests_per_s"]
    assert (gain["wins"], gain["losses"], gain["pairs"]) == (7, 0, 10)
    assert not gain["claimable"]


@pytest.mark.parametrize("name, claimable", [("requests_per_s", False),
                                             ("latency_p50_ms", True)])
def test_sign_follows_the_better_direction(name, claimable):
    base = [10.0 + 0.1 * i for i in range(10)]
    entry = _entry(base, [b - 5.0 for b in base], name)
    record.summarize(entry, END_TO_END)
    gain = entry["gain"][name]
    assert (gain["wins"] == 10) is claimable
    assert (gain["losses"] == 10) is not claimable
    assert gain["claimable"] is claimable


BOUNDS = {"requests_per_s": 0.24, "latency_p50_ms": 0.24}


@pytest.mark.parametrize("name, base, change, state", [
    # medians 10 and 7.5: 25 % worse, over the 24 % bound
    ("requests_per_s", [10.0] * 3, [7.5] * 3, "worse"),
    ("latency_p50_ms", [10.0] * 3, [12.5] * 3, "worse"),
    # 20 % worse is inside the bound, and the base runs agree
    ("requests_per_s", [10.0] * 3, [8.0] * 3, "ok"),
    ("latency_p50_ms", [10.0] * 3, [8.0] * 3, "ok"),
    # the base's quartiles 7.5 and 12.5 spread 50 % of its median 10
    ("requests_per_s", [7.0, 8.0, 10.0, 12.0, 13.0], [9.0, 10.0, 11.0, 12.0, 14.0],
     "unresolved"),
    # ... unless every change run beats every base run
    ("requests_per_s", [7.0, 8.0, 10.0, 12.0, 13.0], [13.5, 14.0, 15.0, 16.0, 17.0],
     "ok"),
    ("latency_p50_ms", [7.0, 8.0, 10.0, 12.0, 13.0], [5.0, 5.5, 6.0, 6.5, 6.9],
     "ok"),
    # a median worse beyond the bound is worse, however wide the spread
    ("latency_p50_ms", [7.0, 8.0, 10.0, 12.0, 13.0], [13.0] * 5, "worse"),
], ids=["higher-worse", "lower-worse", "higher-ok", "lower-ok", "unresolved",
        "higher-every-run-better", "lower-every-run-better", "wide-and-worse"])
def test_check_states_the_no_regression_rule(name, base, change, state):
    entry = _entry(base, change, name)
    record.summarize(entry, END_TO_END, BOUNDS)
    assert entry["check"] == {name: {"state": state, "bound": 0.24}}
    assert "gain" not in entry       # fewer than MIN_PAIRS pairs


def test_check_is_kept_beside_the_gain_and_dropped_without_bounds():
    base = [10.0 + 0.1 * i for i in range(10)]
    entry = _entry(base, [b + 5.0 for b in base])
    record.summarize(entry, END_TO_END, BOUNDS)
    assert entry["check"]["requests_per_s"]["state"] == "ok"
    assert entry["gain"]["requests_per_s"]["claimable"]
    record.summarize(entry, END_TO_END)
    assert "check" not in entry and "gain" in entry


# a stand-in for perfbench/run.py: one metric, read from the tree it runs in
FAKE_RUN = """import json
with open("src/value.txt") as fh:
    value = float(fh.read())
print(json.dumps({"detail": {"environment": {"python": "stand-in"}}}))
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"requests_per_s": {"value": value}}}))
"""


def _commit(repo, value: str) -> str:
    (repo / "src" / "value.txt").write_text(value)
    git = ["git", "-C", str(repo), "-c", "user.name=bench", "-c",
           "user.email=bench@example.invalid", "-c", "commit.gpgsign=false"]
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", value], check=True)
    return subprocess.run(git + ["rev-parse", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()


def _bench_repo(tmp_path, run_py=FAKE_RUN):
    """A repository with a stand-in perfbench/run.py and two commits, whose
    src/value.txt reads 1.0 and 2.0."""
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "src").mkdir()
    (repo / "perfbench" / "run.py").write_text(run_py)
    (repo / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1,
         "end_to_end": [{"name": "requests_per_s", "better": "higher"}]}))
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    return repo, _commit(repo, "1.0"), _commit(repo, "2.0")


def test_each_side_runs_its_committed_files(tmp_path, monkeypatch):
    repo, base, change = _bench_repo(tmp_path)
    (repo / "src" / "value.txt").write_text("3.0")     # an uncommitted edit
    monkeypatch.chdir(repo)

    assert record.main(["--base", base, "--workload", "w", "--seeds", "5",
                        "--out", "BENCH_t.json"]) == 0
    with open(repo / "BENCH_t.json") as fh:
        written = json.load(fh)
    assert (written["base"]["commit"], written["change"]["commit"]) == (base, change)
    entry = written["workloads"]["w"]
    assert [[r["metrics"]["requests_per_s"] for r in entry["runs"][side]]
            for side in ("base", "change")] == [[1.0], [2.0]]
    assert entry["trace"] == {"base": {"requests_per_s": 1.0},
                              "change": {"requests_per_s": 2.0}}
    assert entry["trace_runs"] == {"seeds": [5], "first": ["base"],
                                   "base": [{"requests_per_s": 1.0}],
                                   "change": [{"requests_per_s": 2.0}]}

    dest = tmp_path / "extracted"
    record.extract(change, str(dest))
    assert (dest / "src" / "value.txt").read_text() == "2.0"
    assert not (dest / "BENCH_t.json").exists()


@pytest.mark.parametrize("value", ["1", None])
def test_environment_records_the_bytecode_setting_the_runs_inherit(
        tmp_path, monkeypatch, value):
    # the stand-in reports the flag its interpreter actually ran with
    fake = FAKE_RUN.replace('{"python": "stand-in"}',
                            '{"dont_write_bytecode": sys.flags.dont_write_bytecode}')
    repo, base, _ = _bench_repo(tmp_path, "import sys\n" + fake)
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    monkeypatch.chdir(repo)
    assert record.main(["--base", base, "--workload", "w", "--seeds", "5",
                        "--out", "BENCH_t.json"]) == 0
    with open(repo / "BENCH_t.json") as fh:
        runs = json.load(fh)["workloads"]["w"]["runs"]
    for side in ("base", "change"):
        assert runs[side][0]["environment"] == {
            "dont_write_bytecode": int(value is not None),
            "PYTHONDONTWRITEBYTECODE": value}


def test_three_traced_runs_a_side_alternate_and_give_the_medians(tmp_path,
                                                               monkeypatch):
    # the stand-in's metric is its tree's value times the seed, and each
    # run logs its side, seed and trace flag
    log = tmp_path / "runs.log"
    fake = FAKE_RUN.replace(
        "value = float(fh.read())",
        "value = float(fh.read())\n"
        "seed, trace = sys.argv[sys.argv.index('--seed') + 1], "
        "sys.argv[sys.argv.index('--trace') + 1]\n"
        f"with open({str(log)!r}, 'a') as fh:\n"
        "    fh.write(f'{value} {seed} {trace}\\n')\n"
        "value *= int(seed)")
    repo, base, _ = _bench_repo(tmp_path, "import sys\n" + fake)
    monkeypatch.chdir(repo)
    assert record.main(["--base", base, "--workload", "w", "--seeds", "5-8",
                        "--out", "BENCH_t.json"]) == 0
    traced = [line.split()[:2] for line in log.read_text().splitlines()
              if line.endswith(" 1")]
    # base first at seeds 5 and 7, the change first at seed 6
    assert traced == [["1.0", "5"], ["2.0", "5"], ["2.0", "6"], ["1.0", "6"],
                      ["1.0", "7"], ["2.0", "7"]]
    with open(repo / "BENCH_t.json") as fh:
        entry = json.load(fh)["workloads"]["w"]
    assert entry["trace"] == {"base": {"requests_per_s": 6.0},
                              "change": {"requests_per_s": 12.0}}
    assert entry["trace_runs"]["seeds"] == [5, 6, 7]
    assert entry["trace_runs"]["first"] == ["base", "change", "base"]
    assert [r["requests_per_s"] for r in entry["trace_runs"]["change"]] == [
        10.0, 12.0, 14.0]


# 1 - 2 P(Binomial(n, 1/2) < r) at the ranks median_interval picks
@pytest.mark.parametrize("n, ranks, coverage", [
    (5, [1, 5], 1 - 2 / 2 ** 5),            # no rank reaches 95 %
    (10, [2, 9], 1 - 2 * 11 / 2 ** 10),     # 97.9 %
    (20, [6, 15], 1 - 2 * 21700 / 2 ** 20),  # 95.9 %
])
def test_interval_takes_the_order_statistics_of_known_rank(n, ranks, coverage):
    ratios = [1.0 + ((7 * i) % n) / 100 for i in range(n)]   # shuffled
    got = record.median_interval(ratios)
    assert got["ratios"] == ratios
    assert (got["ranks"], got["coverage"]) == (ranks, coverage)
    assert (got["low"], got["high"]) == (1.0 + (ranks[0] - 1) / 100,
                                         1.0 + (ranks[1] - 1) / 100)
    assert got["median"] == pytest.approx(1.0 + (n - 1) / 200)


def test_interval_is_kept_beside_gain_and_check_at_any_pair_count():
    base = [10.0 + i for i in range(10)]
    entry = _entry(base, [b * 1.5 for b in base])
    record.summarize(entry, END_TO_END, BOUNDS)
    interval = entry["interval"]["requests_per_s"]
    assert interval["ratios"] == pytest.approx([1.5] * 10)
    assert set(entry) == {"runs", "summary", "gain", "check", "interval"}
    assert "xi.steps" not in entry["interval"]
    entry = _entry([10.0, 12.0], [11.0, 18.0])
    record.summarize(entry, END_TO_END)
    interval = entry["interval"]["requests_per_s"]
    assert (interval["low"], interval["high"], interval["ranks"],
            interval["coverage"]) == (1.1, 1.5, [1, 2], 0.5)
    assert "gain" not in entry and "check" not in entry


@pytest.mark.parametrize("name, low, high", [("BENCH_47.json", 0.77, 0.89),
                                             ("BENCH_50.json", 0.82, 1.27)])
def test_interval_from_the_stored_runs_of_a_pair_file(name, low, high):
    # the cli latency_p50_ms of a claimed gain and of an unresolved check
    with open(os.path.join(os.path.dirname(_PATH), os.pardir, name)) as fh:
        entry = json.load(fh)["workloads"]["cli"]
    record.summarize(entry, {"latency_p50_ms": "lower"})
    interval = entry["interval"]["latency_p50_ms"]
    assert (interval["low"], interval["high"]) == (
        pytest.approx(low, abs=0.005), pytest.approx(high, abs=0.005))
    assert interval["ranks"] == [2, 9]


def test_interval_splits_the_ratios_by_the_side_that_ran_first():
    entry = _entry([10.0] * 5, [11.0, 12.0, 13.0, 9.0, 8.0])
    entry["first"] = ["base", "change", "base", "change", "base"]
    record.summarize(entry, END_TO_END)
    assert entry["interval"]["requests_per_s"]["median_by_first"] == \
        pytest.approx({"base": 1.1, "change": 1.05})
    entry["first"] = ["base"] * 5
    record.summarize(entry, END_TO_END)
    assert entry["interval"]["requests_per_s"]["median_by_first"] == \
        pytest.approx({"base": 1.1})


@pytest.mark.parametrize("workload, base_first, change_first", [
    ("montecarlo", 1.152, 0.809), ("cli", 1.180, 1.061)])
def test_setup_s_of_bench_50_by_the_side_that_ran_first(workload, base_first,
                                                        change_first):
    # the side that runs second reads setup_s higher
    with open(os.path.join(os.path.dirname(_PATH), os.pardir,
                           "BENCH_50.json")) as fh:
        entry = json.load(fh)["workloads"][workload]
    record.summarize(entry, {"setup_s": "lower"})
    assert entry["interval"]["setup_s"]["median_by_first"] == {
        "base": pytest.approx(base_first, abs=5e-4),
        "change": pytest.approx(change_first, abs=5e-4)}


def test_layer_ratios_read_each_traced_run_against_the_reference():
    # the reference doubles on the change's second run, and the layer with it
    traced = {"base": [{"ref": 2.0, "a": 1.0}, {"ref": 2.0, "a": 1.2}],
              "change": [{"ref": 2.0, "a": 0.8}, {"ref": 4.0, "a": 1.6}]}
    assert record.layer_ratios(traced, "ref", ["a"]) == {
        "reference": "ref", "layers": {"a": {
            "base": [0.5, 0.6], "change": [0.4, 0.4],
            "median": {"base": 0.55, "change": 0.4}}}}


def test_layer_ratios_from_the_stored_runs_of_bench_50():
    # montecarlo simulate.stats.self_s against simulate.self_s, which no
    # line of that change runs: lower on the change in every pair
    with open(os.path.join(os.path.dirname(_PATH), os.pardir,
                           "BENCH_50.json")) as fh:
        traced = json.load(fh)["workloads"]["montecarlo"]["trace_runs"]
    ratios = record.layer_ratios(traced, "simulate.self_s",
                                 ["simulate.stats.self_s"])["layers"][
        "simulate.stats.self_s"]
    assert ratios["base"] == pytest.approx([0.141, 0.151, 0.139], abs=5e-4)
    assert ratios["change"] == pytest.approx([0.130, 0.138, 0.131], abs=5e-4)
    assert all(c < b for b, c in zip(ratios["base"], ratios["change"]))


def test_reference_option_writes_the_layer_ratios(tmp_path, monkeypatch):
    fake = FAKE_RUN.replace(
        '"metrics": {"requests_per_s": {"value": value}}',
        '"metrics": {"requests_per_s": {"value": value},'
        ' "a.self_s": {"value": value}, "b.self_s": {"value": 2.0},'
        ' "a.calls": {"value": 3.0}}')
    repo, base, _ = _bench_repo(tmp_path, fake)
    spec = json.loads((repo / "BENCHMARK.json").read_text())
    spec["per_layer"] = [{"name": "a.self_s", "unit": "s"},
                         {"name": "b.self_s", "unit": "s"},
                         {"name": "a.calls", "unit": "count"}]
    (repo / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.chdir(repo)
    argv = ["--base", base, "--workload", "w", "--seeds", "5-6",
            "--out", "BENCH_t.json"]
    with pytest.raises(SystemExit):
        record.main(argv + ["--reference", "a.calls"])
    assert record.main(argv + ["--reference", "b.self_s"]) == 0
    with open(repo / "BENCH_t.json") as fh:
        entry = json.load(fh)["workloads"]["w"]
    assert entry["trace_ratio"] == {"reference": "b.self_s", "layers": {
        "a.self_s": {"base": [0.5, 0.5], "change": [1.0, 1.0],
                     "median": {"base": 0.5, "change": 1.0}}}}
    assert entry["interval"]["requests_per_s"]["ratios"] == [2.0, 2.0]
