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
