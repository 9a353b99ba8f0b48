"""bench/cold.py: the cases it runs and the pair file it writes, with the
runs stubbed, so no interpreter is started or timed."""

import importlib
import json
import os
import subprocess

import pytest

import tvar2.config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")

README = """# a stand-in README

```python
import tvar2
```

```sh
tvar2 green  --config model.yaml --t 10 --k 4
tvar2 verify --config model.yaml
```

```yaml
schema_version: 1
schedule:
  kind: constant
```

```yaml
schedule:
  kind: periodic
```
"""


@pytest.fixture
def cold(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    return importlib.import_module("cold")


def test_cases_are_the_imports_and_the_readme_commands(cold):
    named, config = cold.cases(README)
    assert config == "schedule:\n  kind: periodic\n"
    assert named == {
        "import": ["-c", "import tvar2"],
        "montecarlo-setup": ["-c", cold.SETUP],
        "cli-setup": ["-c", cold.CLI_SETUP],
        "green --config model.yaml --t 10 --k 4":
            ["-c", cold.SCRIPT, "green", "--config", "model.yaml", "--t", "10",
             "--k", "4"],
        "verify --config model.yaml": ["-c", cold.SCRIPT, "verify", "--config",
                                       "model.yaml"],
        "green --config model.yaml --t 10 --k 5000": ["-c", cold.SCRIPT,
                                                      *cold.KERNEL],
    }


def test_the_repository_readme_gives_its_eight_commands(cold):
    with open(os.path.join(ROOT, "README.md")) as fh:
        named, config = cold.cases(fh.read())
    commands = [case[2:] for case in named.values() if case[1] == cold.SCRIPT]
    assert len(commands) == 8 + 1 and len(named) == 12
    assert commands[-1] == cold.KERNEL
    assert all(argv[1:3] == ["--config", "model.yaml"] for argv in commands)
    schedule = tvar2.config.load(config)[0]
    assert isinstance(schedule, tvar2.PeriodicSchedule) and schedule.period == 4


def _commit(repo, value: str) -> str:
    (repo / "src" / "value.txt").write_text(value)
    git = ["git", "-C", str(repo), "-c", "user.name=bench", "-c",
           "user.email=bench@example.invalid", "-c", "commit.gpgsign=false"]
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", value], check=True)
    return subprocess.run(git + ["rev-parse", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()


def test_pair_file_alternates_sides_and_applies_the_claim_rule(
        cold, tmp_path, monkeypatch):
    # each side's stand-in time is the value its committed src/value.txt
    # holds, except verify, which reads the same on both sides
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "README.md").write_text(README)
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    base, change = _commit(repo, "0.10"), _commit(repo, "0.06")
    (repo / "src" / "value.txt").write_text("9.0")      # an uncommitted edit
    calls, trees = [], {}

    def stub(argv, env, cwd):
        src = env["PYTHONPATH"].split(os.pathsep)[0]
        with open(os.path.join(src, "value.txt")) as fh:
            value = float(fh.read())
        with open(os.path.join(cwd, "model.yaml")) as fh:
            assert fh.read() == "schedule:\n  kind: periodic\n"
        side = os.path.basename(os.path.dirname(src)).split("-")[1]
        setting = next(name for name, flag in cold.SETTINGS.items()
                       if env.get("PYTHONDONTWRITEBYTECODE") == flag)
        trees.setdefault((side, setting), set()).add(src)
        calls.append((side, setting, argv[1:]))
        return 0.05 if "verify" in argv else value + 1e-5 * len(calls)

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")   # not inherited
    monkeypatch.setattr(cold, "time_run", stub)
    monkeypatch.chdir(repo)
    assert cold.main(["--base", base, "--out", "COLD_t.json"]) == 0
    with open(repo / "COLD_t.json") as fh:
        written = json.load(fh)

    named, _ = cold.cases(README)
    pairs, settings = cold.MIN_PAIRS, list(cold.SETTINGS)
    # each side and setting runs in a tree of its own
    assert sorted(trees) == [(side, setting) for side in ("base", "change")
                             for setting in settings]
    assert len(set.union(*trees.values())) == 4
    assert all(len(srcs) == 1 for srcs in trees.values())
    # the cli configs written once, one untimed run of every case per side
    # and setting, then the pairs
    assert calls[0] == ("change", "bytecode", ["-c", cold.PREPARE])
    del calls[0]
    per_pair = 2 * len(settings) * len(named)
    assert len(calls) == per_pair * (1 + pairs)
    assert calls[:per_pair] == [(side, setting, case)
                                for side in ("base", "change")
                                for setting in settings
                                for case in named.values()]
    assert calls[per_pair:per_pair + 4] == [
        ("base", "bytecode", named["import"]),
        ("change", "bytecode", named["import"]),
        ("base", "no bytecode", named["import"]),
        ("change", "no bytecode", named["import"])]
    assert calls[2 * per_pair][0] == "change"
    assert written["first"] == ["base", "change"] * (pairs // 2)
    assert (written["base"]["commit"], written["change"]["commit"]) == (base, change)
    assert written["settings"] == cold.SETTINGS
    keys = {f"{setting}: {name}" for name in named for setting in settings}
    runs = written["runs"]
    assert [len(runs[side]) for side in ("base", "change")] == [pairs, pairs]
    assert all(run["metrics"].keys() == keys
               for side in runs for run in runs[side])
    gain = written["gain"]
    assert gain.keys() == keys
    for setting in settings:
        assert written["summary"][f"{setting}: import"]["base"][
            "median"] == pytest.approx(0.10, abs=0.01)
        imported = gain[f"{setting}: import"]
        assert (imported["wins"], imported["claimable"]) == (pairs, True)
        assert imported["median_ratio"] == pytest.approx(0.6, abs=0.02)
        verify = gain[f"{setting}: verify --config model.yaml"]
        assert (verify["wins"], verify["losses"], verify["claimable"]) == (
            0, 0, False)
        interval = written["interval"][f"{setting}: import"]
        assert len(interval["ratios"]) == pairs
        assert (interval["ranks"], interval["coverage"]) == ([2, 9], 1002 / 1024)
        assert 0.58 < interval["low"] <= interval["median"] <= interval[
            "high"] < 0.62
        assert written["interval"][f"{setting}: verify --config model.yaml"][
            "ratios"] == [1.0] * pairs
    assert written["interval"].keys() == keys
    assert "check" not in written
