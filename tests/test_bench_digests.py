"""bench/digests.py's compare: which command lines differ between two sides."""

import importlib
import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")

GREEN = ["green", "--config", "WORKDIR/config-periodic.yaml", "--out",
         "WORKDIR/out-0.csv", "--t", "5", "--k", "3"]
REJECTED = ["green", "--config", "WORKDIR/config-unknown-key.yaml", "--out",
            "WORKDIR/out-1.csv", "--t", "5", "--k", "3"]


@pytest.fixture
def digests(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    return importlib.import_module("digests")


def test_equal_records_differ_nowhere(digests):
    records = [[1, GREEN, 0, "ab"], [1, REJECTED, 2, None], [2, GREEN, 0, "cd"]]
    assert digests.compare(records, list(reversed(records))) == []


def test_each_kind_of_difference_is_listed(digests):
    base = [[1, GREEN, 0, "ab"], [1, REJECTED, 2, None], [2, GREEN, 0, "cd"],
            [3, GREEN, 0, "ef"]]
    change = [[1, GREEN, 0, "ab"], [1, REJECTED, 1, None], [2, GREEN, 0, "x"],
              [4, GREEN, 0, "ef"]]
    lines = digests.compare(base, change)
    assert len(lines) == 4
    assert lines[0].startswith("seed 1: green --config WORKDIR/config-unknown-key")
    assert lines[0].endswith("base (2, None), change (1, None)")
    assert lines[1].endswith("base (0, 'cd'), change (0, 'x')")
    assert lines[2].startswith("seed 3: ") and lines[2].endswith("change None")
    assert lines[3].startswith("seed 4: ") and "base None" in lines[3]


def test_a_differing_line_says_how_far_its_output_moved(digests, tmp_path):
    header = "t,k,gamma,converged\n"
    texts = {
        "base": header + "5,0,1.5,true\n5,1,0.25,false\n5,2,-0.5,true\n",
        "change": header + "5,0,1.5,true\n5,1,0.2500001,true\n5,2,-0.6,true\n",
        "flags": header + "5,0,1.5,false\n5,1,0.25,false\n5,2,-0.5,true\n",
        "short": header + "5,0,1.5,true\n",
        "inf": header + "5,0,inf,true\n5,1,0.25,false\n5,2,-0.5,true\n",
    }
    paths = {}
    for name, text in texts.items():
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text(text)

    def record(seed, name):
        return [seed, GREEN, 0, name, str(paths[name])]
    base = [record(seed, "base") for seed in (1, 2, 3, 4)]
    change = [record(1, "change"), record(2, "flags"), record(3, "short"),
              record(4, "inf")]
    lines = digests.compare(base, change)
    assert [line.split("; ")[1] for line in lines] == [
        "2 rows differ, largest relative change 0.167",
        "1 rows differ, no numeric field moved",
        "2 rows differ, no numeric field moved",
        "1 rows differ, largest relative change inf"]
    # a record without a kept file says nothing of the rows
    assert digests.compare(base, [change[0][:4]] + change[1:])[0].endswith(
        "base (0, 'base'), change (0, 'change')")
    assert digests.moved(texts["base"], texts["base"]) == (0, None)
