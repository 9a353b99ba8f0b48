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
