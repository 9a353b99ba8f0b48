"""bench/coverage.py's tracer: what a run executes is not listed."""

import importlib
import importlib.util
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")

MODULE = '''\
def called(x):
    return x + 1


def never(x):
    y = x * 2
    return y
'''


@pytest.fixture
def coverage():
    # loaded from its path: the name would find a coverage package first
    spec = importlib.util.spec_from_file_location(
        "bench_coverage", os.path.join(BENCH, "coverage.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_function_never_called_is_listed(coverage, tmp_path, monkeypatch):
    package = tmp_path / "throwaway"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "throwaway.mod", raising=False)
    trace_before = sys.gettrace()

    def run():
        return importlib.import_module("throwaway.mod").called(1)

    result, missed = coverage.unexecuted(str(package), run)
    assert result == 2
    mod = str(package / "mod.py")
    # the body of never (lines 6 and 7) is listed; the defs, run at
    # import, and the body of called are not
    assert missed == [(mod, 6), (mod, 7)]
    assert sys.gettrace() is trace_before


TYPED = '''\
import typing
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from collections import OrderedDict
    from fractions import (
        Fraction)
else:
    VALUE = 1
if typing.TYPE_CHECKING:
    import decimal
'''


def test_type_checking_bodies_are_not_statements(coverage, tmp_path):
    # the bodies (lines 5 to 7, and 11) run only under a type checker; the
    # tests and the else branch run
    path = tmp_path / "typed.py"
    path.write_text(TYPED)
    lines = coverage.statement_lines(str(path))
    assert {1, 2, 4, 9, 10} <= lines
    assert not lines & {5, 6, 7, 11}


MAIN = '''\
import sys


def main():
    return 0


if __name__ == "__main__":
    sys.exit(main())
elif __name__ != "__main__":
    NAME = __name__
if __name__ == "other":
    OTHER = 1
'''


def test_main_program_bodies_are_not_statements(coverage, tmp_path):
    # the body of the __main__ block (line 9) runs only as a program of its
    # own; the test itself, the elif branch and any other test on __name__
    # run on import
    path = tmp_path / "program.py"
    path.write_text(MAIN)
    lines = coverage.statement_lines(str(path))
    assert {1, 4, 5, 8, 10, 11, 12, 13} <= lines
    assert 9 not in lines
