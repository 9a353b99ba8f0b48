"""The test oracles of tvar2._oracles: their guards, and that each has one
implementation wherever the package binds its name."""

import importlib
import os

import pytest

import tvar2
import tvar2._oracles as oracles
import tvar2.blockdet
import tvar2.cli
import tvar2.solution
from tvar2 import BlockSpec, GenericSchedule
from tvar2._oracles import (ORACLE_CAP, OracleCapError, assemble_block_matrix,
                            block_determinant_oracle, forward_recursion,
                            fundamental_matrix,
                            particular_solution_determinant_oracle,
                            second_fundamental_matrix, xi_determinant_oracle,
                            xi_second_determinant_oracle)

XI = importlib.import_module("tvar2.xi")

# the oracle names each module re-exports
REEXPORTS = {
    XI: ("ORACLE_CAP", "OracleCapError", "fundamental_matrix",
         "second_fundamental_matrix", "xi_determinant_oracle",
         "xi_second_determinant_oracle"),
    tvar2.solution: ("forward_recursion",
                     "particular_solution_determinant_oracle"),
    tvar2.blockdet: ("ORACLE_CAP", "assemble_block_matrix",
                     "block_determinant_oracle"),
}
NAMES = sorted({name for names in REEXPORTS.values() for name in names})

T, OVER = 5, ORACLE_CAP + 1
CAP = f"oracle cap {ORACLE_CAP} exceeded"


def _unread_schedule():
    """A schedule that fails the test if any of its times is read."""
    def fn(t):
        raise AssertionError(f"schedule read at t={t}")
    return GenericSchedule(fn)


def _spec(k):
    # BlockSpec itself refuses a total of 0, before any oracle sees it
    return BlockSpec(k, (), ())


DETERMINANT_ORACLES = {
    "xi": lambda s, k: xi_determinant_oracle(s, T, k),
    "xi-second": lambda s, k: xi_second_determinant_oracle(s, T, k),
    "particular": lambda s, k: particular_solution_determinant_oracle(
        s, T, k, [0.0] * k),
    "assemble-block": lambda s, k: assemble_block_matrix(s, T, _spec(k)),
    "block": lambda s, k: block_determinant_oracle(s, T, _spec(k)),
}
ZERO_SIZE = {"assemble-block": "block boundaries must be strictly increasing",
             "block": "block boundaries must be strictly increasing"}

GUARDS = [
    *[pytest.param(lambda s, f=f: f(s, 0), ValueError,
                   ZERO_SIZE.get(name, "oracle requires k >= 1"),
                   id=f"{name}-k0")
      for name, f in DETERMINANT_ORACLES.items()],
    *[pytest.param(lambda s, f=f: f(s, OVER), OracleCapError, CAP,
                   id=f"{name}-over-cap")
      for name, f in DETERMINANT_ORACLES.items()],
    pytest.param(lambda s: particular_solution_determinant_oracle(
        s, T, 3, [0.0] * 4), ValueError, "expected 3 innovations, got 4",
        id="particular-innovations"),
    pytest.param(lambda s: forward_recursion(s, T, 3, (0.0, 0.0), [0.0] * 2),
                 ValueError, "expected 3 innovations, got 2",
                 id="forward-innovations"),
    pytest.param(lambda s: forward_recursion(s, T, -1, (0.0, 0.0), []),
                 ValueError, "k must be >= 0", id="forward-k-negative"),
    pytest.param(lambda s: fundamental_matrix(s, T, 0), ValueError,
                 "k must be >= 1", id="matrix-k0"),
    pytest.param(lambda s: second_fundamental_matrix(s, T, 0), ValueError,
                 "k must be >= 1", id="second-matrix-k0"),
]


@pytest.mark.parametrize("call, error, match", GUARDS)
def test_oracle_guards_raise_before_reading_the_schedule(call, error, match):
    with pytest.raises(error, match=match):
        call(_unread_schedule())


def test_each_oracle_has_one_implementation():
    for module, names in REEXPORTS.items():
        for name in names:
            assert hasattr(module, name), (module.__name__, name)
    for module in (tvar2, XI, tvar2.solution, tvar2.blockdet, tvar2.cli):
        for name in NAMES:
            if hasattr(module, name):
                assert getattr(module, name) is getattr(oracles, name), (
                    module.__name__, name)
    # no module but the oracles calls LAPACK, whose kernel is picked by CPU
    package = os.path.dirname(oracles.__file__)
    for filename in sorted(os.listdir(package)):
        if filename.endswith(".py") and filename != "_oracles.py":
            with open(os.path.join(package, filename)) as fh:
                assert "linalg" not in fh.read(), filename
