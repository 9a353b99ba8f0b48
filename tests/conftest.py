import numpy as np
import pytest
import yaml

import tvar2.config
import tvar2.moments
from tvar2 import CoefficientTuple, GenericSchedule


def random_schedule(rng, t_lo, t_hi, coeff_range=1.0, sigma2=None):
    """Schedule backed by a frozen table of random coefficients.

    Times outside [t_lo, t_hi] raise, so tests cannot silently read
    beyond the window they asked for.
    """
    table = {}
    for t in range(t_lo, t_hi + 1):
        s2 = sigma2 if sigma2 is not None else float(rng.uniform(0.2, 2.0))
        table[t] = CoefficientTuple(
            float(rng.uniform(-coeff_range, coeff_range)),
            float(rng.uniform(-coeff_range, coeff_range)),
            float(rng.uniform(-coeff_range, coeff_range)),
            s2)
    return GenericSchedule(lambda t: table[t])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def yaml_pairs(monkeypatch):
    """Iterate over the YAML pairs tvar2.config may read and write through:
    its own loader and dumper (libyaml's when PyYAML has it), then PyYAML's
    pure-Python pair, patched in for the second pass and for the rest of
    the test."""
    def passes():
        yield "default"
        monkeypatch.setattr(tvar2.config, "_LOADER", yaml.SafeLoader)
        monkeypatch.setattr(tvar2.config, "_DUMPER", yaml.SafeDumper)
        yield "pure-python"
    return passes


@pytest.fixture
def series_only(monkeypatch):
    """Answer every schedule's moments with the truncated series, as on a
    schedule without exact season moments: the public functions then call
    ``_series_mean`` and ``_series_autocovariance``, and a tiled schedule
    keeps its season cache and array series."""
    monkeypatch.setattr(tvar2.moments, "_season_moments", lambda schedule: None)
