"""The names and argument positions the benchmark's tracer relies on.

``bench/spans.py`` wraps scarr functions by name and reads some of their
arguments by position (``--trace 1`` and ``--smoke``).  A rename or a
reordered parameter would break the traced benchmark without failing any
other test.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

#: Argument each ``spans.NOTES`` entry reads: (position, parameter name).
NOTED_ARGUMENTS = {
    "covariates.site_static_covariates": (1, "site"),
    "covariates.ring_ttv": (1, "sources"),
    "step1.cov_matrix": (1, "coords"),
    "prediction.c_tilde_for_day": (0, "fit"),
}


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _function(qualified):
    mod, name = qualified.split(".")
    return getattr(importlib.import_module(f"scarr.{mod}"), name)


def test_every_wrapped_name_resolves(spans):
    for mod, names in spans.WRAPPED.items():
        for name in names:
            assert callable(_function(f"{mod}.{name}")), f"scarr.{mod}.{name}"


def test_noted_argument_positions(spans):
    assert set(spans.NOTES) == set(NOTED_ARGUMENTS)
    for qualified, (pos, name) in NOTED_ARGUMENTS.items():
        params = list(inspect.signature(_function(qualified)).parameters)
        assert params[pos] == name, qualified
