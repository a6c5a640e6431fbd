"""The names and argument positions the benchmark's tracer relies on.

``bench/spans.py`` wraps scarr functions by name and reads some of their
arguments by position (``--trace 1`` and ``--smoke``).  A rename or a
reordered parameter would break the traced benchmark without failing any
other test.
"""

import importlib
import importlib.util
import inspect
import shutil
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


def test_every_traced_command_calls_ring_ttv(tmp_path, monkeypatch):
    """``spans.summarize`` reads the notes of ``covariates.ring_ttv`` in every
    traced command, so each command of the chain must call it at least once:
    ``ring_ttv`` is the one traffic pass, and a path that bypasses it breaks
    ``--trace 1`` runs."""
    from scarr import covariates
    from scarr.cli import main

    data = tmp_path / "mini"
    shutil.copytree(Path(__file__).resolve().parents[1] / "data" / "mini", data)
    calls, original = [], covariates.ring_ttv

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(covariates, "ring_ttv", counted)
    for command in ("features", "fit-step1", "fit-step2", "predict", "validate"):
        calls.clear()
        assert main([command, str(data)]) == 0, command
        assert calls, f"{command} never calls covariates.ring_ttv"
