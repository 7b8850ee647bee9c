"""The benchmark tracer (`perfbench/spans.py`) looks program functions up by
name; a renamed or deleted one would break the traced benchmark run. These
checks load its tables by path and resolve every name against the package."""

import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

from impatience.domain import RandomizedLog

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()


TRACED = SPANS.SPANNED + SPANS.COUNTED


@pytest.mark.parametrize("layer,name", TRACED, ids=[f"{layer}.{name}" for layer, name in TRACED])
def test_traced_name_resolves(layer, name):
    assert callable(getattr(importlib.import_module(f"impatience.{layer}"), name))


def test_log_arrays_is_a_cached_property():
    assert isinstance(RandomizedLog.__dict__["arrays"], functools.cached_property)
