"""Every name the benchmark's tracer wraps must exist in the program.

The tracer records a missing name instead of failing, so a refactor that
drops or renames a traced function would only show up as missing per-layer
metrics. This test catches it in the main suite.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("span", sorted(TARGETS))
def test_traced_names_resolve(span):
    for mod_name, attr in TARGETS[span]:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), f"{mod_name}.{attr}"
