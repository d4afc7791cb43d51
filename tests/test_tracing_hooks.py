"""The traced benchmark run (``perfbench/tracing.py``) wraps gdr functions
by module attribute. Check that every one it names still exists, so a
change to gdr cannot silently drop a per-layer metric."""
import importlib
import importlib.util
import inspect
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py")


@pytest.fixture(scope="module")
def tracing():
    if not os.path.exists(TRACING):
        pytest.skip("perfbench/ is not part of this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists(tracing):
    hooks = tracing.SPANNED + tracing.SPANNED_GENERATORS + tracing.COUNTED
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, _ in hooks
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []


def test_spanned_generators_are_generator_functions(tracing):
    for module_name, attr, _ in tracing.SPANNED_GENERATORS:
        assert inspect.isgeneratorfunction(getattr(importlib.import_module(module_name), attr))
