"""The traced benchmark run (``perfbench/tracing.py``) wraps gdr functions
by module attribute. Check that every one it names still exists, so a
change to gdr cannot silently drop a per-layer metric, and that every gdr
name the other benchmark scripts use exists, so a change to gdr cannot
break a script that no test runs (``perfbench/make_goldens.py``), or
change the memo seeding behind its witten-deep pool unseen."""
import ast
import glob
import importlib
import importlib.util
import inspect
import json
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
TRACING = os.path.join(PERFBENCH, "tracing.py")


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


def _gdr_names_used(path):
    """(module, attribute) for every ``from gdr.m import name`` and every
    ``m.attr`` on a module bound by ``from gdr import m`` in a script."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    modules, used = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "gdr":
            modules.update({alias.asname or alias.name: f"gdr.{alias.name}" for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gdr."):
            used += [(node.module, alias.name) for alias in node.names]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            used.append((modules[node.value.id], node.attr))
    return used


def test_every_gdr_name_the_benchmark_uses_exists():
    scripts = sorted(glob.glob(os.path.join(PERFBENCH, "*.py")))
    if not scripts:
        pytest.skip("perfbench/ is not part of this checkout")
    used = {name for path in scripts for name in _gdr_names_used(path)}
    assert ("gdr.correlators", "load_cache_into_memo") in used
    missing = sorted(f"{m}.{attr}" for m, attr in used if not hasattr(importlib.import_module(m), attr))
    assert missing == []


def test_make_goldens_reproduces_the_quick_witten_pool(monkeypatch):
    # witten_pool seeds the memo with store_cache and load_cache_into_memo
    golden = os.path.join(PERFBENCH, "golden", "quick", "witten-deep.json")
    if not os.path.exists(golden):
        pytest.skip("perfbench/ is not part of this checkout")
    monkeypatch.syspath_prepend(PERFBENCH)
    make_goldens = importlib.import_module("make_goldens")
    workloads = importlib.import_module("workloads")
    with open(golden, encoding="utf-8") as handle:
        expected = json.load(handle)["pool"]
    assert len(expected) == 50
    assert make_goldens.witten_pool(workloads.SIZES["quick"])["pool"] == expected
