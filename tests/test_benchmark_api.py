"""The benchmark under perfbench/ reaches into the package by name; these
tests fail when a public-API change leaves one of those names dangling or
its probes unable to run."""

import ast
import importlib.util
import inspect
import math
from pathlib import Path

import pytest

import sawkit

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve(tracing):
    missing = [
        f"{module.__name__}.{name}"
        for module, name, _, _ in tracing.TARGETS
        if not callable(getattr(module, name, None))
    ]
    assert not missing, f"traced functions gone: {missing}"


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return [node.id, *reversed(parts)]
    return None


def test_single_point_probe_entry_points_resolve(tracing):
    tree = ast.parse(inspect.getsource(tracing.single_point_probes))
    chains = {
        tuple(chain)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and (chain := _dotted(node)) is not None
        and chain[0] == "sawkit"
    }
    assert chains, "no sawkit entry points found in single_point_probes"
    for chain in chains:
        obj = sawkit
        for attr in chain[1:]:
            assert hasattr(obj, attr), f"{'.'.join(chain)} no longer resolves"
            obj = getattr(obj, attr)


def test_single_point_probes_run(tracing, stack_1a):
    # the --trace 1 probes call the public entry points, so a change of
    # their contract shows here and not only in a traced benchmark run
    probes = tracing.single_point_probes(stack_1a)
    assert len(probes) == 3
    assert all(math.isfinite(us) and us > 0 for us in probes.values()), probes
