"""Every layer the traced benchmark runner wraps still exists.

perfbench/traced.py names its layers as `module.attribute[.attribute]`
strings; a deleted or renamed function would only show up as an
`absent` line in a traced run.  This resolves each name the same way
the runner does, so a rename fails here first."""

import importlib
import importlib.util
import pathlib

TRACED = pathlib.Path(__file__).resolve().parent.parent / "perfbench" \
    / "traced.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_layer_resolves():
    layers = _layers()
    assert layers
    for target, _, _ in layers:
        module_name, _, path = target.partition(".")
        owner = importlib.import_module("presslab." + module_name)
        *outer, name = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert name in vars(owner), target
