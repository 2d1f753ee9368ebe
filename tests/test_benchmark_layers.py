"""The benchmark's layer trace wraps girthlab functions by name, and counts
a name it cannot find in ``trace.missing_fns`` instead of failing. So a
function removed or renamed in girthlab while still on the wrap list would
pass every other test here; this one fails instead."""

import importlib
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_layers():
    """perfbench/layers.py, loaded by file path: perfbench is no package."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", ROOT / "perfbench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_a_girthlab_callable():
    missing = []
    for layer, names in load_layers().WRAPPED.items():
        module = importlib.import_module(f"girthlab.{layer}")
        missing += [f"{layer}.{name}" for name in names
                    if not callable(getattr(module, name, None))]
    assert missing == []
