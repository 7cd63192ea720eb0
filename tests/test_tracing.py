"""The benchmark tracer's layer list names functions that exist."""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_layer_resolves():
    # a deleted or renamed layer would make the traced benchmark fail to start
    layers = load_tracing().LAYERS
    assert layers
    for module, func, stem, kind in layers:
        mod = importlib.import_module(f"siegelscan.{module}")
        assert callable(getattr(mod, func, None)), f"siegelscan.{module}.{func}"
        assert kind in ("span", "count"), stem
