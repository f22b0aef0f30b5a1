"""The benchmark tracer's targets must name live classt functions."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # The tracer reads a method from its class's own namespace and a
    # function from its module, so a renamed or deleted target fails here
    # rather than in a traced run.
    tracing = load_tracing()
    missing = []
    for mod_name, names in tracing.TARGETS.items():
        module = importlib.import_module(f"classt.{mod_name}")
        for name in names:
            cls_name, _, attr = name.rpartition(".")
            owner = getattr(module, cls_name, None) if cls_name else module
            if owner is None or not callable(vars(owner).get(attr)):
                missing.append(f"{mod_name}.{name}")
    assert missing == []
    traced = {f"{mod}.{name}" for mod, names in tracing.TARGETS.items() for name in names}
    assert set(tracing.SELF_TIME_ONLY) <= traced
