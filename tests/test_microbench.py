"""The layer microbenchmark tool must run against the current package."""

import importlib.util
from pathlib import Path

MICROBENCH = Path(__file__).resolve().parent.parent / "tools" / "microbench.py"


def test_every_microbenchmark_case_runs_once():
    # A primitive that is renamed, deleted or given another signature
    # fails here rather than the next time someone times the layers.
    spec = importlib.util.spec_from_file_location("microbench", MICROBENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    cases = module.cases()
    names = [name for name, _ in cases]
    assert len(names) == len(set(names))
    for name, fn in cases:
        assert fn() is not None, name
