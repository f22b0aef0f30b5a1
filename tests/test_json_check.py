"""The cross-version JSON check must run against the current package."""

import importlib.util
from pathlib import Path

JSON_CHECK = Path(__file__).resolve().parent.parent / "tools" / "json_check.py"


def test_json_check_passes(capsys):
    # tools/pythons.sh runs this script on interpreters without pytest; a
    # renamed writer or decoder fails here first.
    spec = importlib.util.spec_from_file_location("json_check", JSON_CHECK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main() == 0
    assert capsys.readouterr().out.startswith("json check: 2022 values ")
