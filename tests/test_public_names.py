"""The package's public surface: its error types, its export list and the
README's library usage."""

import ast
import types
from pathlib import Path

import classt
from classt import errors


def test_errors_defines_three_classes():
    defined = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and value.__module__ == errors.__name__
    }
    assert defined == {"ClassTError", "BadInput", "ConditionViolated"}
    assert issubclass(errors.BadInput, errors.ClassTError)
    assert issubclass(errors.ConditionViolated, errors.ClassTError)
    assert not issubclass(errors.ConditionViolated, errors.BadInput)


def test_all_lists_every_public_name():
    public = {
        name
        for name, value in vars(classt).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(classt.__all__) == len(set(classt.__all__))
    assert set(classt.__all__) == public


def test_readme_library_usage_shows_what_it_computes():
    # Each expression statement is followed by its repr: as a comment at the
    # end of its last line, or alone on the next line.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library usage", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    shown = []
    for stmt in ast.parse(block).body:
        code = ast.get_source_segment(block, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        inline = lines[stmt.end_lineno - 1].partition("#")[2]
        after = lines[stmt.end_lineno].strip() if stmt.end_lineno < len(lines) else ""
        comment = inline or after.removeprefix("#")
        shown.append((code, repr(eval(code, namespace)), comment.strip()))
    assert len(shown) == 7
    for code, got, comment in shown:
        assert got == comment, code
