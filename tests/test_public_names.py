"""The package's public surface: its error types and its export list."""

import types

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
