"""render_json writes the bytes of ``json.dumps(report, indent=2)`` and a newline.

The command cases, corpus rows, edge values and unwritable values live in
``tools/json_check.py``, whose ``main`` ``tests/test_json_check.py`` runs;
this test draws trees with the characters of its ``SPECIAL`` table.
"""

import importlib.util
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from classt.reports import render_json

_spec = importlib.util.spec_from_file_location(
    "json_check", Path(__file__).resolve().parent.parent / "tools" / "json_check.py")
json_check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(json_check)


def dumps(value):
    return json.dumps(value, indent=2) + "\n"


# Escapes and code points json.dumps treats specially, drawn often.
SPECIAL = st.sampled_from(json_check.SPECIAL)
TEXT = st.text(st.one_of(st.characters(exclude_categories=()), SPECIAL), max_size=8)
SCALARS = st.one_of(
    TEXT,
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64)),
    st.booleans(),
    st.none(),
)
TREES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
    ),
    max_leaves=12,
)


@settings(derandomize=True, database=None, max_examples=200)
@given(TREES)
def test_json_trees_match_json_dumps(tree):
    assert render_json(tree) == dumps(tree)
