"""render_json writes the bytes of ``json.dumps(report, indent=2)`` and a newline.

The command cases, corpus rows, edge values and unwritable values live in
``tools/json_check.py``; these tests run them one table at a time.
"""

import importlib.util
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classt.reports import render_json, run_case, run_corpus

_spec = importlib.util.spec_from_file_location(
    "json_check", Path(__file__).resolve().parent.parent / "tools" / "json_check.py")
json_check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(json_check)


def dumps(value):
    return json.dumps(value, indent=2) + "\n"


def test_every_command_report_matches_json_dumps(tmp_path):
    for kind, params in json_check.COMMAND_CASES:
        report = run_case(kind, params, 11).data
        assert render_json(report) == dumps(report), (kind, params)
    path = tmp_path / "cases.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in json_check.CORPUS_ROWS) + "\n", encoding="utf-8")
    corpus = run_corpus(str(path), 11)
    assert corpus.exit_code == 1
    assert corpus.outputs["failed_ids"] == ["énumère-2-2", "bad-kind"]
    assert render_json(corpus.data) == dumps(corpus.data)


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


def test_fixed_edge_values_match_json_dumps():
    for value in json_check.EDGE_VALUES:
        assert render_json(value) == dumps(value), value


def test_non_str_key_raises_type_error():
    # json.dumps would write these keys as text; render_json refuses them.
    for value in json_check.UNWRITABLE:
        with pytest.raises(TypeError):
            render_json(value)
