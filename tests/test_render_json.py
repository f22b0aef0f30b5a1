"""render_json writes the bytes of ``json.dumps(report, indent=2)`` and a newline."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classt.reports import render_json, run_case, run_corpus


def dumps(value):
    return json.dumps(value, indent=2) + "\n"


# Each command's parameters, as a corpus row or the command line gives them.
COMMAND_CASES = [
    ("classify", {"order": 18, "weights": [1, 5]}),
    ("classify", {"order": 7, "weights": [1, 3]}),
    ("enumerate", {"d": 2, "n": 3, "m": 2, "c": 2}),
    ("build-cyclic", {"d": 2, "n": 3, "m": 2, "c": 2, "a": 7, "roots": "1:1,2:1"}),
    # Fails the action and div conditions, so the model is not built.
    ("build-cyclic", {"d": 2, "n": 3, "m": 1, "c": 3, "a": 1, "roots": "1,2"}),
    ("build-rdp", {"type": "E", "index": 7, "coeffs": ["0", "1/2", "0", "0", "0", "0", "0"]}),
    ("build-rdp", {"type": "D", "index": 5}),
    ("check", {"d": 2, "n": 2, "m": 1, "a": 1, "roots": "1,2"}),
    ("birational", {"d": 2, "n": 3, "m": 2, "c": 2, "a": 7, "roots": "1:1,2:1", "samples": 5}),
    ("resolve", {"order": 7, "weights": [1, 5]}),
    ("sweep", {"max_d": 2, "max_n": 2, "max_c": 1}),
]

CORPUS_ROWS = [
    {"id": "classify-18", "kind": "classify", "parameters": {"order": 18, "weights": [1, 5]},
     "expected": {"is_class_t": True}},
    # Fails: the count is 2, and the id is not ASCII.
    {"id": "énumère-2-2", "kind": "enumerate", "parameters": {"d": 2, "n": 2, "m": 1},
     "expected": {"count": 3}},
    {"id": "bad-kind", "kind": "frobnicate", "parameters": {}},
    {"kind": "check", "parameters": {"d": 2, "n": 2, "m": 1, "a": 1, "roots": "1,2"},
     "expected": {"beta": "3/2", "all_satisfied": True}},
]


def test_every_command_report_matches_json_dumps(tmp_path):
    for kind, params in COMMAND_CASES:
        report = run_case(kind, params, 11).data
        assert render_json(report) == dumps(report), (kind, params)
    path = tmp_path / "cases.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in CORPUS_ROWS) + "\n", encoding="utf-8")
    corpus = run_corpus(str(path), 11)
    assert corpus.exit_code == 1
    assert corpus.outputs["failed_ids"] == ["énumère-2-2", "bad-kind"]
    assert render_json(corpus.data) == dumps(corpus.data)


# Escapes and code points json.dumps treats specially, drawn often.
SPECIAL = st.sampled_from(["\x00", "\x1f", "\x7f", "\ud800", "\udfff", " ", "é", "\U0001f600", '"', "\\", "/"])
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
    for value in ({}, [], (), {"": []}, [{}, [], ()], "\ud800x\x00", 2**64, -(2**64) - 1,
                  {"a": {"b": {"c": [True, False, None]}}}, [1.5, -0.0, float("inf"), float("nan")]):
        assert render_json(value) == dumps(value), value


def test_non_str_key_raises_type_error():
    # json.dumps would write these keys as text; render_json refuses them.
    for key in (1, 1.5, True, None):
        with pytest.raises(TypeError):
            render_json({key: 1})
        with pytest.raises(TypeError):
            render_json({"outer": [{"x": 1, key: 2}]})
    with pytest.raises(TypeError):
        render_json({"x": {1, 2}})
