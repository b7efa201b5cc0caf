"""Expression grammar and JSON codecs: round trips and rejection paths."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagger.grmod import F, MonoMatrix, T, V, fmt_module, gm, present
from stagger.derived import FormalObject, formal
from stagger.formats import (
    ParseError,
    _cell,
    _read_cell,
    formal_from_json,
    formal_to_json,
    matrix_from_json,
    matrix_to_json,
    parse_formal,
    parse_module,
    presentation_from_json,
    presentation_to_json,
)


# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------


def test_parse_module_basics():
    assert parse_module("F(2) + T(0,3)") == gm([2], [(0, 3)])
    assert parse_module("V(1)") == V(1)
    assert parse_module("0") == gm([])
    assert parse_module("  F(-1)+F(-1) ") == gm([-1, -1])


def test_parse_formal():
    Fo = parse_formal("[0] F(1); [2] T(0,1) + V(3)")
    assert Fo == FormalObject({0: F(1), 2: gm([], [(0, 1), (3, 1)])})
    assert parse_formal("F(0)", default_degree=1) == formal(F(0), 1)
    assert parse_formal("0").is_zero


@pytest.mark.parametrize(
    "text,pos",
    [
        ("F(2) +", 7),
        ("F(x)", 3),
        ("T(1)", 4),
        ("G(1)", 1),
        ("F(1) T(0,1)", 6),
        ("T(0,0)", 1),
    ],
)
def test_parse_errors_carry_position(text, pos):
    with pytest.raises(ParseError) as ei:
        parse_module(text)
    assert ei.value.pos == pos


def test_parse_formal_duplicate_degree_rejected():
    with pytest.raises(ParseError):
        parse_formal("[0] F(1); [0] F(2)")


modules = st.builds(
    gm,
    st.lists(st.integers(-9, 9), max_size=4),
    st.lists(
        st.tuples(st.integers(-9, 9), st.integers(1, 5)), max_size=4
    ),
)


@settings(max_examples=150, deadline=None)
@given(modules)
def test_expr_round_trip(M):
    assert parse_module(fmt_module(M)) == M


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(st.integers(-3, 3), modules, max_size=3))
def test_formal_expr_round_trip(comps):
    Fo = FormalObject({k: m for k, m in comps.items() if not m.is_zero})
    assert parse_formal(str(Fo)) == Fo


# ---------------------------------------------------------------------------
# JSON codecs
# ---------------------------------------------------------------------------


def test_presentation_round_trip():
    from stagger.grmod import canonical_decompose

    M = gm([2, -1], [(0, 2), (3, 1)])
    p = present(M)
    q = presentation_from_json(presentation_to_json(p))
    assert q.gens == p.gens
    assert presentation_to_json(q) == presentation_to_json(p)
    assert canonical_decompose(q) == M


def test_matrix_round_trip():
    p = present(gm([1], [(0, 2)]))
    m = p.rel
    m2 = matrix_from_json(matrix_to_json(m))
    assert matrix_to_json(m2) == matrix_to_json(m)


def test_formal_json_round_trip():
    Fo = FormalObject({-1: T(2, 2), 0: gm([0, 3])})
    assert formal_from_json(formal_to_json(Fo)) == Fo


def test_matrix_rejects_exponent_mismatch():
    # with explicit column weights the exponent of every entry is forced,
    # and a stated k that disagrees is rejected
    js = {
        "row_weights": [0],
        "col_weights": [-2],
        "entries": [[{"c": "1", "k": 3}]],
    }
    with pytest.raises(ValueError) as ei:
        matrix_from_json(js)
    assert "exponent" in str(ei.value)


def test_presentation_rejects_inhomogeneous_column():
    js = {
        "generators": [0, 3],
        "relations": [[{"c": "1", "k": 2}], [{"c": "1", "k": 2}]],
    }
    with pytest.raises(ValueError) as ei:
        presentation_from_json(js)
    assert "inhomogeneous" in str(ei.value)


def test_presentation_rejects_empty_column():
    js = {"generators": [0], "relations": [[None]]}
    with pytest.raises(ValueError) as ei:
        presentation_from_json(js)
    assert "no entries" in str(ei.value)


def test_matrix_rejects_entry_below_diagonal_weights():
    # an entry requires row weight >= column weight (monomial exponents >= 0)
    js = {
        "row_weights": [0],
        "col_weights": [1],
        "entries": [[{"c": "1", "k": -1}]],
    }
    with pytest.raises(ValueError):
        matrix_from_json(js)


@pytest.mark.parametrize("js, names", [
    ({"col_weights": [0], "entries": [[None]]}, "'row_weights'"),
    ({"row_weights": [0], "col_weights": [0.5], "entries": [[None]]},
     "col_weights[0]"),
    ({"row_weights": [0], "col_weights": [0]}, "'entries'"),
    ({"row_weights": [0], "col_weights": [0], "entries": [[None], [None]]},
     "entries"),
    ({"row_weights": [0], "col_weights": [0], "entries": [[None, None]]},
     "entries"),
    ({"row_weights": [0], "col_weights": [0], "entries": [[[1]]]},
     "entry (0,0)"),
    ({"row_weights": [0], "col_weights": [0], "entries": [[{"c": "1/0"}]]},
     '"c"'),
    ({"row_weights": [0], "col_weights": [0],
      "entries": [[{"c": "1", "k": True}]]}, '"k"'),
])
def test_matrix_json_rejects_malformed_fields(js, names):
    with pytest.raises(ValueError) as ei:
        matrix_from_json(js)
    assert names in str(ei.value)


@pytest.mark.parametrize("js, names", [
    ([1], "formal object"),
    ({"0": 5}, "degree 0"),
    ({"one": "F(0)"}, "degree 'one'"),
    ({"0": "F("}, "position"),
])
def test_formal_json_rejects_malformed_fields(js, names):
    with pytest.raises(ValueError) as ei:
        formal_from_json(js)
    assert names in str(ei.value)


# ---------------------------------------------------------------------------
# coefficient cells
# ---------------------------------------------------------------------------

_CELL_VALUES = (1, -1, 7, 10**30 + 1, Fraction(1, 2), Fraction(-2, 3),
                Fraction(10**20 + 1, 3**25), Fraction(-(2**61 - 1), 5**19))


def test_every_written_cell_reads_back():
    for k, c in enumerate(_CELL_VALUES):
        cell = json.loads(json.dumps(_cell(c, k)))
        got, kk = _read_cell(cell, 0, 0, need_k=True)
        assert (got, kk) == (c, k)
    m = MonoMatrix(range(len(_CELL_VALUES)), (0,),
                   {(i, 0): c for i, c in enumerate(_CELL_VALUES)})
    back = matrix_from_json(json.loads(json.dumps(matrix_to_json(m))))
    assert sorted((key, type(c), c) for key, c in back.entries.items()) == \
        sorted((key, type(c), c) for key, c in m.entries.items())


def test_json_integer_coefficient_is_read_as_int():
    m = matrix_from_json({"row_weights": [0], "col_weights": [0],
                          "entries": [[{"c": -3}]]})
    assert m.entries == {(0, 0): -3} and type(m.get(0, 0)) is int


@pytest.mark.parametrize("c", [
    "1e1000", "1.5", "1e5", ".5", "1.", " 1", "1 ", "1_000", "0x10",
    "\u0663", "1/-2", "+", "", "1/0", "inf", True, None, 1.5, [1],
])
def test_cell_coefficient_is_an_integer_or_a_rational_string(c):
    # Fraction() would accept decimal and exponent forms, and expand an
    # exponent digit by digit (the CLI test times "1e100000000")
    js = {"row_weights": [0], "col_weights": [0], "entries": [[{"c": c}]]}
    with pytest.raises(ValueError, match='"c" must be a rational string'):
        matrix_from_json(js)


# ---------------------------------------------------------------------------
# integers past the interpreter's digit limit
# ---------------------------------------------------------------------------

# 0 where int() reads any number of digits (no limit, or one switched off)
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG = "1" * (INT_DIGITS + 700)


@pytest.mark.skipif(not INT_DIGITS, reason="int() has no digit limit here")
@pytest.mark.parametrize("parse, text, pos", [
    (parse_module, "F(%s)" % LONG, 3),
    (parse_module, "F(0) + T(%s, 1)" % LONG, 10),
    (parse_module, "T(0,%s)" % LONG, 5),
    (parse_formal, "[0] F(0); [%s] F(1)" % LONG, 12),
], ids=["free", "torsion_weight", "torsion_length", "degree"])
def test_oversized_integer_is_a_located_parse_error(parse, text, pos):
    # int() would raise its own ValueError, naming no position
    with pytest.raises(ParseError, match="integer too long or malformed "
                       r"\(%d characters\)" % len(LONG)) as ei:
        parse(text)
    assert ei.value.pos == pos
