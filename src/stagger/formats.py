"""Parsing and serialization: module expressions and JSON codecs.

Grammar for module expressions (whitespace insensitive):

    expr  :=  '0'  |  term ('+' term)*
    term  :=  'F(' int ')'  |  'T(' int ',' int ')'  |  'V(' int ')'

V(n) is accepted as sugar for T(n,1); printing always uses the F/T form.
Formal objects read either a bare expression (placed in degree 0) or the
degree-annotated form '[k] expr; [k'] expr'.

Presentations travel as JSON {"generators": [w_i], "relations": rows},
where rows has one list per generator and each cell is null or
{"c": coefficient, "k": exponent}; the coefficient is a JSON integer or a
string ``[+-]digits[/digits]`` (what ``str`` of an int or a ``Fraction``
writes), and the exponent is redundant (it is forced by homogeneity) and is
cross-checked on input.
"""

from __future__ import annotations

import re
from fractions import Fraction as Q
from typing import Dict, List, Tuple

from .grmod import (
    GradedModule,
    MonoMatrix,
    Presentation,
    fmt_module,
    gm,
)
from .derived import FormalObject


class ParseError(ValueError):
    """Malformed input, annotated with a 1-based character position."""

    def __init__(self, msg: str, pos: int):
        super().__init__("position %d: %s" % (pos, msg))
        self.pos = pos


# ---------------------------------------------------------------------------
# module expressions
# ---------------------------------------------------------------------------


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.i = 0

    def skip_ws(self) -> None:
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    @property
    def pos(self) -> int:
        return self.i + 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.i] if self.i < len(self.text) else ""

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.i >= len(self.text) or self.text[self.i] != ch:
            raise ParseError("expected '%s'" % ch, self.pos)
        self.i += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.i
        if self.i < len(self.text) and self.text[self.i] in "+-":
            self.i += 1
        while self.i < len(self.text) and self.text[self.i].isdigit():
            self.i += 1
        if self.i == start or not self.text[start:self.i].lstrip("+-"):
            raise ParseError("expected an integer", start + 1)
        try:
            return int(self.text[start:self.i])
        except ValueError:  # past sys.get_int_max_str_digits(), or a '²'
            raise ParseError("integer too long or malformed (%d characters)"
                             % (self.i - start), start + 1) from None

    def done(self) -> bool:
        self.skip_ws()
        return self.i >= len(self.text)


def _parse_term(sc: _Scanner) -> Tuple[str, int, int]:
    sc.skip_ws()
    pos = sc.pos
    head = sc.peek()
    if head not in ("F", "T", "V"):
        raise ParseError("expected F(..), T(..,..), V(..), or 0", pos)
    sc.i += 1
    sc.expect("(")
    a = sc.integer()
    if head == "T":
        sc.expect(",")
        n = sc.integer()
        if n < 1:
            raise ParseError("torsion length must be >= 1", pos)
        sc.expect(")")
        return ("T", a, n)
    sc.expect(")")
    if head == "V":
        return ("T", a, 1)
    return ("F", a, 0)


def parse_module(text: str) -> GradedModule:
    """Parse a module expression; raises ParseError with a position."""
    sc = _Scanner(text)
    if sc.peek() == "0":
        sc.i += 1
        if not sc.done():
            raise ParseError("unexpected input after '0'", sc.pos)
        return gm([])
    if sc.done():
        raise ParseError("empty expression", sc.pos)
    free: List[int] = []
    tors: List[Tuple[int, int]] = []
    while True:
        kind, a, n = _parse_term(sc)
        if kind == "F":
            free.append(a)
        else:
            tors.append((a, n))
        if sc.done():
            break
        sc.expect("+")
    return gm(free, tors)


def parse_formal(text: str, default_degree: int = 0) -> FormalObject:
    """Parse a formal object: '[k] expr; ...' or a bare expression."""
    if "[" not in text:
        m = parse_module(text)
        return FormalObject({default_degree: m} if not m.is_zero else {})
    comps: Dict[int, GradedModule] = {}
    offset = 0
    for chunk in text.split(";"):
        piece = chunk.strip()
        if not piece:
            offset += len(chunk) + 1
            continue
        sc = _Scanner(chunk)
        try:
            sc.expect("[")
            k = sc.integer()
            sc.expect("]")
        except ParseError as e:
            raise ParseError(str(e).split(": ", 1)[1], offset + e.pos) from None
        rest = chunk[sc.i:]
        try:
            m = parse_module(rest)
        except ParseError as e:
            raise ParseError(str(e).split(": ", 1)[1],
                             offset + sc.i + e.pos) from None
        if k in comps:
            raise ParseError("degree %d given twice" % k, offset + 1)
        if not m.is_zero:
            comps[k] = m
        offset += len(chunk) + 1
    return FormalObject(comps)


# ---------------------------------------------------------------------------
# JSON codecs
# ---------------------------------------------------------------------------


def json_int(literal: str):
    """A JSON integer literal as an ``int``, for ``json.loads(parse_int=)``.
    One that ``int`` refuses (more digits than ``sys.get_int_max_str_digits``
    allows) stays a string, which the readers below refuse by field name."""
    try:
        return int(literal)
    except ValueError:
        return literal


def _cell(c: Q, k: int) -> dict:
    return {"c": str(c), "k": k}


def matrix_to_json(m: MonoMatrix) -> dict:
    rows = []
    for i in range(m.nrows):
        row = []
        for j in range(m.ncols):
            c = m.get(i, j)
            row.append(_cell(c, m.exp(i, j)) if c != 0 else None)
        rows.append(row)
    return {
        "row_weights": list(m.row_weights),
        "col_weights": list(m.col_weights),
        "entries": rows,
    }


def _field(obj, key: str, what: str):
    """``obj[key]``, or a ValueError naming the field."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError("%s must be an object with a %r field" % (what, key))
    return obj[key]


def _integer(x, what: str) -> int:
    if type(x) is not int:  # JSON floats and booleans are not integers
        raise ValueError("%s must be an integer, got %.40r" % (what, x))
    return x


def _integers(obj, key: str, what: str) -> List[int]:
    xs = _field(obj, key, what)
    if not isinstance(xs, list):
        raise ValueError("%r must be a list, got %.40r" % (key, xs))
    return [_integer(x, "%s[%d]" % (key, i)) for i, x in enumerate(xs)]


def _rows(rows, nrows: int, what: str) -> List[list]:
    """The ``nrows`` rows of a JSON matrix, all of one length."""
    if not (isinstance(rows, list) and len(rows) == nrows and all(
            isinstance(r, list) and len(r) == len(rows[0]) for r in rows)):
        raise ValueError("%s needs %d row(s) of equal length" % (what, nrows))
    return rows


# the coefficient strings ``_cell`` writes; no decimal point or exponent,
# which ``Fraction`` would expand digit by digit ("1e100000000")
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _read_cell(cell, i: int, j: int) -> Tuple[Q, int]:
    """Coefficient and stated exponent of the non-null cell (i, j)."""
    where = "entry (%d,%d)" % (i, j)
    c = _field(cell, "c", where)
    k = _integer(_field(cell, "k", where), '%s: "k"' % where)
    if type(c) is int:  # JSON booleans are not integers
        return c, k
    try:
        if type(c) is str and _RATIONAL.fullmatch(c):
            return Q(c), k
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError('%s: "c" must be a rational string, got %.40r'
                     % (where, c))


def presentation_to_json(p: Presentation) -> dict:
    """The JSON presentation that ``stagger decompose`` reads (kept for
    writing such inputs: the benchmark's CLI workload builds them here)."""
    return {"generators": list(p.gens),
            "relations": matrix_to_json(p.rel)["entries"]}


def presentation_from_json(obj: dict) -> Presentation:
    gens = _integers(obj, "generators", "presentation")
    rows = _rows(obj.get("relations") or [[] for _ in gens], len(gens),
                 "relations")
    cells = {(i, j): _read_cell(cell, i, j)
             for i, row in enumerate(rows)
             for j, cell in enumerate(row) if cell is not None}
    # column weights are forced: w_col = w_row - k at any nonzero entry
    col_w: Dict[int, int] = {}
    for (i, j), (_c, k) in cells.items():
        if col_w.setdefault(j, gens[i] - k) != gens[i] - k:
            raise ValueError(
                "relation column %d is inhomogeneous (weights %d and %d)"
                % (j, col_w[j], gens[i] - k)
            )
    for j in range(len(rows[0]) if rows else 0):
        if j not in col_w:
            raise ValueError(
                "relation column %d has no entries; its weight is "
                "undetermined" % j
            )
    rel = MonoMatrix(gens, [col_w[j] for j in sorted(col_w)])
    for (i, j), (c, _k) in cells.items():
        rel.set(i, j, c)
    return Presentation(gens, rel)


def formal_to_json(F: FormalObject) -> dict:
    return {str(k): fmt_module(m) for k, m in sorted(F.components.items())}
