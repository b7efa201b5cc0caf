"""Exact graded-module algebra over the equivariant affine line.

Everything in this package works with finitely generated Z-graded modules over
A = k[x], k = Q, where x is homogeneous of weight -1.  Equivalently: coherent
sheaves on the affine line with its scaling action, the generic orbit U being
the complement of the origin and the closed orbit Z the origin itself.

Conventions (load-bearing, do not change):

* ``F(d)`` is the free module of rank one with generator in weight ``d``.  It
  occupies the weights ``d, d-1, d-2, ...``; ``F(0) = A`` and ``F(-k)`` is the
  ideal ``x^k A`` viewed with its internal grading.
* ``T(g, n)`` is the cyclic torsion module ``A/(x^n)`` with generator in
  weight ``g``.  It occupies ``g, g-1, ..., g-n+1``; its socle sits in weight
  ``g - n + 1``.  ``V(m) = T(m, 1)`` is the one-dimensional skyscraper of
  weight ``m``.
* Every finitely generated graded module is a finite direct sum of these, and
  the multiset of summands is unique.  ``GradedModule`` stores that canonical
  form; ``canonical_decompose`` produces it from an arbitrary presentation.

Matrices here are sparse "monomial matrices": every nonzero entry of a
homogeneous degree-0 matrix between weighted free modules is a single monomial
``c * x^k`` whose exponent is forced by the row and column weights
(``k = row_weight - col_weight``).  We therefore store only the coefficient;
all row/column operations stay within this shape.

Quick sanity examples:

>>> M = direct_sum(F(1), T(0, 2))
>>> fmt_module(M)
'F(1) + T(0,2)'
>>> weight_dim(M, 0)
2
>>> hom_dim(T(-1, 1), F(-2))
0
>>> ext1_dim(T(-1, 1), F(-2))
1
>>> fmt_module(tensor(F(2), T(0, 3)))
'T(2,3)'
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Q = Fraction


# ---------------------------------------------------------------------------
# canonical modules
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class GradedModule:
    """Canonical form of a f.g. graded k[x]-module.

    ``free``    -- sorted tuple of generator weights of the free summands.
    ``torsion`` -- sorted tuple of (generator weight, length) pairs.
    """

    free: Tuple[int, ...] = ()
    torsion: Tuple[Tuple[int, int], ...] = ()

    @property
    def rank(self) -> int:
        return len(self.free)

    @property
    def is_zero(self) -> bool:
        return not self.free and not self.torsion

    def gen_weights(self) -> Tuple[int, ...]:
        # tuple([...]), not tuple(<generator>), on hot paths: a generator's
        # tuple is allocated at 10 items and resized, so each call moves one
        # tuple between the interpreter's per-size free lists; those fill up
        # (about 2 MB) and stay full until a full garbage collection
        return tuple(self.free) + tuple([g for g, _ in self.torsion])

    def max_torsion_length(self) -> int:
        return max((n for _, n in self.torsion), default=0)

    def twist(self, m: int) -> "GradedModule":
        """Tensor with V-type character: shift every weight up by m."""
        return GradedModule(
            tuple([d + m for d in self.free]),
            tuple([(g + m, n) for g, n in self.torsion]),
        )

    def torsion_part(self) -> "GradedModule":
        return GradedModule((), self.torsion)

    def free_part(self) -> "GradedModule":
        return GradedModule(self.free, ())

    def occupied_window(self) -> Tuple[int, int]:
        """(lo, hi) covering all generator and socle weights (0,0 if zero)."""
        ws = list(self.gen_weights()) + [g - n + 1 for g, n in self.torsion]
        if not ws:
            return (0, 0)
        return (min(ws), max(ws))

    def __str__(self) -> str:
        return fmt_module(self)


def gm(free: Iterable[int] = (), torsion: Iterable[Tuple[int, int]] = ()) -> GradedModule:
    """Normalizing constructor; drops zero-length torsion, sorts summands."""
    to = []
    for g, n in torsion:
        if n < 0:
            raise ValueError("torsion length must be >= 0, got %r" % (n,))
        if n > 0:
            to.append((int(g), int(n)))
    return _canonical([int(d) for d in free], to)


def _canonical(free: List[int], tors: List[Tuple[int, int]]) -> GradedModule:
    """The canonical form of the sum of these summands; sorts both lists in
    place."""
    free.sort()
    tors.sort()
    return GradedModule(tuple(free), tuple(tors))


def F(d: int) -> GradedModule:
    return GradedModule((d,), ())


def T(g: int, n: int) -> GradedModule:
    if n <= 0:
        raise ValueError("torsion length must be positive")
    return GradedModule((), ((g, n),))


def V(m: int) -> GradedModule:
    return T(m, 1)


ZERO = GradedModule()


def direct_sum(*mods: GradedModule) -> GradedModule:
    free: List[int] = []
    tors: List[Tuple[int, int]] = []
    for m in mods:
        free.extend(m.free)
        tors.extend(m.torsion)
    return _canonical(free, tors)


def summand_pieces(M: GradedModule) -> List[Tuple]:
    """The summands of M as pieces ('F', d) and ('T', g, l), in canonical
    generator order (free first, then torsion)."""
    return [("F", d) for d in M.free] + [("T", g, l) for g, l in M.torsion]


def pieces_module(pieces: List[Tuple]) -> Tuple[GradedModule, List[int]]:
    """The direct sum of the pieces ('F', d) and ('T', g, l), and the index
    of each piece among its generators.  One sort gives both: the canonical
    order is that of the pieces themselves ('F' before 'T', then by weight
    and length), equal pieces in list order.  Each length must be positive,
    as ``sstruct.cut_summand`` makes them: none is dropped."""
    pos = [0] * len(pieces)
    free: List[int] = []
    tors: List[Tuple[int, int]] = []
    for slot, i in enumerate(sorted(range(len(pieces)),
                                    key=pieces.__getitem__)):
        pos[i] = slot
        p = pieces[i]
        if p[0] == "F":
            free.append(p[1])
        else:
            tors.append((p[1], p[2]))
    return GradedModule(tuple(free), tuple(tors)), pos


def weight_dim(M: GradedModule, w: int) -> int:
    """k-dimension of the weight-w component."""
    d = sum(1 for b in M.free if w <= b)
    d += sum(1 for g, n in M.torsion if g - n < w <= g)
    return d


def summand_ends(M: GradedModule) -> Tuple[List[int], List[int]]:
    """(tops, bottoms) of M's summands, F(d): top d, T(g, n): top g and
    bottom g - n; so dim M_w = #{tops >= w} - #{bottoms >= w}."""
    return (list(M.free) + [g for g, _n in M.torsion],
            [g - n for g, n in M.torsion])


def dim_mismatch(a, b) -> Optional[int]:
    """The one rule for comparing weight dims: the highest weight where two
    counts differ, or None.  ``a`` and ``b`` are pairs (ups, downs) of
    weights, each the count w -> #{ups >= w} - #{downs >= w} (see
    ``summand_ends``).  Their difference at w sums the multiset balance
    ups_a + downs_b - ups_b - downs_a over x >= w, so, going down, it is
    first nonzero at the balance's highest nonzero x: no window is walked."""
    bal = Counter([*a[0], *b[1]])
    bal.subtract([*a[1], *b[0]])
    return max((x for x, c in bal.items() if c), default=None)


def fmt_module(M: GradedModule) -> str:
    if M.is_zero:
        return "0"
    parts = ["F(%d)" % d for d in M.free]
    parts += ["T(%d,%d)" % (g, n) for g, n in M.torsion]
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# monomial matrices
# ---------------------------------------------------------------------------


def _coefficient(c):
    """``c`` as ``MonoMatrix`` stores it: an integral value as an ``int``,
    any other rational as its ``Fraction``."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):  # bool and other subclasses of int
        return int(c)
    raise TypeError("a coefficient must be an int or a Fraction, got %s %r"
                    % (type(c).__name__, c))


class MonoMatrix:
    """Sparse homogeneous degree-0 matrix between weighted free modules.

    Rows index target generators, columns source generators.  The (i, j)
    entry, when nonzero, is the monomial ``c * x^(row_w[i] - col_w[j])``;
    only the coefficient ``c`` is stored, the exponent being forced.  An
    entry may be nonzero only where ``row_w[i] >= col_w[j]``.

    Coefficients are exact: ``set`` (and ``compose``) store an integral
    value as an ``int``, whether it came as an ``int`` or as a ``Fraction``
    with denominator 1, and any other rational as its ``Fraction``; zeros
    are dropped, and a float or any other type raises ``TypeError``.  The
    one writer outside that rule is ``free_kernel``, whose entries are all
    ``Fraction``.
    """

    __slots__ = ("row_weights", "col_weights", "entries")

    def __init__(
        self,
        row_weights: Sequence[int],
        col_weights: Sequence[int],
        entries: Optional[Dict[Tuple[int, int], Q]] = None,
    ):
        self.row_weights = tuple(row_weights)
        self.col_weights = tuple(col_weights)
        self.entries: Dict[Tuple[int, int], Q] = {}
        if entries:
            for (i, j), c in entries.items():
                self.set(i, j, c)

    # -- basic access -------------------------------------------------

    def exp(self, i: int, j: int) -> int:
        return self.row_weights[i] - self.col_weights[j]

    def set(self, i: int, j: int, c) -> None:
        if type(c) is not int:
            c = _coefficient(c)
        if not c:
            self.entries.pop((i, j), None)
            return
        if self.exp(i, j) < 0:
            raise ValueError(
                "inhomogeneous entry at (%d,%d): row weight %d < col weight %d"
                % (i, j, self.row_weights[i], self.col_weights[j])
            )
        self.entries[(i, j)] = c

    def get(self, i: int, j: int) -> Q:
        return self.entries.get((i, j), 0)

    def __eq__(self, other) -> bool:
        return isinstance(other, MonoMatrix) and \
            (self.row_weights, self.col_weights, self.entries) == \
            (other.row_weights, other.col_weights, other.entries)

    @property
    def nrows(self) -> int:
        return len(self.row_weights)

    @property
    def ncols(self) -> int:
        return len(self.col_weights)

    def is_zero(self) -> bool:
        return not self.entries

    # -- construction helpers ------------------------------------------

    def hstack(self, other: "MonoMatrix") -> "MonoMatrix":
        if self.row_weights != other.row_weights:
            raise ValueError("hstack: row weights differ")
        out = MonoMatrix(self.row_weights, self.col_weights + other.col_weights)
        out.entries = dict(self.entries)
        off = self.ncols
        for (i, j), c in other.entries.items():
            out.entries[(i, j + off)] = c
        return out

    def compose(self, other: "MonoMatrix") -> "MonoMatrix":
        """Matrix of self o other (other applied first)."""
        if self.col_weights != other.row_weights:
            raise ValueError("compose: inner weights differ")
        out = MonoMatrix(self.row_weights, other.col_weights)
        by_row: Dict[int, List[Tuple[int, Q]]] = {}
        for (j, k), c in other.entries.items():
            by_row.setdefault(j, []).append((k, c))
        acc: Dict[Tuple[int, int], Q] = {}
        for (i, j), c1 in self.entries.items():
            for k, c2 in by_row.get(j, ()):
                key = (i, k)
                acc[key] = acc.get(key, 0) + c1 * c2
        out.entries = {k: v if type(v) is int else _coefficient(v)
                       for k, v in acc.items() if v}
        return out

    def __repr__(self) -> str:  # debugging aid
        return "MonoMatrix(%r, %r, %r)" % (
            self.row_weights,
            self.col_weights,
            self.entries,
        )


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------


class Presentation:
    """A graded module presented as coker(rel: +F(v_j) -> +F(w_i)).

    ``gens`` are the generator weights w_i (matrix rows); each relation is a
    column of ``rel`` whose weight v_j is forced by homogeneity.
    """

    __slots__ = ("gens", "rel")

    def __init__(self, gens: Sequence[int], rel: Optional[MonoMatrix] = None):
        self.gens = tuple([int(g) for g in gens])
        if rel is None:
            rel = MonoMatrix(self.gens, ())
        if rel.row_weights != self.gens:
            raise ValueError("relation matrix rows do not match generators")
        self.rel = rel

    @property
    def nrel(self) -> int:
        return self.rel.ncols

    def __repr__(self) -> str:
        return "Presentation(gens=%r, nrel=%d)" % (self.gens, self.nrel)


def present(M: GradedModule) -> Presentation:
    """Canonical presentation: free generators first, then torsion ones."""
    gens = M.gen_weights()
    rel = MonoMatrix(gens, [g - n for g, n in M.torsion])
    for t in range(len(M.torsion)):
        rel.set(M.rank + t, t, 1)
    return Presentation(gens, rel)


# ---------------------------------------------------------------------------
# sparse echelon sweep: ranks, relation spans, kernels and homology
# ---------------------------------------------------------------------------
#
# An entry (i, j) of a ``MonoMatrix`` can be nonzero only where
# row_w[i] >= col_w[j], so the columns of weight >= w vanish outside the rows
# of weight >= w: the rank of the weight-w component is the rank of those
# columns alone.  It only grows as w falls, so one sweep inserting the columns
# by descending weight into an echelon basis yields the rank at every weight
# at once (``_rank_steps``).  The same sweep decides membership in the image
# of a relation matrix (``_in_relation_span``): an element of weight w is in
# it iff it reduces to zero against the relation columns of weight >= w.
# Both key rows by index, as their sparse matrices have no fill-in to save.
# The other sweeps (``_sweep``) reduce each column at its youngest row, as
# homology needs, which also shortens dense reductions.  Reducing a column
# of weight v by one of weight v' >= v subtracts x^(v' - v) times it, a
# genuine polynomial multiple.  Columns and basis vectors stay sparse, each
# a {key: coefficient} dict of its nonzeros.
#
# The sweep is fraction-free, in the style of Bareiss (1968, Math. Comp. 22)
# but with content (gcd) removal in place of his exact division by the last
# pivot: a column enters it as an integer vector (an all-``int`` column as
# it is, one with fractions scaled by the lcm of its denominators), and
# every step is an integer combination a*vec - b*piv with a > 0, so no
# ``Fraction`` is built inside it.  Basis vectors are primitive (gcd of
# their entries 1) with a positive pivot entry, which keeps the entries
# small.  Each integer vector is a nonzero rational multiple of the vector
# that elimination over Q would hold at the same step, and scaling never
# changes which entries are zero, so every step meets the same pivot rows,
# and ranks, span answers and dependent sets are those of elimination over
# Q.  ``Fraction`` comes back only in ``free_kernel``, each vector divided
# by its entry at its own column; ``kernel_image_cokernel`` reads canonical
# forms only.


def _integral(col: Dict[int, Q]) -> Dict[int, int]:
    """``col`` times the lcm of its denominators: integer entries, the same
    nonzero keys, in a new dict (``_echelon_insert`` reduces it in place).
    An ``int`` entry is taken as it is."""
    out = dict(col)
    m = 1
    for k, c in col.items():
        if type(c) is not int:
            n, d = c.as_integer_ratio()
            out[k] = n
            if d != 1:
                m = lcm(m, d)
    if m != 1:  # a second pass only for a column that has fractions
        for k, c in col.items():
            n, d = c.as_integer_ratio()
            out[k] = n * (m // d)
    return out


def _columns_by_weight(mat: MonoMatrix, lo: int) -> List[Tuple[int, Dict[int, int]]]:
    """The nonzero columns of weight >= lo as (weight, {row: integer}), by
    descending weight, each scaled to integers by ``_integral``."""
    cw = mat.col_weights
    cols: Dict[int, Dict[int, Q]] = {}
    for (i, j), c in mat.entries.items():
        if cw[j] >= lo:
            cols.setdefault(j, {})[i] = c
    return [(cw[j], _integral(cols[j])) for j in sorted(cols, key=lambda j: -cw[j])]


def _echelon_insert(basis: Dict[int, Dict[int, int]], vec: Dict[int, int],
                    nrows: int) -> Optional[int]:
    """Reduce the integer vector ``vec`` in place against ``basis`` and
    insert what is left; returns the pivot row it was inserted at, or None
    if nothing is left on the rows.

    ``basis`` keeps one primitive integer vector per pivot row, its lowest
    nonzero row, with a positive entry p there.  ``vec`` is reduced at its
    lowest nonzero row r, holding c, by vec <- (p/g)*vec - (c/g)*piv with
    g = gcd(p, c), until r has no basis vector; then it is divided by the
    gcd of its entries, signed so that its pivot entry is positive, and
    inserted.  Only keys below ``nrows`` are rows; keys from ``nrows`` up
    ride along (a transform, scaled with the rest) and are never pivots, so
    a ``vec`` whose rows all cancel keeps its transform and is not inserted.
    Entries that cancel to 0 are deleted, so no step reads a zero.
    """
    while vec:
        r = min(vec)
        if r >= nrows:
            break
        c = vec[r]
        piv = basis.get(r)
        if piv is None:
            g = gcd(*vec.values())
            if c < 0:
                g = -g
            if g != 1:
                for t in vec:
                    vec[t] //= g
            basis[r] = vec
            return r
        g = gcd(piv[r], c)
        a, b = piv[r] // g, c // g
        if a != 1:
            for t in vec:
                vec[t] *= a
        for t, v in piv.items():
            if t in vec:
                x = vec[t] - b * v
                if x:
                    vec[t] = x
                else:
                    del vec[t]
            else:
                vec[t] = -b * v
    return None


def _rank_steps(mat: MonoMatrix) -> List[int]:
    """The weights, ascending, of the columns that grow the basis in one
    sweep over the columns by descending weight: the rank of the weight-w
    component of ``mat`` is the number of them >= w."""
    basis: Dict[int, Dict[int, int]] = {}
    cols = _columns_by_weight(mat, min(mat.col_weights, default=0))
    return [v for v, vec in cols
            if _echelon_insert(basis, vec, mat.nrows) is not None][::-1]


def _in_relation_span(rel: MonoMatrix, elems: MonoMatrix) -> bool:
    """Is every column of ``elems`` (homogeneous elements over the rows of
    ``rel``) in the image of ``rel``?  At each element weight the relation
    columns of that weight or above go into the basis first; an element that
    would still grow the basis is not in the span."""
    if not elems.entries:
        return True
    lo = min(elems.col_weights)
    rels = _columns_by_weight(rel, lo)
    basis: Dict[int, Dict[int, int]] = {}
    pos = 0
    for w, vec in _columns_by_weight(elems, lo):
        while pos < len(rels) and rels[pos][0] >= w:
            _echelon_insert(basis, rels[pos][1], rel.nrows)
            pos += 1
        if _echelon_insert(basis, vec, rel.nrows) is not None:
            return False
    return True


def _oldest_first(ws: Sequence[int]) -> List[int]:
    """A term's generator indices by descending weight, ties by index."""
    return sorted(range(len(ws)), key=ws.__getitem__, reverse=True)


def _sweep(mat: MonoMatrix, skip=(), carry: int = 0, orders=None):
    """Sweep the columns of ``mat`` not in ``skip`` in ``_oldest_first``
    order (``orders``: the columns' and rows', if the caller has them),
    each reduced at its youngest row, the rows keyed in the reverse order.
    Returns ``kills``, the weight of the column that stopped at each row,
    and ``vanish``, the transform of each column that reduced to zero, in
    sweep order: primitive integer coefficients {column: c} of the first
    ``carry`` columns (j < carry carries its unit vector under key
    ``nrows + j``), empty or None if it carried none."""
    cw, nrows = mat.col_weights, mat.nrows
    order, rows = orders or (_oldest_first(cw), _oldest_first(mat.row_weights))
    young = rows[::-1]
    key = dict(zip(young, range(nrows)))
    cols = {j: {nrows + j: 1} for j in range(carry)}
    for (i, j), c in mat.entries.items():
        cols.setdefault(j, {})[key[i]] = c
    basis: Dict[int, Dict[int, int]] = {}
    kills, vanish = {}, {}
    for j in order:
        if j in skip:
            continue
        vec = cols.get(j)
        if vec:
            vec = _integral(vec)
            r = _echelon_insert(basis, vec, nrows)
            if r is not None:
                kills[young[r]] = cw[j]
                continue
            if vec:  # only the transform is left
                g = gcd(*vec.values())
                vec = {t - nrows: c // g for t, c in vec.items()}
        vanish[j] = vec
    return kills, vanish


def _homology(gens: Sequence[int], kills: Dict[int, int], free=None):
    """The pairing's read-out at a term of weights ``gens``: F(w_j) for j in
    ``free`` (None: every generator not killed), T(w_i, w_i - v) for i
    killed by a column of weight v, nothing when w_i == v."""
    if free is None:
        free = [i for i in range(len(gens)) if i not in kills]
    return _canonical([gens[j] for j in free],
                      [(gens[i], gens[i] - v) for i, v in kills.items()
                       if gens[i] > v])


def free_kernel(mat: MonoMatrix) -> MonoMatrix:
    """Basis of ker(mat) between free modules, as the columns of a
    MonoMatrix over the source generators (rows = source weights).

    Pivot rule: one ``_sweep`` carrying every column, each column reduced
    at its youngest row.  A dependent column's transform, divided by its
    entry at that column, is its kernel vector: ``Fraction`` entries, 1
    there and 0 at the other dependent columns.  These are a basis, and the
    unique one: the column order alone fixes the dependent set, whatever
    the pivot rows (a column is dependent iff it lies in the span of those
    before it), and two such bases differ by kernel elements on the
    independent columns only, which are 0.
    """
    cw = mat.col_weights
    dependent = sorted(_sweep(mat, carry=len(cw))[1].items())
    out = MonoMatrix(cw, [cw[j] for j, _vec in dependent])
    out.entries = {(t, k): Q(c, vec[j]) for k, (j, vec) in enumerate(dependent)
                   for t, c in vec.items()}
    return out


def _pairing_homology(terms: Dict[int, Tuple[int, ...]],
                      diffs: Dict[int, MonoMatrix]) -> Dict[int, GradedModule]:
    """H^k of a complex of free modules, for every degree with generators.

    ``terms[k]`` holds the generator weights of term k and ``diffs[k]`` :
    term_k -> term_{k+1} is a ``MonoMatrix``; a degree missing from either
    is zero.  H^k is the persistence pairing of the weight filtration
    (Zomorodian & Carlsson 2005, "Computing persistent homology").  For k
    ascending the columns of d_k are swept once (``_sweep``), and the
    kills and vanishing columns read out (``_homology``).  A killed
    generator's column in d_{k+1} is skipped (clearing: Chen & Kerber 2011,
    "Persistent homology computation with a twist").

    Pivoting at an older row would be wrong: generators of weight 2 and 0
    with the relation e1 + x^2 e0 present F(2), not T(2,2) + F(0).
    Clearing is sound: the column that killed generator i has zero
    differential, and its other entries sit at older generators (weight
    >= w_i), so d_{k+1} e_i is a polynomial combination of their columns
    and adds nothing to the span at any weight.  The summands are the
    canonical form, unique by Krull-Schmidt, whatever order equal weights
    are taken in.
    """
    order = {k: _oldest_first(ws) for k, ws in terms.items()}
    out: Dict[int, GradedModule] = {}
    killed: Dict[int, int] = {}  # generator of term k -> weight of its killer
    for k in sorted(terms):
        gens = terms[k]
        if not gens:
            continue
        dk = diffs.get(k)
        if dk is None:
            out[k], killed = _homology(gens, killed), {}
        else:
            nxt, free = _sweep(dk, killed,
                               orders=(order[k], order.get(k + 1, [])))
            out[k], killed = _homology(gens, killed, free), nxt
    return out


def canonical_decompose(p: Presentation) -> GradedModule:
    """Canonical form of the presented module: H^0 of the two-term free
    complex rel: +F(v_j) -> +F(w_i), one ``_sweep`` read by ``_homology``."""
    return _homology(p.gens, _sweep(p.rel)[0])


# ---------------------------------------------------------------------------
# graded maps between presented modules
# ---------------------------------------------------------------------------


class GradedMap:
    """Homogeneous degree-0 map between presented modules.

    ``mat`` rows index target generators, columns source generators; the
    image of source generator j is the j-th column read as an element of the
    target.  Well-definedness (relations map into relations) is checked by
    ``is_well_defined``.
    """

    __slots__ = ("src", "dst", "mat")

    def __init__(self, src: Presentation, dst: Presentation, mat: MonoMatrix):
        if mat.row_weights != dst.gens or mat.col_weights != src.gens:
            raise ValueError("matrix shape does not match presentations")
        self.src = src
        self.dst = dst
        self.mat = mat

    def is_well_defined(self) -> bool:
        if not self.src.rel.entries:  # a free source has nothing to respect
            return True
        return _in_relation_span(self.dst.rel, self.mat.compose(self.src.rel))

    def is_zero_map(self) -> bool:
        return _in_relation_span(self.dst.rel, self.mat)

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self o other."""
        if other.dst is not self.src and other.dst.gens != self.src.gens:
            raise ValueError("composition mismatch")
        return GradedMap(other.src, self.dst, self.mat.compose(other.mat))

    def __repr__(self) -> str:
        return "GradedMap(%r -> %r)" % (self.src.gens, self.dst.gens)


def module_map(M: GradedModule, N: GradedModule,
               entries: Dict[Tuple[int, int], Q]) -> GradedMap:
    """Map between canonical modules; entries over their canonical generators.

    Entries landing in a torsion target with exponent >= its length are
    silently dropped (they are zero in the target).  A map that does not
    respect the relations raises ``ValueError``.
    """
    ps, pd = present(M), present(N)
    mat = MonoMatrix(pd.gens, ps.gens)
    nfree = len(N.free)
    for (i, j), c in entries.items():
        if c == 0:
            continue
        k = pd.gens[i] - ps.gens[j]
        if i >= nfree:
            _g, ln = N.torsion[i - nfree]
            if k >= ln:
                continue
        mat.set(i, j, c)
    f = GradedMap(ps, pd, mat)
    if not f.is_well_defined():
        raise ValueError("map does not respect relations")
    return f


# ---------------------------------------------------------------------------
# kernel / image / cokernel
# ---------------------------------------------------------------------------


@dataclass
class KernelImageCokernel:
    kernel: GradedModule
    image: GradedModule
    cokernel: GradedModule


def _coker_ker(mat: MonoMatrix, n: int) -> Tuple[GradedModule, MonoMatrix]:
    """One ``_sweep`` of ``mat`` carrying its first ``n`` columns: the
    canonical form of coker(mat), and the nonzero transforms, ker(mat) on
    those columns, as the columns of a matrix, each of its weight."""
    kills, vanish = _sweep(mat, carry=n)
    vecs = [(mat.col_weights[j], vec) for j, vec in vanish.items() if vec]
    ker = MonoMatrix(mat.col_weights[:n], [v for v, _vec in vecs])
    ker.entries = {(t, k): c for k, (_v, vec) in enumerate(vecs)
                   for t, c in vec.items()}
    return _homology(mat.row_weights, kills), ker


def kernel_image_cokernel(f: GradedMap) -> KernelImageCokernel:
    """Kernel, image, cokernel of a map of presented modules (canonical forms).

    Three sweeps: ``_coker_ker`` of [f | rel_dst] gives the cokernel and
    ``kgens``, the elements of the source cover that f maps into rel_dst;
    of [kgens | rel_src], the image (the source cover modulo ``kgens``,
    which span rel_src) and the syzygies of ``kgens`` modulo rel_src; then
    ``canonical_decompose`` gives the kernel, ``kgens`` modulo syzygies.
    Transforms stay integers, as only canonical forms are read.

    Precondition: f is well defined.  Otherwise the second sweep gives
    coker(kgens + rel_src), and ``image`` is unspecified; ``kernel`` and
    ``cokernel`` are still those of the matrix, as read by
    ``sstruct.SigmaWitness.verify`` after a failed check.
    """
    coker, kgens = _coker_ker(f.mat.hstack(f.dst.rel), len(f.src.gens))
    image, krel = _coker_ker(kgens.hstack(f.src.rel), kgens.ncols)
    kernel = canonical_decompose(Presentation(kgens.col_weights, krel))
    return KernelImageCokernel(kernel, image, coker)


# ---------------------------------------------------------------------------
# hom / ext closed forms
# ---------------------------------------------------------------------------


def hom_dim(M: GradedModule, N: GradedModule) -> int:
    """dim_k Hom(M, N) in degree 0.

    From the resolution 0 -> F(g-n) -> F(g) -> T(g,n) -> 0: a free summand
    F(a) contributes dim N_a; a torsion summand T(g,n) contributes
    dim ker(x^n : N_g -> N_{g-n}).
    """
    total = 0
    for a in M.free:
        total += weight_dim(N, a)
    for g, n in M.torsion:
        total += _xn_kernel_dim(N, g, n)
    return total


def ext1_dim(M: GradedModule, N: GradedModule) -> int:
    """dim_k Ext^1(M, N) in degree 0 (free summands contribute nothing)."""
    total = 0
    for g, n in M.torsion:
        total += _xn_cokernel_dim(N, g, n)
    return total


def _mod_xn(M: GradedModule, n: int) -> GradedModule:
    """M / x^n M."""
    return gm(
        [],
        [(d, n) for d in M.free] + [(g, min(l, n)) for g, l in M.torsion],
    )


def _ker_xn(M: GradedModule, n: int) -> GradedModule:
    """Kernel of x^n on M (free summands contribute nothing)."""
    return gm(
        [],
        [(min(g, g - l + n), min(l, n)) for g, l in M.torsion],
    )


def _xn_kernel_dim(N: GradedModule, g: int, n: int) -> int:
    d = 0
    for h, l in N.torsion:
        if h >= g > h - l and g - n <= h - l:
            d += 1
    # x^n is injective on every free summand where defined
    return d


def _xn_cokernel_dim(N: GradedModule, g: int, n: int) -> int:
    d = 0
    for b in N.free:
        if g - n <= b < g:
            d += 1
    for h, l in N.torsion:
        tgt = 1 if h >= g - n > h - l else 0
        hit = 1 if (h >= g > h - l) and (g - n > h - l) else 0
        d += tgt - hit
    return d


# ---------------------------------------------------------------------------
# tensor and internal hom
# ---------------------------------------------------------------------------


def tensor(M: GradedModule, N: GradedModule) -> GradedModule:
    """M (x) N over A.  F(a)(x)F(b)=F(a+b); F(d)(x)T(g,n)=T(g+d,n);
    T(g,n)(x)T(h,m)=T(g+h,min(n,m))."""
    free: List[int] = []
    tors: List[Tuple[int, int]] = []
    for a in M.free:
        for b in N.free:
            free.append(a + b)
        for h, m in N.torsion:
            tors.append((h + a, m))
    for g, n in M.torsion:
        for b in N.free:
            tors.append((g + b, n))
        for h, m in N.torsion:
            tors.append((g + h, min(n, m)))
    return _canonical(free, tors)


def internal_hom(M: GradedModule, N: GradedModule) -> GradedModule:
    """Sheaf hom cHom(M, N).

    cHom(F(a), -) is the twist by -a; cHom(T, free) = 0; and
    cHom(T(g,n), T(h,m)) = T(h - g + min(n,m) - m, min(n,m)).
    The tensor-hom adjunction hom(H (x) M, N) = hom(H, cHom(M, N)) holds
    degreewise and is exercised by the test suite.
    """
    free: List[int] = []
    tors: List[Tuple[int, int]] = []
    for a in M.free:
        for b in N.free:
            free.append(b - a)
        for h, m in N.torsion:
            tors.append((h - a, m))
    for g, n in M.torsion:
        for h, m in N.torsion:
            p = min(n, m)
            tors.append((h - g + p - m, p))
    return _canonical(free, tors)
