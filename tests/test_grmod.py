"""Graded-module layer: canonical forms, Hom/Ext, tensor, internal hom."""

import doctest
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stagger import grmod
from stagger.grmod import (
    F,
    GradedMap,
    MonoMatrix,
    Presentation,
    T,
    V,
    canonical_decompose,
    direct_sum,
    ext1_dim,
    fmt_module,
    gm,
    hom_dim,
    _in_relation_span,
    dim_mismatch,
    internal_hom,
    module_map,
    present,
    summand_ends,
    tensor,
    weight_dim,
)
from stagger import sampling
from stagger.oracle import _mat_rank


def test_gm_canonical_ordering():
    M = gm([2, -1], [(0, 3), (0, 1), (-2, 2)])
    assert M.free == (-1, 2)
    assert M.torsion == ((-2, 2), (0, 1), (0, 3))
    # direct sum re-sorts
    assert direct_sum(gm([2]), gm([-1], [(0, 1)])) == gm([-1, 2], [(0, 1)])


def test_weight_dims():
    # F(d) occupies weights <= d, one dimension each
    assert [weight_dim(F(1), w) for w in range(-2, 3)] == [1, 1, 1, 1, 0]
    # T(g,n) occupies g, g-1, ..., g-n+1
    assert [weight_dim(T(0, 2), w) for w in range(-3, 2)] == [0, 0, 1, 1, 0]
    assert weight_dim(gm([0], [(0, 1)]), 0) == 2


def test_dim_mismatch_agrees_with_a_per_weight_walk():
    """On random small lists the multiset rule reports exactly the highest
    weight where a walk over a window past every entry sees the two counts
    differ, and None when the walk sees no difference."""
    rng = random.Random(16)

    def weights():
        return [rng.randint(-4, 4) for _ in range(rng.randint(0, 4))]

    def count(ups, downs, w):
        return sum(u >= w for u in ups) - sum(d >= w for d in downs)

    differing = 0
    for _ in range(3000):
        a, b = (weights(), weights()), (weights(), weights())
        if rng.random() < 0.3:  # an equal pair written in another order
            b = (a[0][::-1] + a[1][:1], a[1][::-1] + a[1][:1])
        ws = [w for ls in a + b for w in ls]
        lo, hi = min(ws, default=0), max(ws, default=0)
        walk = [w for w in range(lo - 2, hi + 3)
                if count(*a, w) != count(*b, w)]
        assert dim_mismatch(a, b) == max(walk, default=None)
        differing += bool(walk)
    assert 500 < differing < 2900
    # a module's summand ends count its weight dims
    for _ in range(500):
        M = sampling.random_module(rng)
        lo, hi = M.occupied_window()
        assert all(count(*summand_ends(M), w) == weight_dim(M, w)
                   for w in range(lo - 2, hi + 3))


def test_twist():
    assert gm([1], [(0, 2)]).twist(3) == gm([4], [(3, 2)])
    assert V(5) == T(5, 1)


def test_decompose_cyclic_presentation():
    # coker(x^2 : F(-2) -> F(0)) = T(0,2)
    rel = MonoMatrix((0,), (-2,))
    rel.set(0, 0, 1)
    assert canonical_decompose(Presentation((0,), rel)) == T(0, 2)


def test_decompose_chain_presentation():
    # two generators linked by x: gens (1, 0), relation e1*x - e0 = 0
    # kills the second generator: the module is free of rank 1 on weight 1
    rel = MonoMatrix((1, 0), (0,))
    rel.set(0, 0, 1)
    rel.set(1, 0, -1)
    assert canonical_decompose(Presentation((1, 0), rel)) == F(1)


def test_decompose_respects_weight_dims():
    rng = random.Random(5)
    for _ in range(60):
        M = sampling.random_module(rng)
        p = present(M)
        got = canonical_decompose(Presentation(p.gens, p.rel))
        assert got == M


def test_hom_anchors():
    # hom(F(a), N) is the weight-a slice of N
    assert hom_dim(F(0), F(0)) == 1
    assert hom_dim(F(1), F(0)) == 0
    assert hom_dim(F(-3), F(0)) == 1
    assert hom_dim(F(0), T(2, 3)) == 1
    assert hom_dim(F(0), T(2, 2)) == 0
    # torsion to torsion: x^n-torsion of the target at the right weight
    assert hom_dim(T(0, 1), T(0, 1)) == 1
    assert hom_dim(T(0, 1), T(0, 2)) == 0
    assert hom_dim(T(0, 2), T(0, 1)) == 1
    assert hom_dim(T(0, 1), F(5)) == 0
    # two free generators, each hitting the weight-0 line of T(0, 2)
    assert hom_dim(gm([0, 0]), T(0, 2)) == 2


def test_ext_anchors():
    assert ext1_dim(T(-1, 1), F(-2)) == 1
    assert ext1_dim(T(0, 1), T(-1, 1)) == 1
    # Ext^1(T(n,1), F(0)) is 1 exactly at n = 1
    for n in range(-3, 4):
        assert ext1_dim(T(n, 1), F(0)) == (1 if n == 1 else 0)
    assert ext1_dim(T(-1, 1), F(-2)) == 1


def test_hom_ext_additive_in_direct_sums():
    rng = random.Random(7)
    for _ in range(40):
        A = sampling.random_module(rng)
        B = sampling.random_module(rng)
        C = sampling.random_module(rng)
        assert hom_dim(direct_sum(A, B), C) == hom_dim(A, C) + hom_dim(B, C)
        assert ext1_dim(A, direct_sum(B, C)) == \
            ext1_dim(A, B) + ext1_dim(A, C)


def test_tensor_anchors():
    assert tensor(F(1), F(2)) == F(3)
    assert tensor(F(1), T(0, 2)) == T(1, 2)
    assert tensor(T(1, 2), T(3, 5)) == T(4, 2)
    assert tensor(gm([0, 1]), T(0, 1)) == gm([], [(0, 1), (1, 1)])


def test_internal_hom_anchors():
    assert internal_hom(F(2), T(0, 3)) == T(-2, 3)
    assert internal_hom(T(0, 2), F(1)) == gm([])
    assert internal_hom(T(0, 2), T(0, 2)) == T(0, 2)
    assert internal_hom(T(0, 1), T(0, 2)) == T(-1, 1)


def test_tensor_hom_adjunction_dims():
    rng = random.Random(13)
    for _ in range(120):
        A = sampling.random_module(rng)
        B = sampling.random_module(rng)
        C = sampling.random_module(rng)
        assert hom_dim(tensor(A, B), C) == hom_dim(A, internal_hom(B, C))


@given(st.integers(-6, 6), st.integers(-6, 6))
def test_tensor_free_is_twist(a, b):
    assert tensor(F(a), F(b)) == F(a + b)


@given(st.integers(-5, 5), st.integers(1, 4), st.integers(-3, 3))
@settings(max_examples=60)
def test_twist_commutes_with_tensor(g, n, d):
    assert tensor(F(d), T(g, n)) == T(g, n).twist(d)


def test_fmt_module_round_shape():
    assert fmt_module(gm([])) == "0"
    assert fmt_module(gm([1], [(0, 2)])) == "F(1) + T(0,2)"


def test_module_docstring_examples_run():
    (test,) = doctest.DocTestFinder(recurse=False).find(grmod)
    result = doctest.DocTestRunner().run(test)
    assert result.attempted == 6 and result.failed == 0


# ---------------------------------------------------------------------------
# well-definedness and zero maps: the relation-span test
# ---------------------------------------------------------------------------


def test_module_map_rejects_map_breaking_relations():
    # x * e = 0 in T(0,1), but e -> 1 would send it to x != 0 in F(0)
    with pytest.raises(ValueError, match="does not respect relations"):
        module_map(T(0, 1), F(0), {(0, 0): 1})
    assert module_map(F(0), T(0, 1), {(0, 0): 1}).is_well_defined()


def _dense_in_span(rel, elems):
    """Dense reference: a column of ``elems`` of weight w is in the span of
    the relation columns of weight >= w, on the rows of weight >= w, iff
    adding it keeps the oracle's rank of those columns."""
    for j, w in enumerate(elems.col_weights):
        rows = [i for i, g in enumerate(rel.row_weights) if g >= w]
        cols = [t for t, v in enumerate(rel.col_weights) if v >= w]
        dense = [[rel.get(i, t) for t in cols] for i in rows]
        aug = [r + [elems.get(i, j)] for r, i in zip(dense, rows)]
        if _mat_rank(aug) != _mat_rank(dense):
            return False
    return True


def _random_presentation(rng):
    if rng.random() < 0.4:
        return present(sampling.random_module(rng))
    gens = [rng.randint(-3, 3) for _ in range(rng.randint(0, 5))]
    colw = [rng.randint(-5, 3) for _ in range(rng.randint(0, 4))]
    entries = {(i, j): rng.choice((1, -1, 2, 3))
               for i, g in enumerate(gens) for j, v in enumerate(colw)
               if g >= v and rng.random() < 0.5}
    return Presentation(gens, MonoMatrix(gens, colw, entries))


def _random_matrix(rng, row_weights, col_weights, density):
    return MonoMatrix(row_weights, col_weights, {
        (i, j): rng.choice((1, -1, 2, 3))
        for i, g in enumerate(row_weights) for j, h in enumerate(col_weights)
        if g >= h and rng.random() < density})


def test_relation_span_matches_dense_reference():
    rng = random.Random(33)
    seen = set()
    for n in range(2400):
        src, dst = _random_presentation(rng), _random_presentation(rng)
        if n % 10 == 0:
            src = Presentation(())
        if n % 4 == 1:
            # lands in the relations: zero, and well defined; perturbed
            # half the time so that it is neither
            mat = dst.rel.compose(_random_matrix(
                rng, dst.rel.col_weights, src.gens, 0.6))
            if rng.random() < 0.5 and mat.entries:
                (i, j), c = next(iter(mat.entries.items()))
                mat.set(i, j, c + 1)
        else:
            mat = _random_matrix(rng, dst.gens, src.gens,
                                 rng.choice((0.0, 0.3, 0.7)))
        f = GradedMap(src, dst, mat)
        comp = mat.compose(src.rel)
        wd, zero = f.is_well_defined(), f.is_zero_map()
        assert wd == _in_relation_span(dst.rel, comp) \
            == _dense_in_span(dst.rel, comp), (src, dst, mat)
        assert zero == _in_relation_span(dst.rel, mat) \
            == _dense_in_span(dst.rel, mat), (src, dst, mat)
        seen.add(("wd", wd))
        seen.add(("zero", zero))
    assert seen == {("wd", True), ("wd", False),
                    ("zero", True), ("zero", False)}


# ---------------------------------------------------------------------------
# the coefficient rule of MonoMatrix
# ---------------------------------------------------------------------------


def _typed(m):
    return sorted((key, type(c), c) for key, c in m.entries.items())


def test_set_stores_integral_coefficients_as_int():
    m = MonoMatrix((1, 0), (0, 0))
    m.set(0, 0, Fraction(4, 2))
    m.set(0, 1, Fraction(-1, 3))
    m.set(1, 0, True)
    m.set(1, 1, 5)
    assert _typed(m) == [((0, 0), int, 2), ((0, 1), Fraction, Fraction(-1, 3)),
                         ((1, 0), int, 1), ((1, 1), int, 5)]
    # zeros of either type are dropped, and an absent entry reads int 0
    m.set(1, 1, Fraction(0))
    m.set(1, 0, 0)
    assert [key for key, _t, _c in _typed(m)] == [(0, 0), (0, 1)]
    assert type(m.get(1, 1)) is int and m.get(1, 1) == 0
    assert _typed(MonoMatrix((0,), (0,), {(0, 0): Fraction(3)})) == \
        [((0, 0), int, 3)]
    # compose keeps the rule: 1/2 * 2 is stored as the int 1
    half = MonoMatrix((0,), (0,), {(0, 0): Fraction(1, 2)})
    two = MonoMatrix((0,), (0,), {(0, 0): 2})
    assert _typed(half.compose(two)) == [((0, 0), int, 1)]
    assert half.compose(MonoMatrix((0,), (0,), {(0, 0): -2})).compose(
        half).entries == {(0, 0): Fraction(-1, 2)}
    # and the homogeneity check still holds
    with pytest.raises(ValueError, match="inhomogeneous"):
        MonoMatrix((0,), (1,)).set(0, 0, 1)


@pytest.mark.parametrize("c", [0.1, 1.0, 0.0, float("nan"), "1/2", None])
def test_set_refuses_a_float_or_other_non_rational(c):
    # Fraction(0.1) would store 3602879701896397/36028797018963968
    m = MonoMatrix((0,), (0,), {(0, 0): 3})
    with pytest.raises(TypeError, match="int or a Fraction"):
        m.set(0, 0, c)
    assert _typed(m) == [((0, 0), int, 3)]
    with pytest.raises(TypeError):
        MonoMatrix((0,), (0,), {(0, 0): c})


def test_integral_returns_a_fresh_integer_column():
    # the sweep reduces the column it is handed in place, so ``_integral``
    # must not hand it the caller's dict, even when every entry is an int
    for col in ({0: 2, 3: -4}, {0: Fraction(1, 2), 1: 3, 2: Fraction(-2, 3)},
                {5: 7}, {}):
        before = sorted((k, type(c), c) for k, c in col.items())
        out = grmod._integral(col)
        assert out is not col
        assert all(type(c) is int for c in out.values())
        assert sorted(out) == sorted(col)
        grmod._echelon_insert({}, out, 10)
        assert sorted((k, type(c), c) for k, c in col.items()) == before
    assert grmod._integral({0: Fraction(1, 2), 1: 3, 2: Fraction(-2, 3)}) \
        == {0: 3, 1: 18, 2: -4}
