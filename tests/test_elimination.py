"""Exact elimination at size: ``free_kernel`` and ``canonical_decompose``.

Contract tests run on random homogeneous matrices and pin the dependent
set the kernel sweep picks by coefficient ranks alone; the pinned outputs in
``golden/elim_*.json`` fix the exact kernel bases, decompositions and
kernel/image/cokernel triples on seeded scrambled presentations with 20,
40 and 80 generators and on random small maps.  The goldens were captured
from the earlier elimination that rescanned the whole entry dict at every
step, before ``grmod`` indexed the nonzeros; ``_scrambled`` and
``_random_map`` rebuild the same inputs.  Both functions now run on the
one echelon step ``grmod._echelon_insert``; the column Hermite loop and
the graded Smith loop with its pivot heap that the goldens were last
checked against are gone, and the goldens pass unchanged.  The sweep is
fraction-free: its tests pin that every basis vector is a primitive
integer vector with a positive pivot entry, and that inputs whose
coefficients overflow 64 bits give the oracle's answers, with ``Fraction``
kernel entries.
"""

import ast
import json
import math
import os
import random
import sys
from fractions import Fraction

import pytest

from stagger import grmod
from stagger.grmod import (
    GradedMap,
    MonoMatrix,
    Presentation,
    ZERO,
    canonical_decompose,
    fmt_module,
    free_kernel,
    gm,
    kernel_image_cokernel,
    module_map,
    present,
    weight_dim,
)
from stagger.oracle import _mat_rank, oracle_decompose

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "golden")
SRC = os.path.join(HERE, os.pardir, "src", "stagger")

COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-3),
          Fraction(1, 2), Fraction(-2, 3))
UNITS = (Fraction(2, 3), Fraction(-3, 2), Fraction(5))
DENSITY = 0.4   # share of the homogeneously allowed entries left nonzero


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _scrambled(seed, n):
    """A known module with ``n`` generators and a scrambled presentation.

    The canonical presentation is mixed by homogeneous elementary row and
    column operations and by row scalings with non-integer units until
    DENSITY of the homogeneously allowed entries are nonzero.  Returns
    (module, scrambled presentation, isomorphism onto ``present(module)``,
    wide matrix ``[rel | rel C]`` whose kernel has rank ``width(C)``).
    """
    rng = random.Random("elim-%d-%d" % (seed, n))
    nfree = rng.randint(n // 5, n // 2)
    M = gm([rng.randint(-6, 6) for _ in range(nfree)],
           [(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n - nfree)])
    canon = present(M)
    gens, colw = canon.gens, canon.rel.col_weights
    rel = [[Fraction(0)] * len(colw) for _ in gens]
    for (i, j), c in canon.rel.entries.items():
        rel[i][j] = c
    uinv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    goal = DENSITY * sum(1 for g in gens for v in colw if g >= v)
    for _ in range(40 * n):
        if sum(1 for row in rel for c in row if c) >= goal:
            break
        kind = rng.random()
        if kind < 0.45:
            # row_i += c x^(g_i - g_j) row_j; U^-1 gets col_j -= c col_i
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j or gens[i] < gens[j]:
                continue
            c = rng.choice(COEFFS)
            rel[i] = [a + c * b for a, b in zip(rel[i], rel[j])]
            for row in uinv:
                row[j] -= c * row[i]
        elif kind < 0.9 and colw:
            # col_k += c x^(v_l - v_k) col_l
            k, l = rng.randrange(len(colw)), rng.randrange(len(colw))
            if k == l or colw[l] < colw[k]:
                continue
            c = rng.choice(COEFFS)
            for row in rel:
                row[k] += c * row[l]
        else:
            # row_i *= u; U^-1 gets col_i /= u
            i, u = rng.randrange(n), rng.choice(UNITS)
            rel[i] = [a * u for a in rel[i]]
            for row in uinv:
                row[i] /= u
    relm = MonoMatrix(gens, colw, _sparse(rel))
    p = Presentation(gens, relm)
    iso = GradedMap(p, canon, MonoMatrix(gens, gens, _sparse(uinv)))
    width = max(2, n // 10)
    ucol = [min(colw, default=0) - rng.randint(0, 2) for _ in range(width)]
    wide = relm.hstack(MonoMatrix(gens, ucol))
    for m in range(width):
        cm = [rng.choice(COEFFS) if rng.random() < 0.5 else 0 for _ in colw]
        for i in range(n):
            wide.set(i, len(colw) + m,
                     sum(rel[i][k] * cm[k] for k in range(len(colw))))
    return M, p, iso, wide


def _sparse(rows):
    return {(i, j): c for i, row in enumerate(rows)
            for j, c in enumerate(row) if c}


def _random_matrix(rng):
    """Random homogeneous matrix: repeated weights, Fraction entries, some
    rows and columns forced to zero, and 0-row / 0-column shapes."""
    nr, nc = rng.randint(0, 7), rng.randint(0, 7)
    rw = [rng.randint(-3, 3) for _ in range(nr)]
    cw = [rng.randint(-5, 3) for _ in range(nc)]
    zero_rows = {i for i in range(nr) if rng.random() < 0.15}
    zero_cols = {j for j in range(nc) if rng.random() < 0.15}
    dens = rng.random()
    m = MonoMatrix(rw, cw)
    for i in range(nr):
        for j in range(nc):
            if (i not in zero_rows and j not in zero_cols and rw[i] >= cw[j]
                    and rng.random() < dens):
                m.set(i, j, rng.choice(COEFFS))
    return m


DEGENERATE = ("cancel", "zero", "flat", "unit")


def _degenerate_matrix(rng, kind):
    """A ``_random_matrix`` bent into one degenerate shape:

    * ``cancel``: extra columns x^(v_k - v) combinations of earlier ones,
      which reduce exactly to 0;
    * ``zero``: zero columns interleaved with the others;
    * ``flat``: every row and column weight equal;
    * ``unit``: a new first column c0 x^(g0 - g1) e0 + c1 e1 with g0 > g1,
      whose unit entry sits in the younger row, the older row above it.
    """
    m = _random_matrix(rng)
    rw, cw = m.row_weights, m.col_weights
    if kind == "cancel":
        combos = []
        for _ in range(rng.randint(1, 3)):
            ks = rng.sample(range(len(cw)), min(len(cw), rng.randint(1, 3)))
            v = min((cw[k] for k in ks), default=0) - rng.randint(0, 2)
            combos.append((v, {k: rng.choice(COEFFS) for k in ks}))
        out = m.hstack(MonoMatrix(rw, [v for v, _ in combos]))
        for n, (_v, cs) in enumerate(combos):
            for i in range(len(rw)):
                out.set(i, len(cw) + n,
                        sum(c * m.get(i, k) for k, c in cs.items()))
    elif kind == "zero":
        order = list(range(len(cw))) + [None] * rng.randint(1, 3)
        rng.shuffle(order)
        out = MonoMatrix(rw, [rng.randint(-5, 3) if k is None else cw[k]
                              for k in order])
        pos = {k: n for n, k in enumerate(order) if k is not None}
        out.entries = {(i, pos[k]): c for (i, k), c in m.entries.items()}
    elif kind == "flat":
        w = rng.randint(-3, 3)
        out = MonoMatrix([w] * len(rw), [w] * len(cw))
        out.entries = {ij: rng.choice(COEFFS) for ij in m.entries}
    else:
        g0, g1 = sorted(rng.sample(range(-3, 4), 2), reverse=True)
        out = MonoMatrix((g0, g1) + rw, (g1,) + cw)
        out.set(0, 0, rng.choice(COEFFS))
        out.set(1, 0, rng.choice(UNITS))
        for (i, k), c in m.entries.items():
            out.entries[(i + 2, k + 1)] = c
    return out


def _random_map(rng):
    """Random well-defined map between small canonical modules.

    A free source generator may go anywhere homogeneity allows; a torsion
    source generator T(g, n) only to torsion targets T(h, l) with
    h - g + n >= l, where x^n kills the image.
    """
    def module():
        return gm([rng.randint(-4, 4) for _ in range(rng.randint(0, 3))],
                  [(rng.randint(-4, 4), rng.randint(1, 3))
                   for _ in range(rng.randint(0, 3))])
    M, N = module(), module()
    src, dst = present(M), present(N)
    entries = {}
    for j, g in enumerate(src.gens):
        n = None if j < len(M.free) else M.torsion[j - len(M.free)][1]
        for i, h in enumerate(dst.gens):
            if h < g or rng.random() < 0.4:
                continue
            if n is not None:
                if i < len(N.free) or h - g + n < N.torsion[i - len(N.free)][1]:
                    continue
            entries[(i, j)] = rng.choice(COEFFS)
    return module_map(M, N, entries)


# ---------------------------------------------------------------------------
# free_kernel contract
# ---------------------------------------------------------------------------


def _coeff_rank(m, cols=None):
    """Rank over k[x] of the given columns (all by default): entries are
    monomials with forced exponents, so it is the rank of the coefficient
    matrix (x = 1), by the oracle's fraction-free (Bareiss) rank."""
    cols = range(m.ncols) if cols is None else cols
    return _mat_rank([[m.get(i, j) for j in cols] for i in range(m.nrows)])


def _check_kernel(m, ker):
    assert ker.row_weights == m.col_weights
    # homogeneous: every entry is a polynomial, x^k with k >= 0
    assert all(ker.exp(i, k) >= 0 for i, k in ker.entries)
    assert m.compose(ker).is_zero()
    assert ker.ncols == m.ncols - _coeff_rank(m)
    assert all(type(c) is Fraction for c in ker.entries.values())
    # the sweep's dependent set: a column is dependent iff it lies in the
    # span of the columns before it in sweep order (descending weight, index
    # order within a weight); kernel column k belongs to the k-th dependent
    # column, is 1 there and 0 at the other dependent columns
    seen, rank, dependent = [], 0, []
    for j in sorted(range(m.ncols), key=lambda j: -m.col_weights[j]):
        seen.append(j)
        grown = _coeff_rank(m, seen)
        if grown == rank:
            dependent.append(j)
        rank = grown
    dependent.sort()
    for k, own in enumerate(dependent):
        assert ker.col_weights[k] == ker.row_weights[own]
        assert all(ker.get(j, k) == (j == own) for j in dependent), \
            "kernel column %d is not the unit vector at column %d" % (k, own)


def test_free_kernel_contract_random():
    rng = random.Random(404)
    shapes = set()
    for _ in range(400):
        m = _random_matrix(rng)
        shapes.add((m.nrows == 0, m.ncols == 0))
        _check_kernel(m, free_kernel(m))
    assert shapes == {(False, False), (True, False), (False, True), (True, True)}
    for kind in DEGENERATE:
        grew = shrank = 0
        for _ in range(100):
            m = _degenerate_matrix(rng, kind)
            ker = free_kernel(m)
            _check_kernel(m, ker)
            grew += ker.ncols > 0
            shrank += ker.ncols < m.ncols
        assert grew and shrank, kind


@pytest.mark.parametrize("n", [5, 10, 20])
def test_free_kernel_contract_scrambled(n):
    for seed in range(3):
        _M, p, iso, wide = _scrambled(seed, n)
        _check_kernel(wide, free_kernel(wide))
        _check_kernel(p.rel, free_kernel(p.rel))
        big = iso.mat.hstack(iso.dst.rel)
        _check_kernel(big, free_kernel(big))


# ---------------------------------------------------------------------------
# oracle agreement and kernel / image / cokernel identities
# ---------------------------------------------------------------------------


def _permuted(rng, p):
    """``p`` with its generators and its relation columns each put in a
    random order: the same module, equal weights met in another order."""
    rows, cols = list(range(len(p.gens))), list(range(p.nrel))
    rng.shuffle(rows)
    rng.shuffle(cols)
    ri = {r: k for k, r in enumerate(rows)}
    ci = {c: k for k, c in enumerate(cols)}
    m = MonoMatrix([p.gens[r] for r in rows],
                   [p.rel.col_weights[c] for c in cols],
                   {(ri[i], ci[j]): c for (i, j), c in p.rel.entries.items()})
    return Presentation(m.row_weights, m)


@pytest.mark.parametrize("n", [5, 10, 15, 20])
def test_decompose_agrees_with_oracle_scrambled(n):
    for seed in range(2):
        M, p, _iso, _wide = _scrambled(seed, n)
        got = canonical_decompose(p)
        assert got == M
        assert oracle_decompose(p) == got
    rng = random.Random("degenerate-%d" % n)
    for kind in DEGENERATE:
        for _ in range(15):
            m = _degenerate_matrix(rng, kind)
            p = Presentation(m.row_weights, m)
            got = canonical_decompose(p)
            assert got == oracle_decompose(p), (kind, m)
            # ties between equal weights may be broken either way
            q = _permuted(rng, p)
            assert canonical_decompose(q) == got == oracle_decompose(q), \
                (kind, m, q.rel)
    # e1 + x^2 e0 = 0 on generators of weight 2 and 0 kills the younger
    # one: pivoting at the older row would give T(2,2) + F(0)
    p = Presentation((2, 0), MonoMatrix((2, 0), (0,), {(0, 0): 1, (1, 0): 1}))
    assert canonical_decompose(p) == oracle_decompose(p) == gm([2])
    # no generators, with and without a relation column
    for p in (Presentation(()), Presentation((), MonoMatrix((), (3,)))):
        assert canonical_decompose(p) == ZERO


def test_kernel_image_cokernel_identities():
    rng = random.Random(808)
    for _ in range(150):
        f = _random_map(rng)
        kic = kernel_image_cokernel(f)
        M, N = oracle_decompose(f.src), oracle_decompose(f.dst)
        ws = [w for X in (M, N) for w in X.occupied_window()]
        for w in range(min(ws) - 6, max(ws) + 2):
            assert weight_dim(kic.kernel, w) + weight_dim(kic.image, w) \
                == weight_dim(M, w)
            assert weight_dim(kic.image, w) + weight_dim(kic.cokernel, w) \
                == weight_dim(N, w)


# ---------------------------------------------------------------------------
# the fraction-free sweep: integer invariants and the Fraction boundary
# ---------------------------------------------------------------------------


def _recorded_sweeps(monkeypatch):
    """Wrap ``grmod._echelon_insert`` so that every basis it builds is kept,
    and check that every vector it is handed is already integer."""
    real, bases = grmod._echelon_insert, {}

    def insert(basis, vec, nrows):
        assert all(type(c) is int for c in vec.values()), vec
        bases.setdefault(id(basis), basis)  # kept alive, so ids stay unique
        return real(basis, vec, nrows)

    monkeypatch.setattr(grmod, "_echelon_insert", insert)
    return bases


def _check_basis(basis):
    for r, vec in basis.items():
        assert all(type(c) is int for c in vec.values()), vec
        assert min(vec) == r and vec[r] > 0, (r, vec)
        assert math.gcd(*vec.values()) == 1, (r, vec)


def test_sweep_basis_vectors_are_primitive_integers(monkeypatch):
    bases = _recorded_sweeps(monkeypatch)
    _M, p, iso, wide = _scrambled(0, 80)
    free_kernel(wide)
    free_kernel(iso.mat.hstack(iso.dst.rel))
    canonical_decompose(p)
    grmod._rank_steps(wide)
    assert iso.is_well_defined()
    rng = random.Random(606)
    for n in range(300):
        m = _random_matrix(rng) if n % 2 else \
            _degenerate_matrix(rng, DEGENERATE[n // 2 % len(DEGENERATE)])
        free_kernel(m)
        canonical_decompose(Presentation(m.row_weights, m))
    assert len(bases) > 300 and sum(map(len, bases.values())) > 1000
    for basis in bases.values():
        _check_basis(basis)


# coefficients whose numerators and denominators overflow 64 bits
BIG = (Fraction(10**20 + 1, 3**25), Fraction(-7, 2**40),
       Fraction(3**41, 10**20 + 7), Fraction(-(2**61 - 1), 5**19))


def _big(m, rng):
    """``m`` with every coefficient redrawn from BIG and COEFFS."""
    out = MonoMatrix(m.row_weights, m.col_weights)
    out.entries = {ij: rng.choice(BIG + COEFFS) for ij in m.entries}
    return out


def _scale_rows(m, units):
    out = MonoMatrix(m.row_weights, m.col_weights)
    out.entries = {(i, j): c * units[i] for (i, j), c in m.entries.items()}
    return out


def _dense_rank_at(m, w, extra=None):
    """Oracle rank of the columns of weight >= w (and ``extra``), on the rows
    of weight >= w."""
    rows = [i for i, g in enumerate(m.row_weights) if g >= w]
    cols = [j for j, v in enumerate(m.col_weights) if v >= w]
    return _mat_rank([[m.get(i, j) for j in cols]
                      + ([] if extra is None else [extra.get(i, 0)])
                      for i in rows])


def test_big_coefficients_agree_with_oracle():
    rng = random.Random(707)
    cases = [_big(_random_matrix(rng), rng) for _ in range(60)]
    cases += [_big(_degenerate_matrix(rng, kind), rng)
              for kind in DEGENERATE for _ in range(10)]
    for m in cases:
        _check_kernel(m, free_kernel(m))
        p = Presentation(m.row_weights, m)
        assert canonical_decompose(p) == oracle_decompose(p), m
        ws = list(m.row_weights) + list(m.col_weights) or [0]
        steps = grmod._rank_steps(m)
        for w in range(min(ws) - 1, max(ws) + 2):
            assert sum(1 for v in steps if v >= w) == _dense_rank_at(m, w), m
    # row scaling by units with huge denominators keeps the kernel, and the
    # normalized kernel basis is unique, so it comes out identical
    for seed in range(2):
        _M, p, _iso, wide = _scrambled(seed, 20)
        units = [rng.choice(BIG) for _ in wide.row_weights]
        big = _scale_rows(wide, units)
        ker = free_kernel(big)
        _check_kernel(big, ker)
        assert ker.entries == free_kernel(wide).entries
        q = Presentation(p.gens, _scale_rows(p.rel, units))
        assert canonical_decompose(q) == oracle_decompose(q) == _M


def test_big_coefficients_well_defined_agrees_with_oracle():
    rng = random.Random(808)
    seen = set()
    for n in range(200):
        src, dst = (Presentation(m.row_weights, m) for m in
                    (_big(_random_matrix(rng), rng) for _ in range(2)))
        if n % 2:
            # lands in the relations of dst, so it is well defined
            inner = MonoMatrix(dst.rel.col_weights, src.gens, {
                (i, j): rng.choice(BIG)
                for i, v in enumerate(dst.rel.col_weights)
                for j, g in enumerate(src.gens) if v >= g and rng.random() < 0.5})
            mat = dst.rel.compose(inner)
        else:
            mat = MonoMatrix(dst.gens, src.gens, {
                (i, j): rng.choice(BIG)
                for i, h in enumerate(dst.gens) for j, g in enumerate(src.gens)
                if h >= g and rng.random() < 0.5})
        f = GradedMap(src, dst, mat)
        elems = mat.compose(src.rel)
        want = all(
            _dense_rank_at(dst.rel, w) == _dense_rank_at(
                dst.rel, w, {i: elems.get(i, j) for i in range(elems.nrows)})
            for j, w in enumerate(elems.col_weights))
        assert f.is_well_defined() == want, (src, dst, mat)
        seen.add(want)
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# pinned outputs
# ---------------------------------------------------------------------------


def _matrix_record(m):
    return {"col_weights": list(m.col_weights),
            "entries": sorted([i, j, str(c)] for (i, j), c in m.entries.items())}


def _kic_record(f):
    kic = kernel_image_cokernel(f)
    return [fmt_module(kic.kernel), fmt_module(kic.image),
            fmt_module(kic.cokernel)]


def _scrambled_record(n):
    M, p, iso, wide = _scrambled(0, n)
    return {
        "module": fmt_module(M),
        "decompose": fmt_module(canonical_decompose(p)),
        "wide_kernel": _matrix_record(free_kernel(wide)),
        "iso_kernel": _matrix_record(free_kernel(iso.mat.hstack(iso.dst.rel))),
        "kic": _kic_record(iso),
    }


def _random_maps_record():
    rng = random.Random(909)
    return [_kic_record(_random_map(rng)) for _ in range(80)]


def _golden(name):
    with open(os.path.join(GOLDEN, name)) as fh:
        return json.load(fh)


@pytest.mark.parametrize("n", [20, 40, 80])
def test_elimination_golden_scrambled(n):
    got = _scrambled_record(n)
    assert got == _golden("elim_scrambled_%d.json" % n)
    assert got["decompose"] == got["module"]
    assert got["kic"] == ["0", got["module"], "0"]


def test_kernel_image_cokernel_golden_random_maps():
    assert _random_maps_record() == _golden("elim_kic_maps.json")


# ---------------------------------------------------------------------------
# stdlib only
# ---------------------------------------------------------------------------


def test_package_imports_stdlib_only():
    names = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
    assert "grmod.py" in names
    for name in names:
        with open(os.path.join(SRC, name)) as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                mods = [node.module]
            else:
                continue
            for mod in mods:
                assert mod.split(".")[0] in sys.stdlib_module_names, \
                    "%s imports %s" % (name, mod)
