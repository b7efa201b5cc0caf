"""Independent brute-force oracles versus the closed-form fast paths.

The oracles work with dense matrices over explicit weight windows and
share no algorithms with the production code; agreement on random input
is the main correctness argument for both sides.
"""

import random
from fractions import Fraction

import pytest

from stagger.formats import parse_formal
from stagger.grmod import (F, T, V, ZERO, MonoMatrix, Presentation,
                           canonical_decompose, gm, hom_dim, ext1_dim,
                           present, weight_dim)
from stagger.oracle import (
    _random_presentation,
    _shrink_module,
    agreement_suite,
    oracle_aisle,
    oracle_decompose,
    oracle_hom_ext,
    oracle_max_sub,
    oracle_member,
    oracle_step,
)
from stagger.sstruct import (SConfig, SITE_U, SITE_X, check_on_site, member,
                             site_z, step)
from stagger import grmod, oracle, sampling

W = SConfig("weight")
CFGS = (W, SConfig("trivial"))
SITES = (SITE_X, SITE_U, site_z(1), site_z(2), site_z(3))


def test_oracle_decompose_matches_fast_path():
    rng = random.Random(5)
    for _ in range(60):
        p = _random_presentation(rng)
        assert oracle_decompose(p) == canonical_decompose(p)


def test_oracle_decompose_anchor():
    # coker(x^2: F(-2) -> F(0)) = T(0, 2)
    p = present(T(0, 2))
    assert oracle_decompose(p) == T(0, 2)


def test_oracle_hom_ext_matches():
    rng = random.Random(6)
    for _ in range(60):
        M = sampling.random_module(rng)
        N = sampling.random_module(rng)
        oh, oe = oracle_hom_ext(M, N)
        assert oh == hom_dim(M, N)
        assert oe == ext1_dim(M, N)


def test_oracle_member_and_step_match():
    rng = random.Random(7)
    for _ in range(120):
        M = sampling.random_module(rng)
        w = rng.randint(-6, 6)
        d = rng.choice(["le", "ge"])
        assert oracle_member(SITE_X, W, d, w, M) == member(SITE_X, W, d, w, M)
        MT = sampling.random_torsion_module(rng, max_len=3)
        site = site_z(3)
        assert oracle_member(site, W, d, w, MT) == member(site, W, d, w, MT)
        assert oracle_step(site, W, MT) == step(site, W, MT)


def test_agreement_suite_green():
    rep = agreement_suite(seed=1, samples=120)
    assert rep.ok, "\n".join(rep.summary_lines())


def test_agreement_suite_other_seeds():
    for seed in (2, 3):
        rep = agreement_suite(seed=seed, samples=60)
        assert rep.ok


def test_shrink_module_deterministic_and_minimal():
    # pretend the bug is "any module containing a free generator of weight
    # >= 2 fails"; the shrinker must find a one-generator witness
    M = gm([4, 2, -1], [(3, 2), (0, 1)])

    def fails(m):
        return any(d >= 2 for d in m.free)

    small1 = _shrink_module(M, fails)
    small2 = _shrink_module(M, fails)
    assert small1 == small2
    assert fails(small1)
    assert small1.rank == 1 and not small1.torsion


def test_shrink_preserves_failure():
    rng = random.Random(9)
    for _ in range(40):
        M = sampling.random_module(rng, nonzero=True)

        def fails(m, M=M):
            return m.rank + len(m.torsion) >= 1

        small = _shrink_module(M, fails)
        assert fails(small)
        assert small.rank + len(small.torsion) == 1


# ---------------------------------------------------------------------------
# one window model per module per call
#
# The references below are the per-probe definitions: one public
# oracle_hom_ext call, and so one fresh window model, per probe.
# ---------------------------------------------------------------------------


def _ref_member(site, cfg, direction, w, M):
    check_on_site(site, M)
    if M.is_zero:
        return True
    if direction == "ge":
        fam = oracle._member_family(site, cfg, "le", w - 1, M)
        return all(oracle_hom_ext(C, M)[0] == 0 for C in fam)
    fam = oracle._member_family(site, cfg, "ge", w + 1, M)
    return all(oracle_hom_ext(M, G)[0] == 0 for G in fam)


def _ref_step(site, cfg, M):
    if M.is_zero:
        return None
    lo, hi = M.occupied_window()
    for w in range(min(lo, 0) - 1, max(hi, 0) + 2):
        if _ref_member(site, cfg, "le", w, M):
            return w if oracle_max_sub(site, cfg, w - 1, M).is_zero else None
    return None


def _ref_aisle(cfg, pU, pZ, comps, which):
    comps = {k: m for k, m in comps.items() if not m.is_zero}
    if not comps:
        return True
    for d, C in oracle._aisle_generators(cfg, pU, pZ, comps, which):
        if which == "le0":
            h = oracle_hom_ext(comps.get(d, ZERO), C)[0] \
                + oracle_hom_ext(comps.get(d + 1, ZERO), C)[1]
        else:
            h = oracle_hom_ext(C, comps.get(d, ZERO))[0] \
                + oracle_hom_ext(C, comps.get(d - 1, ZERO))[1]
        if h != 0:
            return False
    return True


def _site_module(rng, site):
    if site.kind == "X":
        return sampling.random_module(rng)
    if site.kind == "U":
        return sampling.random_module(rng).free_part()
    return sampling.random_torsion_module(rng, max_len=site.n)


def _perversity(rng, cfg):
    pU = rng.choice([-1, 0, 1])
    return pU, pU + (1 if cfg.z_mode == "weight" else rng.choice([0, 1]))


def test_member_and_step_equal_the_per_probe_reference():
    rng = random.Random(13)
    for _ in range(80):
        cfg, site = rng.choice(CFGS), rng.choice(SITES)
        M = _site_module(rng, site)
        w = rng.randint(-6, 6)
        for direction in ("le", "ge"):
            assert oracle_member(site, cfg, direction, w, M) == \
                _ref_member(site, cfg, direction, w, M), (site, cfg, w, M)
        assert oracle_step(site, cfg, M) == _ref_step(site, cfg, M), \
            (site, cfg, M)


def test_aisle_equals_the_per_probe_reference():
    rng = random.Random(14)
    for _ in range(60):
        cfg = rng.choice(CFGS)
        pU, pZ = _perversity(rng, cfg)
        comps = sampling.random_formal_components(rng, max_len=3)
        for which in ("le0", "ge0"):
            assert oracle_aisle(cfg, pU, pZ, comps, which) == \
                _ref_aisle(cfg, pU, pZ, comps, which), (cfg, pU, pZ, comps)


def test_aisle_window_covers_the_structure_sheaf_probe():
    # F(0) lies far above the components' weights: a window taken from the
    # components alone, padded, misses it
    comps = parse_formal("[-1] F(-6); [2] F(-6)").shift(3).components
    for cfg in CFGS:
        for which in ("le0", "ge0"):
            assert oracle_aisle(cfg, 1, 2, comps, which) == \
                _ref_aisle(cfg, 1, 2, comps, which)
    assert not oracle_aisle(W, 1, 2, comps, "ge0")


def test_reader_refuses_a_weight_outside_its_model():
    model = oracle._model_of_module(F(-6), -11, -1)
    assert oracle._hom_ext(F(-7), model) == (1, 0)
    with pytest.raises(AssertionError,
                       match=r"weight 0 outside the window \[-11, -1\]"):
        oracle._hom_ext(F(0), model)
    with pytest.raises(AssertionError, match="weight -12 outside"):
        oracle._hom_ext(T(-10, 2), model)


# ---------------------------------------------------------------------------
# lazy window models, integer entries and the composite memo
# ---------------------------------------------------------------------------


def _window_of(p):
    ws = list(p.gens) + list(p.rel.col_weights)
    return min(ws) - 2, max(ws) + 2


def _is_normal(e):
    """An integral entry is stored as an int."""
    return type(e) is int or (type(e) is Fraction and e.denominator != 1)


def test_lazy_model_reads_alike_in_any_order(monkeypatch):
    reduced = []
    real = oracle._reduce

    def counted(gens, cols, w):
        reduced.append(w)
        return real(gens, cols, w)

    monkeypatch.setattr(oracle, "_reduce", counted)
    rng = random.Random(21)
    for _ in range(500):
        p = _random_presentation(rng)
        lo, hi = _window_of(p)
        ws = list(range(lo, hi + 1))
        shuffled = list(ws)
        rng.shuffle(shuffled)
        reads = []
        for order in (ws[::-1], ws, shuffled):
            model = oracle._model_of_presentation(p, lo, hi)
            del reduced[:]
            for _twice in range(2):
                read = ({w: model.dims[w] for w in order},
                        {w: model.xmat[w] for w in order if w > lo})
            # every weight is reduced once, however often it is read
            assert sorted(reduced) == ws
            reads.append(read)
        assert reads[0] == reads[1] == reads[2], (p.gens, p.rel.entries)
        dims, xmat = reads[0]
        M = canonical_decompose(p)
        assert all(dims[w] == weight_dim(M, w) for w in ws)
        assert all(len(xmat[w]) == dims[w - 1] and
                   all(len(r) == dims[w] and all(map(_is_normal, r))
                       for r in xmat[w]) for w in ws[1:])


def test_lazy_model_never_reads_outside_its_window():
    model = oracle._model_of_module(gm([2], [(0, 3)]), -5, 4)
    for w in (-6, 5, 10 ** 9):
        with pytest.raises(AssertionError,
                           match=r"weight %d outside the window \[-5, 4\]" % w):
            model.dims[w]
    # x out of the window's floor would need the weight below it
    for w in (-5, 5):
        with pytest.raises(AssertionError,
                           match=r"weight %d outside the window \[-4, 4\]" % w):
            model.xmat[w]
    assert not model.reduced and not model.dims and not model.xmat
    # a dimension is read off the relation matrix: no weight is reduced
    assert model.dims[-5] == 1 and list(model.dims) == [-5]
    assert not model.reduced


_ENTRIES = (0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3),
            Fraction(5, 7), Fraction(4, 2))


def test_mat_rank_equals_the_rref_rank():
    rng = random.Random(22)
    cases = [[], [[]], [[], []], [[0, 0], [0, 0]], [[-2, 1], [4, -2]],
             [[-1, 0], [0, -3]], [[0, -5, 1], [-7, 0, 0]],
             [[Fraction(-1, 2), 0], [0, Fraction(-3, 4)], [1, 1]]]
    for _ in range(2000):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        rows = [[rng.choice(_ENTRIES) for _ in range(n)] for _ in range(m)]
        if m and rng.random() < 0.3:
            rows[rng.randrange(m)] = [0] * n
        if m > 1 and rng.random() < 0.3:  # a dependent row
            cs = [rng.choice(_ENTRIES) for _ in range(m - 1)]
            rows[0] = [sum(c * r[j] for c, r in zip(cs, rows[1:]))
                       for j in range(n)]
        cases.append(rows)
    ranks = set()
    for rows in cases:
        before = [list(r) for r in rows]
        red, pivots = oracle._rref(rows)
        assert oracle._mat_rank(rows) == len(red) == len(pivots), rows
        assert rows == before
        assert all(_is_normal(e) for r in red for e in r), rows
        ranks.add(len(red))
    assert ranks == set(range(7))


def test_composite_equals_a_plain_product_loop():
    rng = random.Random(23)
    for _ in range(200):
        p = _random_presentation(rng)
        lo, hi = _window_of(p)
        model = oracle._model_of_presentation(p, lo, hi)
        queries = [(w, k) for w in range(lo, hi + 1)
                   for k in range(w - lo + 1)]
        rng.shuffle(queries)
        for w, k in queries:
            plain = [[int(i == j) for j in range(model.dims[w])]
                     for i in range(model.dims[w])]
            for v in range(w, w - k, -1):
                plain = oracle._matmul(model.xmat[v], plain)
            assert oracle._composite(model, w, k) == plain, (p.gens, w, k)


def _built_models(monkeypatch):
    built = []
    real = oracle._model_of_module

    def counted(M, lo, hi):
        built.append(M)
        return real(M, lo, hi)

    monkeypatch.setattr(oracle, "_model_of_module", counted)
    return built


def test_each_call_builds_one_model_per_module(monkeypatch):
    built = _built_models(monkeypatch)
    rng = random.Random(15)
    calls = []
    for _ in range(30):
        cfg, site = rng.choice(CFGS), rng.choice(SITES)
        M = _site_module(rng, site)
        w = rng.randint(-6, 6)
        calls += [lambda a=(site, cfg, d, w, M): oracle_member(*a)
                  for d in ("le", "ge")]
        calls.append(lambda a=(site, cfg, M): oracle_step(*a))
        pU, pZ = _perversity(rng, cfg)
        comps = sampling.random_formal_components(rng, max_len=3)
        calls += [lambda a=(cfg, pU, pZ, comps, which): oracle_aisle(*a)
                  for which in ("le0", "ge0")]
    total = 0
    for call in calls:
        del built[:]
        call()
        assert len(built) == len(set(built)), call.__defaults__
        total += len(built)
    assert total > 0


def test_step_builds_each_probe_once(monkeypatch):
    built = _built_models(monkeypatch)
    M = gm([], [(12, 12), (0, 1)])
    assert oracle_step(SITE_X, W, M) == step(SITE_X, W, M)
    assert len(built) == len(set(built)) > 12


# ---------------------------------------------------------------------------
# ranks of powers of x read off blocks of the relation matrix
# ---------------------------------------------------------------------------


_COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7))


def _rank_presentation(rng):
    """A random presentation with dependent relation columns, Fraction
    coefficients, zero columns and repeated weights, its generators in no
    particular order."""
    gens = [rng.randint(-2, 2) for _ in range(rng.randint(1, 5))]
    cols = []  # (weight, {generator: coefficient})
    for _ in range(rng.randint(0, 5)):
        kind = rng.random()
        if kind < 0.15:  # a zero column
            cols.append((rng.randint(min(gens) - 3, max(gens)), {}))
        elif kind < 0.45 and len(cols) >= 2:  # a combination of two columns
            (va, ca), (vb, cb) = rng.sample(cols, 2)
            a, b = rng.choice(_COEFFS), rng.choice(_COEFFS)
            col = {i: a * ca.get(i, 0) + b * cb.get(i, 0)
                   for i in set(ca) | set(cb)}
            cols.append((min(va, vb) - rng.randint(0, 2),
                         {i: c for i, c in col.items() if c}))
        else:
            rows = [i for i in range(len(gens)) if rng.random() < 0.6]
            if rows:
                v = min(gens[i] for i in rows) - rng.randint(0, 3)
                cols.append((v, {i: rng.choice(_COEFFS) for i in rows}))
    rel = MonoMatrix(tuple(gens), tuple(v for v, _ in cols))
    for j, (_v, col) in enumerate(cols):
        for i, c in col.items():
            rel.set(i, j, c)
    return Presentation(tuple(gens), rel)


def _x_power_ranks(model, lo, hi):
    """(j, w) -> rank of x^j : M_{w+j} -> M_w, as the rank of the product
    xmat[w+1] ... xmat[w+j] of the model's explicit x-matrices."""
    def dim(v):
        return len(model.reduced[v][3])

    def times(a, b, n):  # a (m x k) times b (k x n)
        return [[sum(row[t] * b[t][c] for t in range(len(row)))
                 for c in range(n)] for row in a]

    ranks = {}
    for w in range(lo, hi + 1):
        prod = [[int(i == k) for k in range(dim(w))] for i in range(dim(w))]
        ranks[(0, w)] = dim(w)
        for v in range(w + 1, hi + 1):
            prod = times(prod, model.xmat[v], dim(v))
            ranks[(v - w, w)] = len(oracle._rref(prod)[0])
    return ranks


def test_ranks_of_x_equal_x_matrix_products():
    rng = random.Random(24)
    kinds = {"fraction": 0, "dependent": 0, "zero column": 0,
             "repeated weight": 0}
    for _ in range(300):
        p = _rank_presentation(rng)
        lo, hi = _window_of(p)
        model = oracle._model_of_presentation(p, lo, hi)
        ref = _x_power_ranks(oracle._model_of_presentation(p, lo, hi), lo, hi)
        assert {(j, w): model.rank(j, w) for j, w in ref} == ref, \
            (p.gens, p.rel.col_weights, p.rel.entries)
        assert all(model.dims[w] == ref[(0, w)] for w in range(lo, hi + 1))
        cols = [[p.rel.entries.get((i, j), 0) for i in range(len(p.gens))]
                for j in range(len(p.rel.col_weights))]
        nonzero = [c for c in cols if any(c)]
        kinds["fraction"] += any(type(c) is Fraction
                                 for c in p.rel.entries.values())
        kinds["zero column"] += len(nonzero) < len(cols)
        kinds["dependent"] += oracle._mat_rank(nonzero) < len(nonzero)
        kinds["repeated weight"] += len(set(p.gens)) < len(p.gens)
        with pytest.raises(AssertionError, match="weight %d outside" % (hi + 1)):
            model.rank(hi - lo, lo + 1)
    assert all(kinds.values()), kinds


def test_oracles_share_no_algorithm_with_the_fast_paths(monkeypatch):
    # with the sparse echelon sweep and the persistence pairing broken, every
    # oracle still answers, and answers as before
    rng = random.Random(25)
    calls = []
    for _ in range(30):
        cfg, site = rng.choice(CFGS), rng.choice(SITES)
        M, N = _site_module(rng, site), sampling.random_module(rng)
        w = rng.randint(-6, 6)
        pU, pZ = _perversity(rng, cfg)
        comps = sampling.random_formal_components(rng, max_len=3)
        direction, which = rng.choice(["le", "ge"]), rng.choice(["le0", "ge0"])
        calls += [(oracle_decompose, (_random_presentation(rng),)),
                  (oracle_decompose, (_rank_presentation(rng),)),
                  (oracle_hom_ext, (M, N)),
                  (oracle_member, (site, cfg, direction, w, M)),
                  (oracle_step, (site, cfg, M)),
                  (oracle_max_sub, (site, cfg, w, M)),
                  (oracle_aisle, (cfg, pU, pZ, comps, which))]
    answers = [call(*args) for call, args in calls]

    def broken(*_args, **_kwargs):
        raise RuntimeError("a fast-path algorithm was called")

    for name in ("_echelon_insert", "_pairing_homology", "_rank_steps"):
        monkeypatch.setattr(grmod, name, broken)
    with pytest.raises(RuntimeError):
        canonical_decompose(_random_presentation(rng))
    assert [call(*args) for call, args in calls] == answers
