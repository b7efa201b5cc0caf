"""Derived-level machinery: duality, (co)restriction to thickenings,
derived hom, chain complexes, cones and normal forms."""

import doctest
import math
import random
import time
from fractions import Fraction

import pytest

from stagger import derived, stag
from stagger.oracle import _mat_rank
from stagger.grmod import (
    F, MonoMatrix, Presentation, T, V, canonical_decompose,
    direct_sum, free_kernel, gm, module_map, weight_dim,
)
from stagger.derived import (
    ChainComplex,
    ChainMap,
    FormalObject,
    chain_map_on_embeds,
    cone,
    derived_hom,
    dualize,
    formal,
    free_embed,
    li_star,
    normal_form,
    push_z,
    r_gamma_z,
    restrict_u,
    ri_flat,
    std_truncate,
)
from stagger.sstruct import SConfig, SITE_X, site_z
from stagger.stag import Perversity, stag_truncate
from stagger import sampling


def _random_formal(rng):
    return FormalObject(
        sampling.random_formal_components(rng, -2, 2, max_len=4)
    )


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------


def test_dualize_anchors():
    assert dualize(formal(F(3), 0)) == formal(F(-3), 0)
    assert dualize(formal(F(0), 2)) == formal(F(0), -2)
    # D(T(g,n)[0]) = T(n-g, n)[1]: Serre duality shifts torsion by one
    assert dualize(formal(T(0, 1), 0)) == formal(T(1, 1), 1)
    assert dualize(formal(T(2, 3), 0)) == formal(T(1, 3), 1)
    assert dualize(formal(V(1), 1)) == formal(V(0), 0)
    # additive: F(2) @ -1 and T(0,1) @ 0 both land at degree 1
    assert dualize(FormalObject({-1: F(2), 0: T(0, 1)})) == \
        formal(gm([-2], [(1, 1)]), 1)


def test_dualize_involutive():
    rng = random.Random(11)
    for _ in range(200):
        Fo = _random_formal(rng)
        assert dualize(dualize(Fo)) == Fo


def test_duality_exchanges_li_and_ri():
    rng = random.Random(12)
    for _ in range(200):
        Fo = _random_formal(rng)
        n = rng.randint(1, 4)
        assert dualize(li_star(Fo, n)) == ri_flat(dualize(Fo), n)


# ---------------------------------------------------------------------------
# li* / ri-flat
# ---------------------------------------------------------------------------


def test_li_star_anchors():
    got = li_star(formal(F(-1), 0), 1)
    assert got.component(0) == V(-1)
    assert got.component(-1).is_zero
    # derived tensor of a torsion module picks up the kernel in degree -1
    got = li_star(formal(T(1, 2), 0), 2)
    assert got == FormalObject({-1: T(-1, 2), 0: T(1, 2)})
    # additive: the kernel of T(1,2) @ 1 lands beside the quotient of F(0)
    got = li_star(FormalObject({0: F(0), 1: T(1, 2)}), 2)
    assert got == FormalObject({0: gm([], [(0, 2), (-1, 2)]), 1: T(1, 2)})


def test_ri_flat_anchors():
    assert ri_flat(formal(F(-2), 0), 1) == formal(V(-1), 1)
    # the dualizing module of the reduced point
    assert ri_flat(formal(F(0), 0), 1) == formal(V(1), 1)
    assert ri_flat(formal(T(1, 2), 0), 2) == FormalObject({0: T(1, 2), 1: T(3, 2)})
    # additive: the twisted quotient of T(1,2) @ 0 lands beside ker of T(0,1)
    assert ri_flat(FormalObject({0: T(1, 2), 1: T(0, 1)}), 2) == \
        FormalObject({0: T(1, 2), 1: gm([], [(3, 2), (0, 1)]), 2: T(2, 1)})


def test_li_star_free_is_underived():
    rng = random.Random(13)
    for _ in range(60):
        d = rng.randint(-6, 6)
        n = rng.randint(1, 4)
        got = li_star(formal(F(d), 0), n)
        assert got == formal(T(d, n), 0)


def test_push_and_restrict():
    assert push_z(1, formal(V(2), 0)) == formal(T(2, 1), 0)
    # the open orbit is free, so twists trivialize and torsion dies
    got = restrict_u(formal(gm([3], [(1, 2)]), 0))
    assert got.component(0) == gm([0])


def test_r_gamma_z_shapes():
    g = r_gamma_z(formal(gm([0], [(2, 1)]), 0))
    assert g.torsion[0] == V(2)
    (cf,) = g.cofree[1]
    assert cf.socle == 1
    # weights at the socle and above are present, below absent
    for w, want in ((1, 1), (5, 1), (0, 0)):
        assert weight_dim(g.torsion.get(1, gm()), w) \
            + sum(w >= c.socle for c in g.cofree[1]) == want


# ---------------------------------------------------------------------------
# derived hom
# ---------------------------------------------------------------------------


def test_derived_hom_anchors():
    assert derived_hom(SITE_X, formal(F(0), 0), formal(F(0), 0)) == {0: 1}
    # ext of a skyscraper against a deep twist sits one degree up
    assert derived_hom(SITE_X, formal(T(-1, 1), 0), formal(F(-2), 1)) == {2: 1}
    assert derived_hom(SITE_X, formal(T(0, 1), 0), formal(T(-1, 1), 0)) == {1: 1}


def test_derived_hom_visits_only_occupied_degrees():
    # degrees +-10^6 answer as fast as +-10, with every t moved along:
    # t = (j - k) + e for occupied degrees k, j and e in {0, 1}
    def objs(d):
        return (FormalObject({-d: direct_sum(F(0), T(0, 2)), d: T(1, 1)}),
                FormalObject({-d: direct_sum(T(0, 1), F(-1)), d: F(2)}))

    small = derived_hom(SITE_X, *objs(10))
    assert len(small) >= 4 and set(t % 10 for t in small) == {0, 1}
    t0 = time.perf_counter()
    big = derived_hom(SITE_X, *objs(10**6))
    assert time.perf_counter() - t0 < 1
    assert big == {t // 10 * 10**6 + t % 10: d for t, d in small.items()}
    assert list(big) == sorted(big)


def test_derived_hom_semisimple_point():
    z1 = site_z(1)
    assert derived_hom(z1, formal(V(0), 0), formal(V(0), 0)) == {0: 1}
    assert derived_hom(z1, formal(V(0), 0), formal(V(1), 0)) == {}


def test_derived_hom_refuses_thickenings():
    with pytest.raises(ValueError):
        derived_hom(site_z(2), formal(V(0), 0), formal(V(0), 0))


def test_derived_hom_shift_equivariance():
    rng = random.Random(14)
    for _ in range(60):
        A, B = _random_formal(rng), _random_formal(rng)
        s = rng.randint(-2, 2)
        base = derived_hom(SITE_X, A, B)
        shifted = derived_hom(SITE_X, A.shift(s), B.shift(s))
        assert base == shifted
        # Hom(A, B[s][t]) = Hom(A, B[s+t]), so shifting B reindexes by -s
        moved = derived_hom(SITE_X, A, B.shift(s))
        assert moved == {t - s: d for t, d in base.items()}


def test_pushforward_adjunction_reduced_point():
    """Hom_{Z_1}(Li* F, G) == Hom_X(F, i_* G), degreewise."""
    rng = random.Random(7)
    for _ in range(200):
        Fo = FormalObject(
            sampling.random_formal_components(rng, -1, 1, max_len=3)
        )
        G = formal(sampling.random_torsion_module(rng, max_len=1), rng.randint(-1, 1))
        assert derived_hom(site_z(1), li_star(Fo, 1), G) == derived_hom(
            SITE_X, Fo, push_z(1, G)
        )


# ---------------------------------------------------------------------------
# complexes, cones, normal forms
# ---------------------------------------------------------------------------


def test_free_embed_round_trip():
    rng = random.Random(15)
    for _ in range(120):
        Fo = _random_formal(rng)
        c = free_embed(Fo)
        assert c.validate() == []
        assert normal_form(c) == Fo


def test_cone_of_zero_map_splits():
    A = formal(F(1), 0)
    B = formal(T(0, 2), 0)
    phi = chain_map_on_embeds(A, B, {})
    assert phi.validate() == []
    assert normal_form(cone(phi)) == FormalObject(
        {**B.components, **A.shift(1).components})


def test_cone_of_identity_vanishes():
    M = gm([2, 0], [(1, 2)])
    f = module_map(M, M, {(i, i): 1 for i in range(3)})
    phi = chain_map_on_embeds(formal(M), formal(M), {0: f.mat.entries})
    assert phi.validate() == []
    assert normal_form(cone(phi)).is_zero


@pytest.mark.parametrize("M, N, cok", [
    # 0 -> F(0) -x-> F(1) -> T(1,1) -> 0 realized as a cone
    (F(0), F(1), T(1, 1)),
    # torsion into torsion by x^e, e > 0: the relation x^n e_j goes to
    # x^(e + n - m) times the target's relation x^m e_i
    (T(0, 1), T(1, 2), T(1, 1)),
    (T(-1, 2), T(1, 4), T(1, 2)),
], ids=["free", "torsion_x", "torsion_x2"])
def test_cone_of_x_multiplication(M, N, cok):
    f = module_map(M, N, {(0, 0): 1})
    phi = chain_map_on_embeds(formal(M), formal(N), {0: f.mat.entries})
    assert phi.validate() == []
    assert normal_form(cone(phi)) == formal(cok, 0)


def _scalar(c=1, dst=(0,), src=(0,)):
    """The matrix between one-generator terms sending e to c * e."""
    return MonoMatrix(dst, src, {(0, 0): c})


def test_validate_reports_nonzero_square_of_d():
    P = (0,)
    c = ChainComplex({0: P, 1: P, 2: P}, {0: _scalar(), 1: _scalar()})
    assert c.validate() == ["d^2 != 0 at degree 0"]


def test_validate_reports_diff_with_wrong_endpoints():
    # d_0 is written for terms (1,) -> (1,), but term 0 is (0,)
    c = ChainComplex({0: (0,), 1: (1,)}, {0: _scalar(1, (1,), (1,))})
    assert c.validate() == ["diff 0 has wrong endpoints"]
    with pytest.raises(ValueError,
                       match=r"^invalid complex: diff 0 has wrong endpoints$"):
        normal_form(c)


def test_chain_map_validate_reports_non_commuting_square():
    P = (0,)
    A = ChainComplex({0: P, 1: P}, {0: _scalar()})
    phi = ChainMap(A, A, {0: _scalar(), 1: _scalar(0)})
    assert phi.validate() == ["square at degree 0 does not commute"]
    assert ChainMap(A, A, {0: _scalar(), 1: _scalar()}).validate() == []
    # a missing degree reads as zero: d f_0 = d but f_1 d = 0
    assert ChainMap(A, A, {0: _scalar()}).validate() \
        == ["square at degree 0 does not commute"]


@pytest.mark.parametrize("maps, errs", [
    # the target term at degree 1 is (1,), not (0,)
    ({0: _scalar(), 1: _scalar()}, ["component 1 has wrong endpoints"]),
    # a source weight that term 0 does not have
    ({0: _scalar(1, (0,), (-1,))}, ["component 0 has wrong endpoints"]),
    # a component at a degree where both ends are zero
    ({3: _scalar()}, ["component 3 has wrong endpoints"]),
    ({0: _scalar(), 1: MonoMatrix((0,), (1,)), 2: _scalar()},
     ["component 1 has wrong endpoints", "component 2 has wrong endpoints"]),
], ids=["target", "source", "missing_term", "two"])
def test_chain_map_validate_reports_wrong_endpoints(maps, errs):
    A = ChainComplex({0: (0,), 1: (0,)}, {0: _scalar()})
    B = ChainComplex({0: (0,), 1: (1,)}, {0: _scalar()})
    assert ChainMap(A, B, maps).validate() == errs


def test_chain_map_validate_does_not_change_the_map():
    phi = chain_map_on_embeds(FormalObject({0: T(0, 1)}),
                              FormalObject({2: F(0)}), {})
    assert list(phi.maps) == []
    assert phi.validate() == []
    assert list(phi.maps) == []


def _random_mono(rng, row_weights, ncols):
    """Homogeneous matrix with Fraction entries, repeated column weights
    and, half the time, one zero column."""
    cw = [rng.randint(-4, 3) for _ in range(ncols)]
    m = MonoMatrix(row_weights, cw)
    zero_col = rng.randrange(ncols) if ncols and rng.random() < 0.5 else None
    for i, rw in enumerate(row_weights):
        for j in range(ncols):
            if j != zero_col and rw >= cw[j] and rng.random() < 0.6:
                m.set(i, j, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    return m


def _cancelling_mono(rng, nrows):
    """A homogeneous matrix whose later columns include exact linear
    combinations of earlier ones of weight >= theirs (they reduce to exactly
    0) and such combinations plus one stray entry (they cancel in part)."""
    rw = [rng.randint(-3, 3) for _ in range(nrows)]
    cw, cols = [], []
    for _ in range(rng.randint(nrows // 2, nrows + 5)):
        w = rng.randint(-4, 3)
        col = {}
        older = [c for v, c in zip(cw, cols) if v >= w and c]
        kind = rng.random()
        if older and kind < 0.6:
            for c in rng.sample(older, min(len(older), rng.randint(2, 4))):
                a = Fraction(rng.choice((1, -1, 2, -3)), rng.randint(1, 3))
                for i, v in c.items():
                    col[i] = col.get(i, 0) + a * v
            if kind < 0.2:
                room = [i for i, r in enumerate(rw) if r >= w]
                if room:
                    i = rng.choice(room)
                    col[i] = col.get(i, 0) + 1
        else:
            for i, r in enumerate(rw):
                if r >= w and rng.random() < 0.3:
                    col[i] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        cw.append(w)
        cols.append({i: v for i, v in col.items() if v})
    m = MonoMatrix(rw, cw)
    for j, col in enumerate(cols):
        for i, v in col.items():
            m.set(i, j, v)
    return m


def _certify_wide_cone_matrices():
    """The differentials of one chain-level truncation cone of a wide object
    (6-12 free and 6-12 torsion summands per degree), the matrices the
    homology certificate sweeps."""
    rng = random.Random(5)
    Fo = FormalObject({
        k: gm([rng.randint(-6, 6) for _ in range(rng.randint(6, 12))],
              [(rng.randint(-6, 6), rng.randint(1, 4))
               for _ in range(rng.randint(6, 12))])
        for k in range(-2, 3)
    })
    _b, _a, chain = stag._truncation_witness(
        SConfig("weight"), Perversity(0, 1), Fo, 0)
    c = cone(chain)
    return [c.diffs[k] for k in sorted(c.diffs)]


def test_rank_steps_match_dense_reference():
    """The one-sweep ranks (the number of rank steps >= w) equal dense
    ranks of the (rows >= w) x (cols >= w) coefficient submatrix, the
    reference the certificate used to compute, here ranked by the
    oracle's fraction-free (Bareiss) rank, over a window past every weight."""
    rng = random.Random(21)
    cases = [MonoMatrix([], []), MonoMatrix([1, 0], []),
             MonoMatrix([], [2, -1])]
    for _ in range(300):
        rw = [rng.randint(-3, 3) for _ in range(rng.randint(0, 6))]
        a = _random_mono(rng, rw, rng.randint(0, 6))
        cases.append(a)
        cases.append(a.hstack(_random_mono(rng, rw, rng.randint(0, 6))))
    # 20-60 rows with columns that cancel exactly, and a wide cone's [d | rel]
    crng = random.Random(57)
    cases += [_cancelling_mono(crng, n) for n in (20, 20, 30, 40, 60)]
    cases += _certify_wide_cone_matrices()
    for m in cases:
        steps = derived._rank_steps(m)
        assert steps == sorted(steps)
        assert set(steps) <= set(m.col_weights)
        ws = list(m.row_weights) + list(m.col_weights) or [0]
        for w in range(min(ws) - 2, max(ws) + 3):
            rows = [i for i, rw in enumerate(m.row_weights) if rw >= w]
            cols = [j for j, cw in enumerate(m.col_weights) if cw >= w]
            dense = [[m.get(i, j) for j in cols] for i in rows]
            assert sum(1 for v in steps if v >= w) == _mat_rank(dense), (m, w)


def _drop_one_summand(M):
    if M.free:
        return gm(M.free[1:], M.torsion)
    return gm((), M.torsion[1:])


@pytest.mark.parametrize("corrupt, where", [
    (lambda M: direct_sum(M, V(0)), "degree -1 weight 0"),
    (_drop_one_summand, "degree 0 weight 1"),
])
def test_certificate_rejects_wrong_homology(monkeypatch, corrupt, where):
    # the fault goes into the pairing read-out, one module per degree
    real = derived._pairing_homology
    monkeypatch.setattr(derived, "_pairing_homology", lambda t, d: {
        k: corrupt(h) for k, h in real(t, d).items()})
    f = module_map(F(0), F(1), {(0, 0): 1})
    phi = chain_map_on_embeds(formal(F(0)), formal(F(1)), {0: f.mat.entries})
    with pytest.raises(AssertionError,
                       match="homology certificate failed at " + where + ":"):
        normal_form(cone(phi))

    tr = stag_truncate(SConfig("weight"), Perversity(0, 1),
                       formal(F(2), 0), 0)
    errs = tr.audit()
    assert len(errs) == 1
    assert errs[0].startswith(
        "cone homology certificate: homology certificate failed at degree")


def test_certificate_needs_the_summand_end_weights(monkeypatch):
    """A stray T(-5,1) in H^0 of the cone of x: F(0) -> F(1) changes the
    dimension at weight -5 only, below every generator weight (0 and 1):
    the certificate sees it because -5 ends a summand of the read-out."""
    real = derived._pairing_homology
    monkeypatch.setattr(derived, "_pairing_homology", lambda t, d: {
        k: direct_sum(h, T(-5, 1)) if k == 0 else h
        for k, h in real(t, d).items()})
    c = cone(chain_map_on_embeds(formal(F(0)), formal(F(1)),
                                 {0: {(0, 0): 1}}))
    with pytest.raises(AssertionError,
                       match="failed at degree 0 weight -5: rank arithmetic "
                             "0, reconstruction 1"):
        normal_form(c)


# ---------------------------------------------------------------------------
# normal form against dense per-weight ranks
# ---------------------------------------------------------------------------

_COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))


def _random_summands(rng, ties):
    """A random module; with ``ties`` every weight of its embedding
    (generators and relation columns) is 0 or 1."""
    if ties:
        return gm([rng.choice((0, 1)) for _ in range(rng.randint(0, 4))],
                  [(1, 1)] * rng.randint(0, 3))
    return gm([rng.randint(-3, 3) for _ in range(rng.randint(0, 3))],
              [(rng.randint(-3, 3), rng.randint(1, 3))
               for _ in range(rng.randint(0, 3))])


def _random_embed_map(rng, ties=False, coeffs=_COEFFS):
    """A random chain map between two free embeddings: random generator
    links (free or torsion into torsion, where they respect relations) and
    random Ext links with coefficients from ``coeffs``, written by
    ``chain_map_on_embeds``."""
    Fo = FormalObject({k: _random_summands(rng, ties) for k in range(-1, 2)})
    Go = FormalObject({k: _random_summands(rng, ties) for k in range(-1, 2)})
    links = {}
    for k in range(-1, 2):
        src, dst = Fo.component(k), Go.component(k)
        nf, ng = len(src.free), len(dst.free)
        for j, ws in enumerate(src.gen_weights()):
            for i, wd in enumerate(dst.gen_weights()):
                if wd < ws or rng.random() < 0.4:
                    continue
                if j >= nf:  # torsion goes to torsion, respecting x^n
                    if i < ng:
                        continue
                    n, m = src.torsion[j - nf][1], dst.torsion[i - ng][1]
                    if (wd - ws) + n - m < 0:
                        continue
                links.setdefault(k, {})[(i, j)] = rng.choice(coeffs)
    ext = {}
    for k in range(-2, 1):
        src, dst = Fo.component(k + 1), Go.component(k)
        nf = len(src.free)
        for t, (ws, n) in enumerate(src.torsion):
            if any(j == nf + t for _i, j in links.get(k + 1, {})):
                continue
            for i, wd in enumerate(dst.gen_weights()):
                if wd >= ws - n and rng.random() < 0.3:
                    ext.setdefault(k, {})[(i, t)] = rng.choice(coeffs)
    phi = chain_map_on_embeds(Fo, Go, links, ext)
    assert phi.validate() == []
    return phi


def _dense_rank(mat, w):
    rows = [i for i, rw in enumerate(mat.row_weights) if rw >= w]
    cols = [j for j, cw in enumerate(mat.col_weights) if cw >= w]
    return _mat_rank([[mat.get(i, j) for j in cols] for i in rows])


def _dense_mismatches(c, hs):
    """(k, w, want, got) wherever ``hs[k]`` (a module per degree) has a
    weight dimension other than dim C^k_w - rank(d_k)_w - rank(d_{k-1})_w
    of the free complex ``c``, ranked densely by the oracle's Bareiss rank
    over the window of all generator weights."""
    ws = [w for t in c.terms.values() for w in t] or [0]
    bad = []
    for k in c.degrees():
        gens = c.term(k)
        for w in range(min(ws) - 2, max(ws) + 3):
            want = sum(1 for g in gens if g >= w)
            for d in (c.diffs.get(k), c.diffs.get(k - 1)):
                if d is not None:
                    want -= _dense_rank(d, w)
            got = weight_dim(hs.get(k, gm()), w)
            if want != got:
                bad.append((k, w, want, got))
    return bad


@pytest.mark.parametrize("ties", [False, True], ids=["spread", "ties01"])
def test_normal_form_agrees_with_dense_ranks(ties):
    rng = random.Random(41 + ties)
    for _ in range(60):
        c = cone(_random_embed_map(rng, ties))
        if ties:
            assert {w for t in c.terms.values() for w in t} <= {0, 1}
        H = normal_form(c)
        assert _dense_mismatches(c, H.components) == [], (c.terms, H)


def test_dense_rank_check_catches_corrupted_readout(monkeypatch):
    # with the certificate switched off, a read-out that loses one summand
    # still disagrees with the dense ranks
    monkeypatch.setattr(derived, "_certify", lambda c, hs: None)
    real = derived._pairing_homology
    monkeypatch.setattr(derived, "_pairing_homology", lambda t, d: {
        k: _drop_one_summand(h) for k, h in real(t, d).items()})
    rng = random.Random(43)
    c = cone(_random_embed_map(rng))
    while normal_form(c).is_zero:
        c = cone(_random_embed_map(rng))
    assert _dense_mismatches(c, normal_form(c).components) != []


def test_certificate_sweeps_each_differential_once(monkeypatch):
    swept = []
    real = derived._rank_steps

    def counted(mat):
        swept.append(mat)
        return real(mat)
    monkeypatch.setattr(derived, "_rank_steps", counted)
    rng = random.Random(45)
    cones = [c for c in (cone(_random_embed_map(rng)) for _ in range(10))
             if len(c.diffs) >= 3]
    assert cones
    for c in cones:
        swept.clear()
        normal_form(c)
        assert len(swept) == len(c.diffs)
        assert {id(m) for m in swept} == {id(d) for d in c.diffs.values()}


# ---------------------------------------------------------------------------
# the coefficient type never changes an answer
# ---------------------------------------------------------------------------


def _typed(m):
    return sorted((key, type(c), c) for key, c in m.entries.items())


def _scaled_to_int(m):
    """``m`` times the lcm of its denominators: every entry an ``int``."""
    s = math.lcm(*(c.denominator for c in m.entries.values()))
    out = MonoMatrix(m.row_weights, m.col_weights,
                     {key: s * c for key, c in m.entries.items()})
    assert all(type(c) is int for c in out.entries.values())
    return out


def _as_fractions(m):
    """A copy of ``m`` holding every entry as a ``Fraction``, written past
    ``MonoMatrix.set`` (which stores an integral value as an ``int``)."""
    out = MonoMatrix(m.row_weights, m.col_weights)
    out.entries = {key: Fraction(c) for key, c in m.entries.items()}
    return out


def test_coefficient_type_never_changes_an_answer():
    """An integral matrix and its twin holding the same values as
    ``Fraction`` give the same ranks, kernel (all ``Fraction``) and
    decomposition, an integral cone and its twin the same normal form,
    and no call changes the entries of what it is handed."""
    rng = random.Random(61)
    mats = []
    for _ in range(200):
        rw = [rng.randint(-3, 3) for _ in range(rng.randint(0, 6))]
        mats.append(_scaled_to_int(_random_mono(rng, rw, rng.randint(0, 6))))
    crng = random.Random(63)
    mats += [_scaled_to_int(_cancelling_mono(crng, n)) for n in (20, 30, 40)]
    mats += _certify_wide_cone_matrices()
    for m in mats:
        twin = _as_fractions(m)
        before = _typed(m), _typed(twin)
        assert derived._rank_steps(m) == derived._rank_steps(twin)
        ker = free_kernel(m)
        assert _typed(ker) == _typed(free_kernel(twin))
        assert all(type(c) is Fraction for c in ker.entries.values())
        assert canonical_decompose(Presentation(m.row_weights, m)) == \
            canonical_decompose(Presentation(twin.row_weights, twin))
        assert (_typed(m), _typed(twin)) == before
    for ties in (False, True):
        for _ in range(40):
            c = cone(_random_embed_map(rng, ties, coeffs=(1, -1, 2, -3)))
            assert all(type(v) is int
                       for d in c.diffs.values() for v in d.entries.values())
            twin = ChainComplex(terms=c.terms, diffs={
                k: _as_fractions(d) for k, d in c.diffs.items()})
            before = [(_typed(c.diffs[k]), _typed(twin.diffs[k]))
                      for k in sorted(c.diffs)]
            assert normal_form(c) == normal_form(twin)
            assert [(_typed(c.diffs[k]), _typed(twin.diffs[k]))
                    for k in sorted(c.diffs)] == before


def test_module_docstring_examples_run():
    # the examples in the module's own docstrings (normal_form's cone of x)
    tests = doctest.DocTestFinder().find(derived)
    results = [doctest.DocTestRunner().run(t) for t in tests]
    assert sum(r.attempted for r in results) == 3
    assert sum(r.failed for r in results) == 0


def test_std_truncate_partition():
    Fo = FormalObject({-1: F(2), 0: T(0, 1), 2: F(-1)})
    lo, hi = std_truncate(Fo, 0)
    assert lo == FormalObject({-1: F(2), 0: T(0, 1)})
    assert hi == FormalObject({2: F(-1)})
    assert FormalObject({**lo.components, **hi.components}) == Fo


def test_shift_composes():
    rng = random.Random(16)
    for _ in range(40):
        Fo = _random_formal(rng)
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        assert Fo.shift(a).shift(b) == Fo.shift(a + b)
        assert Fo.shift(0) == Fo
