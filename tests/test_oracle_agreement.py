"""Independent brute-force oracles versus the closed-form fast paths.

The oracles read exact ranks of x off a module's presentation and share
no algorithms with the production code; agreement on random input is the
main correctness argument for both sides.
"""

import json
import os
import random
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest

from stagger.formats import parse_formal
from stagger.grmod import (F, T, V, ZERO, GradedModule, MonoMatrix,
                           Presentation, canonical_decompose, ext1_dim,
                           fmt_module, gm, hom_dim, present, weight_dim)
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
                             sigma, site_z, step)
from stagger import grmod, oracle, sampling

W = SConfig("weight")
CFGS = (W, SConfig("trivial"))
SITES = (SITE_X, SITE_U, site_z(1), site_z(2), site_z(3))
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


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


def test_shrink_module_on_components_drops_degrees_then_summands():
    # a dict of modules keyed by degree loses whole degrees, then summands
    comps = {-1: gm([3], [(0, 2)]), 0: gm([2, 2, -4], [(1, 3)]), 2: T(5, 1)}

    def fails(cc):
        return any(2 in m.free for m in cc.values())

    assert _shrink_module(comps, fails) == {0: F(2)}


# Each fault wounds one fast path where its input holds a given summand, so
# the one minimal failing input is a single such summand.  ``real != cond``
# flips a boolean answer exactly where ``cond`` holds.
_FAULTS = {
    "agree_decompose": ("canonical_decompose", lambda real: lambda p: ZERO,
                        r"gens=(\(.*?\)) cols=(\(.*?\)) "),
    "agree_hom_ext": ("hom_dim",
                      lambda real: lambda M, N: real(M, N) + bool(M.free),
                      r"on \(F\(-?\d+\), 0\): "),
    "agree_member": ("member", lambda real: lambda s, c, d, w, M:
                     real(s, c, d, w, M) != bool(M.torsion),
                     r"on T\(-?\d+,1\): "),
    "agree_sigma": ("sigma", lambda real: lambda s, c, d, w, M:
                    SimpleNamespace(sub=grmod.direct_sum(
                        real(s, c, d, w, M).sub, T(0, 1)) if M.torsion
                        else real(s, c, d, w, M).sub),
                    r"on T\(-?\d+,1\): "),
    "agree_step": ("step", lambda real: lambda s, c, M:
                   None if M.torsion else real(s, c, M),
                   r"on T\(-?\d+,\d+\): fast=None oracle=-?\d+$"),
    "agree_aisle": ("aisle_member", lambda real: lambda c, p, Fo, which:
                    real(c, p, Fo, which)
                    != any(2 in m.free for m in Fo.components.values()),
                    r"on (\{-?\d+: 'F\(2\)'\}): "),
}


@pytest.mark.parametrize("label", sorted(_FAULTS))
def test_every_agreement_check_records_a_shrunk_witness(monkeypatch, label):
    name, wound, pattern = _FAULTS[label]
    monkeypatch.setattr(oracle, name, wound(getattr(oracle, name)))
    rep = agreement_suite(seed=1, samples=60)
    assert {k for k, c in rep.checks.items() if c.violations} == {label}
    msgs = rep.checks[label].violations
    assert msgs and all(re.search(pattern, m) for m in msgs), msgs
    if label == "agree_decompose":
        # a presentation is echoed as drawn: the first with a nonzero cokernel
        rng = random.Random(1)
        drawn = (_random_presentation(rng) for _ in range(60))
        p = next(q for q in drawn if not canonical_decompose(q).is_zero)
        assert "gens=%r cols=%r " % (p.gens, p.rel.col_weights) in msgs[0]


def _shown(x):
    """One argument of a fast-path call as the draw-stream golden prints it:
    a module by ``fmt_module``, a presentation by its generators, columns
    and entries, a config by its mode, anything else by ``str``."""
    if isinstance(x, GradedModule):
        return fmt_module(x)
    if isinstance(x, Presentation):
        return "gens=%r cols=%r entries=%r" % (
            x.gens, x.rel.col_weights, sorted(x.rel.entries.items()))
    if isinstance(x, SConfig):
        return x.z_mode
    return str(x)


def _fast_path_calls(monkeypatch, seed, samples):
    """Every call ``agreement_suite`` makes to its six fast paths, in order,
    each fast path wrapped in ``oracle``'s namespace as _FAULTS wounds it."""
    calls = []
    for name in ("canonical_decompose", "hom_dim", "member", "sigma", "step",
                 "aisle_member"):
        def record(*args, name=name, real=getattr(oracle, name)):
            calls.append("%s(%s)" % (name, ", ".join(map(_shown, args))))
            return real(*args)
        monkeypatch.setattr(oracle, name, record)
    agreement_suite(seed=seed, samples=samples)
    return calls


def test_agreement_suite_draw_stream_is_pinned(monkeypatch):
    # a clean run prints only pass counts, so a change in what the suite
    # draws, or in the order it draws it, shows only here.  A deliberate
    # change regenerates the golden: ``_fast_path_calls`` at seed 3 and 20
    # samples, dumped as a JSON list of one call per line.
    calls = _fast_path_calls(monkeypatch, seed=3, samples=20)
    assert len(calls) == 6 * 20
    with open(os.path.join(GOLDEN, "oracle_draw_stream.json")) as fh:
        assert calls == json.load(fh)


def test_a_new_row_needs_no_other_edit(monkeypatch):
    # one more group in the table is one more check of the suite: a wrong
    # fast path there is reported, shrunk, under its row's name, and it
    # draws after every other group, whose checks pass as before
    before = agreement_suite(seed=1, samples=60)
    table = oracle._agreement_groups
    monkeypatch.setattr(oracle, "_agreement_groups", lambda: table() + [(
        lambda rng: (sampling.random_module(rng),),
        [("agree_dummy", lambda M: bool(M.torsion), lambda M: False,
          lambda M, f, o: "dummy mismatch on %s: fast=%r oracle=%r"
          % (fmt_module(M), f, o))])])
    rep = agreement_suite(seed=1, samples=60)
    dummy = rep.checks.pop("agree_dummy")
    assert dummy.passes > 0 and dummy.passes + len(dummy.violations) == 60
    assert dummy.violations and all(
        re.fullmatch(r"dummy mismatch on T\(-?\d+,1\): fast=True oracle=False",
                     m) for m in dummy.violations), dummy.violations
    assert {k: (c.passes, c.violations) for k, c in rep.checks.items()} == \
        {k: (c.passes, c.violations) for k, c in before.checks.items()}


# ---------------------------------------------------------------------------
# one rank model per subject per call
#
# The references below are the per-probe definitions: each probe triple is
# built into a module here, and read by one public oracle_hom_ext call, and
# so one fresh rank model, per probe.
# ---------------------------------------------------------------------------


def _probe_module(probe):
    kind, a, l = probe
    return gm([a]) if kind == "F" else gm([], [(a, l)])


def _ref_member(site, cfg, direction, w, M):
    check_on_site(site, M)
    if M.is_zero:
        return True
    if direction == "ge":
        fam = oracle._member_family(site, cfg, "le", w - 1, M)
        return all(oracle_hom_ext(_probe_module(C), M)[0] == 0 for C in fam)
    fam = oracle._member_family(site, cfg, "ge", w + 1, M)
    return all(oracle_hom_ext(M, _probe_module(G))[0] == 0 for G in fam)


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
    for d, probes in oracle._aisle_generators(cfg, pU, pZ, comps, which):
        for C in map(_probe_module, probes):
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


def _wide_module(rng, site):
    """A module past the sampling envelope: weights in [-12, 12], torsion
    up to length 8 (at most n on Z_n), up to four summands of each kind
    (free only on U)."""
    cap = 8 if site.kind != "Z" else min(8, site.n)
    free = [rng.randint(-12, 12) for _ in range(rng.randint(0, 4))] \
        if site.kind != "Z" else []
    if site.kind == "U":
        return gm(free)
    return gm(free, [(rng.randint(-12, 12), rng.randint(1, cap))
                     for _ in range(rng.randint(0, 4))])


def _perversity(rng, cfg):
    pU = rng.choice([-1, 0, 1])
    return pU, pU + (1 if cfg.z_mode == "weight" else rng.choice([0, 1]))


def test_member_and_step_equal_the_per_probe_reference():
    rng = random.Random(13)
    for i in range(80 + 300):
        cfg, site = rng.choice(CFGS), rng.choice(SITES)
        # past 80 cases, modules beyond the envelope (_wide_module)
        M = _site_module(rng, site) if i < 80 else _wide_module(rng, site)
        w = rng.randint(-6, 6) if i < 80 else rng.randint(-15, 15)
        for direction in ("le", "ge"):
            assert oracle_member(site, cfg, direction, w, M) == \
                _ref_member(site, cfg, direction, w, M), (site, cfg, w, M)
        assert oracle_step(site, cfg, M) == _ref_step(site, cfg, M), \
            (site, cfg, M)


def test_aisle_equals_the_per_probe_reference():
    rng = random.Random(14)
    for i in range(60 + 300):
        cfg = rng.choice(CFGS)
        pU, pZ = _perversity(rng, cfg)
        # past 60 cases, components beyond the envelope (_wide_module)
        comps = sampling.random_formal_components(rng, max_len=3) if i < 60 \
            else {k: _wide_module(rng, SITE_X) for k in range(-2, 3)
                  if rng.random() < 0.45}
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


def test_reads_into_a_probe_equal_the_hom_ext_oracle():
    # Hom and Ext^1 into a single string, read off the subject's own ranks
    # of x, against oracle_hom_ext into the probe module built here
    rng = random.Random(27)
    nonzero = {}
    for _ in range(2500):
        M = gm([rng.randint(-8, 8) for _ in range(rng.randint(0, 3))],
               [(rng.randint(-8, 8), rng.randint(1, 5))
                for _ in range(rng.randint(0, 3))])
        if M.is_zero:
            continue
        a, l = rng.randint(-10, 10), rng.randint(2, 5)
        model = oracle._model_of_module(M)
        for probe in (("T", a, l), ("T", a, 1), ("F", a, 0)):
            got = oracle._into(model, probe)
            assert got == oracle_hom_ext(M, _probe_module(probe)), (M, probe)
            for name, dim in zip(("hom", "ext"), got):
                key = (name, probe[0], probe[2] > 1)
                nonzero[key] = nonzero.get(key, 0) + (dim > 0)
    assert len(nonzero) == 6 and min(nonzero.values()) >= 100, nonzero


# ---------------------------------------------------------------------------
# rank models and the exact rank
# ---------------------------------------------------------------------------


def _window_of(p):
    ws = list(p.gens) + list(p.rel.col_weights)
    return min(ws) - 2, max(ws) + 2


def test_lazy_model_reads_alike_in_any_order():
    rng = random.Random(21)
    for _ in range(500):
        p = _random_presentation(rng)
        lo, hi = _window_of(p)
        ws = list(range(lo, hi + 1))
        reads = [(j, w) for w in ws for j in range(hi - w + 1)]
        shuffled = list(reads)
        rng.shuffle(shuffled)
        answers = []
        for order in (reads[::-1], reads, shuffled):
            model = oracle.RankModel(p)
            first, again = (({w: model.dim(w) for _j, w in order},
                             {(j, w): model.rank(j, w) for j, w in order})
                            for _twice in range(2))
            assert first == again
            answers.append(first)
        assert answers[0] == answers[1] == answers[2], (p.gens, p.rel.entries)
        dims = answers[0][0]
        M = canonical_decompose(p)
        assert all(dims[w] == weight_dim(M, w) for w in ws)


def test_model_is_exact_at_every_weight():
    # no window: a model reads dim and rank exactly at weights far from
    # its presentation and below its floor, and the probe reads into and
    # out of a single string equal hom_dim and ext1_dim there too
    rng = random.Random(31)
    below = 0
    for i in range(400):
        p = _rank_presentation(rng) if i % 2 else present(
            _wide_module(rng, SITE_X))
        if not p.gens:
            continue
        model, M = oracle.RankModel(p), canonical_decompose(p)
        lo, hi = _window_of(p)
        assert model.floor == lo
        far = [-10 ** 9, lo - 7, lo - 1, hi + 3, 10 ** 9]
        reads = [(j, w) for w in far + list(range(lo, hi + 1))
                 for j in (0, 1, 5, max(hi - w + 2, 0), 10 ** 9)]
        for j, w in reads:
            assert model.rank(j, w) == _string_rank(M, j, w), \
                (p.gens, p.rel.entries, j, w)
            assert model.dim(w) == _string_rank(M, 0, w)
        if M.is_zero:
            continue
        for a in [rng.randint(lo - 12, hi + 6) for _ in range(4)] + far[1:4]:
            below += a + 1 < model.floor
            for probe in (("F", a, 0), ("T", a, 1 + rng.randrange(4))):
                C = _probe_module(probe)
                assert oracle._into(model, probe) == \
                    (hom_dim(M, C), ext1_dim(M, C)), (M, probe)
                assert oracle._out_of(model, probe) == \
                    (hom_dim(C, M), ext1_dim(C, M)), (M, probe)
    assert below >= 300, below


_ENTRIES = (0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3),
            Fraction(5, 7), Fraction(4, 2))


def _fraction_rank(rows):
    """Rank by Gauss-Jordan elimination to reduced row echelon form, on
    ``Fraction`` entries."""
    mat = [[Fraction(e) for e in r] for r in rows]
    rank = 0
    for c in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank] = [e / mat[rank][c] for e in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], prow)]
        rank += 1
    return rank


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
        rank = oracle._mat_rank(rows)
        assert rank == _fraction_rank(rows), rows
        assert rows == before
        ranks.add(rank)
    assert ranks == set(range(7))


def test_mat_rank_on_non_unit_pivots_over_zeros():
    # Bareiss keeps a row whose pivot-column entry is 0 only while the pivot
    # equals the previous one; past a pivot such as 2 or -3 that row must be
    # scaled as well, or the next exact division goes wrong
    rng = random.Random(28)
    seen = {"p == 1": 0, "p != 1": 0}
    for _ in range(2000):
        m, n = rng.randint(2, 7), rng.randint(2, 7)
        rows = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 5, 6)) for _ in range(n)]
                for _ in range(m)]
        if rng.random() < 0.3:  # a dependent row
            rows[0] = [rng.choice((2, -3)) * a + b
                       for a, b in zip(rows[1], rows[-1])]
        assert oracle._mat_rank(rows) == _fraction_rank(rows), rows
        # the first step (p_prev = 1) meets a nonzero row with a 0 under p
        piv = next((r[0] for r in rows if r[0]), None)
        if piv is not None and any(not r[0] and any(r) for r in rows):
            seen["p == 1" if piv == 1 else "p != 1"] += 1
    assert min(seen.values()) >= 150, seen


def _built_models(monkeypatch):
    built = []
    real = oracle._model_of_module

    def counted(M):
        built.append(M)
        return real(M)

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


def test_probes_get_no_model(monkeypatch):
    # every Hom and Ext^1 of a search is read off its subjects' models: the
    # probes, however many, get none
    built = _built_models(monkeypatch)
    M = gm([], [(12, 12), (0, 1)])
    assert oracle_step(SITE_X, W, M) == step(SITE_X, W, M)
    for direction in ("le", "ge"):
        oracle_member(SITE_X, W, direction, 3, M)
    assert built == [M, M, M]
    del built[:]
    comps = {-1: M, 0: F(2), 1: M}
    for cfg in CFGS:
        for which in ("le0", "ge0"):
            oracle_aisle(cfg, 0, 1, comps, which)
            assert set(built) <= {M, F(2)}
    assert set(built) == {M, F(2)}


def test_max_sub_closed_form_on_wide_modules():
    # the sub's ranks of x are closed forms in those of M; they must give
    # sigma's sub at every level, far below and above M's weights
    rng = random.Random(26)
    kinds = {"X, w < 0": 0, "X, w >= 0": 0, "Z": 0, "proper": 0}
    for i in range(600):
        site = (SITE_X, SITE_X, site_z(2), site_z(5))[i % 4]
        M, w = _wide_module(rng, site), rng.randint(-15, 15)
        sub = sigma(site, W, "le", w, M).sub
        assert oracle_max_sub(site, W, w, M) == sub, (site, w, M)
        if i % 5 == 0:  # its probes make oracle_step the costly call
            assert oracle_step(site, W, M) == step(site, W, M), (site, M)
        kinds["Z" if site.kind == "Z" else
              "X, w < 0" if w < 0 else "X, w >= 0"] += 1
        kinds["proper"] += not sub.is_zero and sub != M
    assert min(kinds.values()) >= 100, kinds


# ---------------------------------------------------------------------------
# ranks of powers of x read off blocks of the relation matrix
# ---------------------------------------------------------------------------


_COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7))


def _rank_presentation(rng, n=5, span=2):
    """A random presentation with dependent relation columns, Fraction
    coefficients, zero columns and repeated weights: up to n generators of
    weights in [-span, span], in no particular order, and up to n
    relations."""
    gens = [rng.randint(-span, span) for _ in range(rng.randint(1, n))]
    cols = []  # (weight, {generator: coefficient})
    for _ in range(rng.randint(0, n)):
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


_KINDS = ("fraction", "dependent", "zero column", "repeated weight")


def _count_kinds(kinds, p):
    """Count in ``kinds`` which of ``_KINDS`` the presentation p has."""
    cols = [[p.rel.entries.get((i, j), 0) for i in range(len(p.gens))]
            for j in range(len(p.rel.col_weights))]
    nonzero = [c for c in cols if any(c)]
    kinds["fraction"] += any(type(c) is Fraction
                             for c in p.rel.entries.values())
    kinds["zero column"] += len(nonzero) < len(cols)
    kinds["dependent"] += oracle._mat_rank(nonzero) < len(nonzero)
    kinds["repeated weight"] += len(set(p.gens)) < len(p.gens)


def _string_rank(M, j, w):
    """The rank of x^j : M_{w+j} -> M_w, counted off the strings of M: the
    free summands F(d) with d >= w + j and the T(g, n) with g >= w + j and
    g - n < w."""
    return sum(1 for d in M.free if d >= w + j) \
        + sum(1 for g, n in M.torsion if g >= w + j and g - n < w)


def _string_ranks(M, lo, hi):
    """(j, w) -> ``_string_rank(M, j, w)`` for w in [lo, hi] and w + j <=
    hi."""
    return {(j, w): _string_rank(M, j, w)
            for w in range(lo, hi + 1) for j in range(hi - w + 1)}


def test_ranks_of_x_equal_the_string_counts():
    rng = random.Random(24)
    kinds = dict.fromkeys(_KINDS, 0)
    for _ in range(300):
        p = _rank_presentation(rng)
        lo, hi = _window_of(p)
        lo, hi = lo - 5, hi + 5
        model = oracle.RankModel(p)
        ref = _string_ranks(canonical_decompose(p), lo, hi)
        assert {(j, w): model.rank(j, w) for j, w in ref} == ref, \
            (p.gens, p.rel.col_weights, p.rel.entries)
        assert all(model.dim(w) == ref[(0, w)] for w in range(lo, hi + 1))
        _count_kinds(kinds, p)
    assert all(kinds.values()), kinds


# ---------------------------------------------------------------------------
# the breakpoint decoder against the rank table it replaced
#
# _ref_rank_table and _ref_strings are the decoder the oracles used before
# they read ranks at breakpoints: every rank of the window put in a table,
# and every (generator weight, length) of the window walked.
# ---------------------------------------------------------------------------


def _ref_rank_table(lo, hi, ranks_at):
    """(j, w) -> r_j(w), the rank of x^j : M_{w+j} -> M_w, for w in
    [lo, hi]; ``ranks_at(w)`` yields r_0(w) = dim M_w, r_1(w), ... up to
    j = hi - w.  A row stops at its first 0, since x^(j+1) out of w + j + 1
    factors through x^j out of w + j; an absent entry means 0."""
    r = {}
    for w in range(lo, hi + 1):
        for j, rk in enumerate(ranks_at(w)):
            r[(j, w)] = rk
            if rk == 0:
                break
    return r


def _ref_strings(lo, hi, r):
    """The canonical decomposition from a ``_ref_rank_table``.

    D_j(w) = r_j(w) - r_{j+1}(w) counts strings with generator weight
    exactly w + j and length >= j + 1, so with A(g, l) = D_{l-1}(g - l + 1)
    the number of T(g, n) summands is A(g, n) - A(g, n + 1), and strings
    reaching length >= g - lo must be free.  The strings must reproduce the
    window dimensions.
    """
    def A(g, l):
        w = g - l + 1
        return r.get((l - 1, w), 0) - r.get((l, w), 0)

    frees, tors = [], []
    for g in range(lo + 1, hi + 1):
        reach = g - lo
        frees += [g] * A(g, reach)
        for n in range(1, reach):
            tors += [(g, n)] * (A(g, n) - A(g, n + 1))
    out = gm(frees, tors)
    assert all(weight_dim(out, w) == r[(0, w)] for w in range(lo, hi + 1))
    return out


def _ref_decompose(p):
    lo, hi = _window_of(p)
    model = oracle.RankModel(p)
    return _ref_strings(lo, hi, _ref_rank_table(
        lo, hi, lambda w: (model.rank(j, w) for j in range(hi - w + 1))))


def test_decompose_equals_the_table_reference():
    # 7,000 presentations of the agreement suite's envelope, then 3,000
    # wider ones (_rank_presentation with up to 9 generators and relations,
    # weights in [-8, 8])
    rng = random.Random(29)
    kinds = dict.fromkeys(_KINDS, 0)
    for i in range(7000 + 3000):
        p = _random_presentation(rng) if i < 7000 \
            else _rank_presentation(rng, n=9, span=8)
        got = oracle_decompose(p)
        assert got == canonical_decompose(p) == _ref_decompose(p), \
            (p.gens, p.rel.col_weights, p.rel.entries)
        if i >= 7000:
            _count_kinds(kinds, p)
    assert min(kinds.values()) >= 300, kinds


def test_decoder_reads_strings_back_off_their_ranks():
    # ranks counted off the strings of a module, with no presentation, decode
    # back to the module; without one of its death weights among the
    # breakpoints, or with ranks that give a negative count, the decoder
    # raises.  Free strings are counted at the floor, where nothing else
    # lives, so a string lost with its death weight is reported where it
    # lives, above the floor, even when that weight was the lowest one
    rng = random.Random(30)
    dropped = lowest = 0
    for _ in range(1500):
        M = _wide_module(rng, SITE_X)
        if M.is_zero:
            continue

        def rho(s, a, M=M):
            return sum(1 for d in M.free if d >= s) + sum(
                1 for g, n in M.torsion if g >= s and g - n < a)

        gens = set(M.gen_weights())
        deaths = {g - n for g, n in M.torsion}
        floor = M.occupied_window()[0] - 1
        assert oracle._decode(rho, gens, sorted(gens | deaths), floor) == M
        for e in deaths - gens:
            with pytest.raises(AssertionError, match="inconsistent") as exc:
                oracle._decode(rho, gens, sorted(gens | deaths - {e}), floor)
            assert int(str(exc.value).split()[-1]) > floor, (M, e)
            dropped += 1
            lowest += e < min(gens | deaths - {e})
    assert dropped >= 1000 and lowest >= 300, (dropped, lowest)
    with pytest.raises(AssertionError,
                       match="negative string count at weight 0"):
        oracle._decode(lambda s, a: int(s == 0 and a <= -2), [0], [-2, 0], -4)


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
