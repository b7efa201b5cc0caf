"""Staggered t-structures: aisles, truncation triangles, the heart,
simple objects and Jordan-Holder filtrations."""

import collections
import dataclasses
import fractions
import json
import os
import random
import sys
import tracemalloc

import pytest

from stagger import stag
from stagger.grmod import (
    F as Fmod, T as Tmod, V, direct_sum, gm, module_map,
)
from stagger.derived import (
    FormalObject, chain_map_on_embeds, cone, derived_hom, dualize, formal,
    free_embed, normal_form,
)
from stagger.sstruct import SConfig, SITE_X, sigma, site_z
from stagger.stag import (
    JHReport,
    Perversity,
    aisle_member,
    aisle_member_z,
    dual_perversity,
    geometry_report,
    heart_kernel_cokernel,
    heart_morphism,
    ic,
    jh_factors,
    simples,
    stag_truncate,
    tstructure_suite,
    validate_perversity,
)

W = SConfig("weight")
TR = SConfig("trivial")
P01 = Perversity(0, 1)


# ---------------------------------------------------------------------------
# geometry and perversities
# ---------------------------------------------------------------------------


def test_geometry_weight_mode():
    g = geometry_report(W)
    assert (g.cod_u, g.alt_u, g.cod_z, g.alt_z) == (0, 0, 1, 1)
    assert g.scod_u == 0
    assert g.scod_z == 2


def test_geometry_trivial_mode():
    g = geometry_report(TR)
    assert (g.alt_z, g.scod_z, g.scod_u) == (0, 1, 0)


@pytest.mark.parametrize("cfg", [W, TR], ids=["weight", "trivial"])
def test_geometry_report_is_computed_once_per_mode(cfg):
    geometry_report.cache_clear()
    g = geometry_report(cfg)
    assert geometry_report.cache_info().misses == 1
    assert g == geometry_report.__wrapped__(cfg)  # a fresh computation
    assert geometry_report(SConfig(cfg.z_mode)) is g
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.alt_z = 7
    # aisle_member_z's upper aisle reads the same stored report
    hits = geometry_report.cache_info().hits
    aisle_member_z(cfg, P01, site_z(2), formal(Tmod(0, 1), 0), "ge0")
    info = geometry_report.cache_info()
    assert (info.misses, info.hits) == (1, hits + 1)


def test_geometry_report_first_call_runs_the_checks(monkeypatch):
    spread = FormalObject({1: Tmod(0, 1), 2: Tmod(1, 1)})
    monkeypatch.setattr(stag, "ri_flat", lambda F, n: spread)
    geometry_report.cache_clear()
    with pytest.raises(AssertionError, match="not concentrated on Z_1"):
        geometry_report(W)
    assert geometry_report.cache_info().currsize == 0


def test_perversity_validation():
    r = validate_perversity(W, P01)
    assert r.valid and r.strict and r.middle
    assert r.dual == Perversity(0, 1)  # self-dual in weight mode
    r = validate_perversity(W, Perversity(1, 0))
    assert not r.monotone and not r.valid
    r = validate_perversity(W, Perversity(-1, 0))
    assert r.valid and r.strict and not r.middle
    # trivial mode: scod Z = 1, so (0,1) is comonotone only weakly
    r = validate_perversity(TR, P01)
    assert r.valid and not r.strict


def test_dual_perversity_roundtrip():
    for p in (P01, Perversity(-1, 0), Perversity(1, 2)):
        assert dual_perversity(W, dual_perversity(W, p)) == p


# ---------------------------------------------------------------------------
# aisles and truncation
# ---------------------------------------------------------------------------


def test_aisle_anchors():
    assert aisle_member(W, P01, formal(Fmod(0), 0), "le0")
    assert not aisle_member(W, P01, formal(Fmod(0), 1), "le0")
    assert aisle_member(W, P01, formal(Fmod(0), 0), "ge0")
    # the skyscraper V(2) sits in the heart at degree pZ - n = -1: degrees
    # at or below stay in the lower aisle, above in the upper one
    assert aisle_member(W, P01, formal(V(2), -1), "le0")
    assert aisle_member(W, P01, formal(V(2), -2), "le0")
    assert not aisle_member(W, P01, formal(V(2), 0), "le0")
    assert aisle_member(W, P01, formal(V(2), -1), "ge0")
    assert not aisle_member(W, P01, formal(V(2), -2), "ge0")


def _valid_perversities(cfg):
    cands = [Perversity(pU, pZ) for pU in range(-3, 4)
             for pZ in range(pU - 1, pU + 4)]
    return [p for p in cands if validate_perversity(cfg, p).valid]


def _near_boundary_object(rng, p):
    """Degrees -4..4, torsion lengths <= 7; weights sit near the bound
    pZ - k of their degree on half the draws, anywhere in [-8, 8] else."""
    comps = {}
    near = rng.random() < 0.5
    for k in range(-4, 5):
        if rng.random() < 0.25:
            def w():
                return (p.pZ - k + rng.randint(-2, 1) if near
                        else rng.randint(-8, 8))
            m = gm([w() for _ in range(rng.randint(0, 2))],
                   [(w(), rng.randint(1, 7)) for _ in range(rng.randint(0, 3))])
            if not m.is_zero:
                comps[k] = m
    return FormalObject(comps)


def test_aisle_closed_form_matches_li_star_loop():
    rng = random.Random(6)
    long_anchors = [formal(Tmod(0, 2000), 0), formal(Tmod(2, 2000), 1),
                    FormalObject({0: gm([0], [(1, 2000)]),
                                  -1: Tmod(-3, 1999)})]
    pairs = 0
    for cfg in (W, TR):
        for p in _valid_perversities(cfg):
            objs = [_near_boundary_object(rng, p) for _ in range(300)]
            if p.pU == 0:
                objs += long_anchors
            for Fo in objs:
                L = max([m.max_torsion_length()
                         for m in Fo.components.values()] + [0])
                for which in ("le0", "ge0"):
                    got = aisle_member(cfg, p, Fo, which)
                    ref = stag._aisle_member_looped(cfg, p, Fo, which, L + 4)
                    assert got == ref, (cfg.z_mode, p, str(Fo), which)
                    pairs += 1
    assert pairs >= 20000


def test_aisle_member_level_rejects_unknown_direction():
    with pytest.raises(ValueError, match="direction"):
        stag.aisle_member_level(W, P01, formal(Fmod(0), 0), "lt", 0)


def test_heart_requires_strictness():
    with pytest.raises(ValueError):
        simples(TR, P01, 0, 1)


def test_truncation_anchors():
    tr = stag_truncate(W, P01, formal(Fmod(2), 0), 0)
    assert tr.below == formal(Fmod(1), 0)
    assert tr.above == formal(Tmod(2, 1), 0)
    assert tr.audit() == []

    tr = stag_truncate(W, P01, formal(Fmod(-2), 0), -1)
    assert tr.below == formal(Tmod(-1, 1), 1)
    assert tr.above == formal(Fmod(-1), 0)
    assert tr.audit() == []


def test_truncation_audit_reports_a_below_part_outside_the_aisle():
    tr = stag_truncate(W, P01, formal(Fmod(2), 0), 0)
    assert tr.audit() == []
    # F(2) in degree 0 has a generator above pZ = 1, so it is not in D^{<=0}
    errs = dataclasses.replace(tr, below=formal(Fmod(2), 0)).audit()
    assert "witness reconstruction differs from stored parts" in errs
    assert "below-part not in D^{<=0}" in errs


def test_truncation_random_audit():
    rng = random.Random(21)
    from stagger import sampling

    for _ in range(60):
        Fo = FormalObject(
            sampling.random_formal_components(rng, -2, 2, max_len=3)
        )
        n = rng.randint(-3, 3)
        tr = stag_truncate(W, P01, Fo, n)
        assert tr.audit() == [], str(Fo)


def test_truncation_trivial_mode_is_degreewise():
    Fo = FormalObject({0: gm([4], [(-3, 2)]), 2: Fmod(0)})
    tr = stag_truncate(TR, Perversity(0, 1), Fo, 0)
    # level 0: free parts kept for k <= 0, torsion for k <= 1
    assert tr.below == FormalObject({0: gm([4], [(-3, 2)])})
    assert tr.above == FormalObject({2: Fmod(0)})


# ---------------------------------------------------------------------------
# heart, kernels, cokernels
# ---------------------------------------------------------------------------


def test_heart_kernel_of_x_inclusion():
    # x: F(-1) -> F(0) is injective on modules, but its heart kernel is
    # the simple S_Z(0): the staggered cokernel V(0) @ 0 lies outside the
    # heart and rotates around the triangle.
    f = module_map(Fmod(-1), Fmod(0), {(0, 0): 1})
    hm = heart_morphism(W, P01, formal(Fmod(-1), 0), formal(Fmod(0), 0), {0: f})
    kio = heart_kernel_cokernel(hm)
    assert kio.kernel == formal(Tmod(0, 1), 1)
    assert kio.cokernel.is_zero


def test_heart_kernel_of_skyscraper_quotient():
    f = module_map(Fmod(1), Tmod(1, 1), {(0, 0): 1})
    hm = heart_morphism(W, P01, formal(Fmod(1), 0), formal(Tmod(1, 1), 0), {0: f})
    kio = heart_kernel_cokernel(hm)
    assert kio.kernel == formal(Fmod(0), 0)
    assert kio.cokernel.is_zero


def test_heart_morphism_torsion_by_x():
    # x: T(0,1) -> T(1,2) respects relations: x * e goes to x^2 e' = 0
    f = module_map(Tmod(0, 1), Tmod(1, 2), {(0, 0): 1})
    hm = heart_morphism(W, P01, formal(Tmod(0, 1), 0), formal(Tmod(1, 2), 0),
                        {0: f})
    assert normal_form(cone(hm.chain)) == formal(Tmod(1, 1), 0)


def test_heart_zero_morphism():
    hm = heart_morphism(W, P01, formal(Fmod(0), 0), formal(Tmod(1, 1), 0), {})
    kio = heart_kernel_cokernel(hm)
    assert kio.kernel == formal(Fmod(0), 0)
    assert kio.cokernel == formal(Tmod(1, 1), 0)


# ---------------------------------------------------------------------------
# simples, IC objects, duality
# ---------------------------------------------------------------------------


def test_simples_shapes():
    S = dict(simples(W, P01, -2, 2))
    assert S["OX"] == formal(Fmod(0), 0)
    for n in range(-2, 3):
        assert S["SZ(%d)" % n] == formal(Tmod(n, 1), 1 - n)


def test_ic_objects():
    assert ic(W, P01, "U", 2) == formal(gm([0, 0]), 0)
    assert ic(W, P01, "Z", 3) == formal(V(3), -2)
    with pytest.raises(ValueError):
        ic(W, P01, "U", -1)


def test_simples_schur():
    S = simples(W, P01, -3, 3)
    for i, (_, A) in enumerate(S):
        for j, (_, B) in enumerate(S):
            d = derived_hom(SITE_X, A, B).get(0, 0)
            assert d == (1 if i == j else 0)


def test_duality_permutes_simples():
    assert dualize(formal(Fmod(0), 0)) == formal(Fmod(0), 0)
    S = dict(simples(W, P01, -4, 5))
    for n in range(-4, 6):
        want = S["SZ(%d)" % (1 - n)]
        assert dualize(S["SZ(%d)" % n]) == want


def test_simples_are_jh_irreducible():
    for label, S in simples(W, P01, -3, 3):
        rep = jh_factors(W, P01, S)
        assert rep.factors == [label]
        assert rep.audit(W, P01) == []


# ---------------------------------------------------------------------------
# Jordan-Holder
# ---------------------------------------------------------------------------


def test_jh_anchors():
    assert jh_factors(W, P01, formal(Fmod(0), 0)).factors == ["OX"]
    assert sorted(jh_factors(W, P01, formal(Fmod(1), 0)).factors) == ["OX", "SZ(1)"]
    assert sorted(jh_factors(W, P01, formal(Fmod(-1), 0)).factors) == ["OX", "SZ(0)"]


def test_jh_composite_multiset_invariant():
    big = FormalObject(
        {0: gm([1, 1, 0, -1], [(1, 1)]), 1: gm([], [(0, 1), (0, 1)]), -1: V(2)}
    )
    rep = jh_factors(W, P01, big)
    assert rep.audit(W, P01) == []
    want = ["OX"] * 4 + ["SZ(0)"] * 3 + ["SZ(1)"] * 3 + ["SZ(2)"]
    assert sorted(rep.factors) == sorted(want)
    alt = jh_factors(W, P01, big, _order="alt")
    assert sorted(alt.factors) == sorted(rep.factors)
    assert alt.audit(W, P01) == []


def test_jh_audit_reports_tampered_steps():
    obj = FormalObject({0: gm([1, -1]), 1: V(0)})
    rep = jh_factors(W, P01, obj)
    assert rep.audit(W, P01) == []
    i = 1
    st = rep.steps[i]
    wrong = FormalObject({**st.quotient.components,
                          3: direct_sum(st.quotient.component(3), V(7))})
    steps = list(rep.steps)
    steps[i] = dataclasses.replace(st, quotient=wrong)
    assert JHReport(rep.obj, rep.factors, steps).audit(W, P01) == [
        "step %d: quotient mismatch" % i,
        "step %d: cone differs from recorded quotient" % i,
        "filtration does not terminate at zero",
    ]
    # the SZ(0) step of V(0) @ 1 recorded twice: its block's count is 1
    steps = list(rep.steps)
    steps[i] = steps[0]
    assert JHReport(rep.obj, [s.label for s in steps], steps).audit(
        W, P01) == ["step %d: block is not a summand of the object" % i,
                    "step 2: block is not a summand of the object",
                    "filtration does not terminate at zero"]
    # a label that names no simple is reported, not parsed
    steps = [dataclasses.replace(st, label="SZ(x)") for st in rep.steps]
    assert JHReport(rep.obj, [s.label for s in steps], steps).audit(
        W, P01) == ["step %d: peeled piece is not the labeled simple" % i
                    for i in range(len(steps))]


def test_jh_audit_reports_tampered_links():
    # step 2 embeds OX = [0] F(0) into its block F(0) of [0] F(0) + F(1) by
    # a generator link; tamper through the block and keep the recorded
    # quotient
    obj = FormalObject({0: gm([1, -1]), 1: V(0)})
    rep = jh_factors(W, P01, obj)
    i, st = 2, rep.steps[2]
    assert (st.label, st.block, st.quotient) == \
        ("OX", formal(Fmod(0), 0), FormalObject())
    assert list(rep.replay())[i] == \
        (FormalObject({0: gm([0, 1])}), FormalObject({0: Fmod(1)}))
    assert st.chain.maps[0].entries == {(0, 0): 1}

    def audit(block, links):
        steps = list(rep.steps)
        chain = chain_map_on_embeds(st.simple, block, links)
        steps[i] = dataclasses.replace(st, block=block, chain=chain)
        return JHReport(rep.obj, rep.factors, steps).audit(W, P01)

    assert audit(st.block, {0: {(0, 0): 1}}) == []
    # coefficient 0: the zero map, whose kernel is the whole simple
    assert audit(st.block, {0: {(0, 0): 0}}) == [
        "step 2: witness not mono in the heart",
        "step 2: quotient mismatch",
        "step 2: cone differs from recorded quotient",
    ]
    # onto F(1) by x: still mono, but the quotient is F(0) + T(1,1); the
    # counts then lack the F(1) that step 3 peels and keep an F(0)
    assert audit(formal(Fmod(1), 0), {0: {(0, 0): 1}}) == [
        "step 2: quotient mismatch",
        "step 2: cone differs from recorded quotient",
        "step 3: block is not a summand of the object",
        "filtration does not terminate at zero",
    ]


def test_jh_audit_checks_factors_and_length():
    obj = FormalObject({0: gm([1, -1]), 1: V(0)})
    rep = jh_factors(W, P01, obj)
    assert rep.factors == ["SZ(0)", "SZ(0)", "OX", "OX", "SZ(1)"]
    relabelled = ["SZ(0)", "SZ(0)", "OX", "SZ(1)", "SZ(1)"]
    assert JHReport(rep.obj, relabelled, rep.steps).audit(W, P01) == [
        "factors differ from the step labels"]
    # the last step and its factor dropped
    assert JHReport(rep.obj, rep.factors[:-1], rep.steps[:-1]).audit(
        W, P01) == ["filtration does not terminate at zero",
                    "4 steps for an object of length 5"]
    outside = JHReport(formal(Fmod(2), 0), rep.factors, rep.steps)
    assert "object is not in the heart of %s" % P01 in outside.audit(W, P01)


def test_jh_audit_checks_witness_ends():
    # a witness built for SZ(1) recorded on the SZ(2) step
    rep = jh_factors(W, P01, FormalObject({0: V(1), -1: V(2)}))
    assert rep.factors == ["SZ(1)", "SZ(2)"]
    steps = list(rep.steps)
    steps[1] = dataclasses.replace(steps[1], chain=steps[0].chain)
    assert JHReport(rep.obj, rep.factors, steps).audit(W, P01) == [
        "step 1: witness does not run from the simple to the block"]


def test_jh_audit_checks_untouched_summands_and_block():
    obj = FormalObject({0: gm([0, 1, -1]), 1: V(0), -1: V(2)})
    rep = jh_factors(W, P01, obj)
    assert rep.audit(W, P01) == []
    st = rep.steps[0]
    assert st.label == "SZ(0)" and st.block == formal(V(0), 1)
    # the untouched summands pass on in the counts; a quotient that puts
    # F(2) beside them is caught, and F(2) is never peeled
    steps = list(rep.steps)
    steps[0] = dataclasses.replace(st, quotient=formal(Fmod(2), 0))
    assert JHReport(rep.obj, rep.factors, steps).audit(W, P01) == [
        "step 0: quotient mismatch",
        "step 0: cone differs from recorded quotient",
        "filtration does not terminate at zero",
    ]
    # a block that is not a summand of the object: V(0) twice
    absent = formal(gm([], [(0, 1), (0, 1)]), 1)
    steps[0] = dataclasses.replace(
        st, block=absent,
        chain=chain_map_on_embeds(st.simple, absent, {1: {(0, 0): 1}}))
    assert JHReport(rep.obj, rep.factors, steps).audit(W, P01) == [
        "step 0: block is not a summand of the object"]


def test_jh_audit_certifies_each_chain_it_reads():
    # both OX steps share one witness; a second step with the same label
    # and block but another chain is certified on its own
    rep = jh_factors(W, P01, formal(gm([0, 0]), 0))
    first, second = rep.steps
    assert first.chain is second.chain and rep.audit(W, P01) == []
    zero = chain_map_on_embeds(second.simple, second.block, {0: {(0, 0): 0}})
    steps = [first, dataclasses.replace(second, chain=zero)]
    assert JHReport(rep.obj, rep.factors, steps).audit(W, P01) == [
        "step 1: witness not mono in the heart",
        "step 1: quotient mismatch",
        "step 1: cone differs from recorded quotient",
    ]


def test_jh_audit_certifies_each_witness_once(monkeypatch):
    rep = jh_factors(W, P01, _heart_object(random.Random(20), P01, 1280))
    assert rep.length == 1280
    calls = []
    real = stag.heart_kernel_cokernel

    def counted(hm):
        calls.append(hm)
        return real(hm)

    monkeypatch.setattr(stag, "heart_kernel_cokernel", counted)
    assert rep.audit(W, P01) == []
    distinct = {(str(st.simple), str(st.block)) for st in rep.steps}
    # seven skyscraper weights and three free blocks at most
    assert len(calls) == len(distinct) <= 10


def test_jh_random_heart_objects():
    rng = random.Random(31)
    for _ in range(40):
        comps = {}
        frees = [rng.choice([-1, 0, 1]) for _ in range(rng.randint(0, 3))]
        tors = []
        for _ in range(rng.randint(0, 2)):
            k = rng.randint(-2, 2)
            comps.setdefault(k, []).append(k)
        parts = {}
        if frees:
            parts[0] = gm(sorted(frees))
        for k, ks in comps.items():
            mods = gm([], [(1 - k, 1)] * len(ks))
            if k in parts:
                from stagger.grmod import direct_sum

                parts[k] = direct_sum(parts[k], mods)
            else:
                parts[k] = mods
        Fo = FormalObject(parts)
        if Fo.is_zero:
            continue
        assert aisle_member(W, P01, Fo, "le0") and aisle_member(W, P01, Fo, "ge0")
        rep = jh_factors(W, P01, Fo)
        assert rep.audit(W, P01) == []
        alt = jh_factors(W, P01, Fo, _order="alt")
        assert sorted(rep.factors) == sorted(alt.factors)
        # predicted multiset from the summand recipe
        want = []
        for d in frees:
            want.append("OX")
            if d == 1:
                want.append("SZ(1)")
            elif d == -1:
                want.append("SZ(0)")
        for k, ks in comps.items():
            want.extend(["SZ(%d)" % (1 - k)] * len(ks))
        assert sorted(rep.factors) == sorted(want)


def _heart_object(rng, p, length):
    """A heart object of Jordan-Holder length ``length`` for the strict
    perversity p = (a, a+1): F(0) @ a (one factor), F(-1) and F(1) @ a (two
    each) and the shifted skyscrapers T(n,1) @ (a+1-n) (one each)."""
    free, tors = [], {}
    left = length
    while left > 0:
        r = rng.random()
        if left >= 2 and r < 0.3:
            free.append(rng.choice((-1, 1)))
            left -= 2
        elif r < 0.5:
            free.append(0)
            left -= 1
        else:
            n = rng.randint(-3, 3)
            tors.setdefault(p.pZ - n, []).append((n, 1))
            left -= 1
    comps = {k: gm([], ts) for k, ts in tors.items()}
    comps[p.pU] = gm(free, tors.get(p.pU, []))
    return FormalObject(comps)


def _jh_peel_cases():
    """(p, order, object) for every blessed weight-mode perversity, both
    peel orders, and heart objects of length 1 to 40."""
    rng = random.Random(55)
    for p in stag._blessed_perversities(W):
        for length in (1, 2, 40) + tuple(rng.randint(3, 39) for _ in range(4)):
            H = _heart_object(rng, p, length)
            for order in ("default", "alt"):
                yield p, order, H


def _jh_record(rep, p, order):
    return {"p": [p.pU, p.pZ], "order": order, "object": str(rep.obj),
            "factors": rep.factors,
            "after": [str(after) for _before, after in rep.replay()]}


def test_jh_closed_form_peel():
    """Every closed-form quotient is the normal form of its witness's cone,
    and factors and quotients equal the goldens (``golden/jh_peel.json``,
    computed with each quotient taken from that cone)."""
    path = os.path.join(os.path.dirname(__file__), "golden", "jh_peel.json")
    with open(path) as fh:
        golden = json.load(fh)
    cases = list(_jh_peel_cases())
    assert len(cases) == len(golden)
    for (p, order, H), want in zip(cases, golden):
        rep = jh_factors(W, p, H, _order=order)
        assert _jh_record(rep, p, order) == want
        for st, (before, after) in zip(rep.steps, rep.replay()):
            full = _whole_object_chain(st, before)
            assert after == normal_form(cone(full)), (p, order, H)


def _whole_object_chain(st, before):
    """The witness of a step as a chain map into all of ``before``: its one
    link moved from the block's generator to that summand's generator in
    ``before`` (free first, then torsion), and zero elsewhere."""
    (k, b), = st.block.components.items()
    m = before.components[k]
    i = m.free.index(b.free[0]) if b.free else \
        len(m.free) + m.torsion.index(b.torsion[0])
    link = {k: {(i, 0): 1}}
    if b.free and not any(s.free for s in st.simple.components.values()):
        # SZ(0) into F(-1): the Ext component
        return chain_map_on_embeds(st.simple, before, {}, link)
    return chain_map_on_embeds(st.simple, before, link)


def test_jh_peel_past_one_thousand():
    # the peel count is the closed-form length, with no cap: 1,001 simples
    big = FormalObject({
        0: gm([0] * 300 + [1] * 200 + [-1] * 100, [(1, 1)] * 50),
        1: gm([], [(0, 1)] * 51),
    })
    rep = jh_factors(W, P01, big)
    assert rep.length == 1001
    assert sorted(rep.factors) == sorted(
        ["OX"] * 600 + ["SZ(1)"] * 250 + ["SZ(0)"] * 151)
    assert list(rep.replay())[-1][1].is_zero
    assert rep.audit(W, P01) == []


def test_jh_mixed_heart_object_of_length_20480():
    # the mixed heart object of CI's fresh-process step, scaled 16 times;
    # each step is a delta on one summand, so the report stays small
    f = 16
    comps = {1 - n: gm([], [(n, 1)] * 40 * f) for n in (-2, -1, 0, 2, 3)}
    comps[0] = gm([-1] * 150 * f + [0] * 280 * f + [1] * 150 * f,
                  [(1, 1)] * 200 * f)
    tracemalloc.start()
    try:
        rep = jh_factors(W, P01, FormalObject(comps))
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 30 * 2 ** 20
    assert rep.length == 20480 and rep.audit(W, P01) == []
    # F(-1) and F(1) give OX and SZ(0) or SZ(1), F(0) and T(n,1) one each
    want = {"OX": 580 * f, "SZ(0)": 190 * f, "SZ(1)": 350 * f}
    want.update({"SZ(%d)" % n: 40 * f for n in (-2, -1, 2, 3)})
    assert collections.Counter(rep.factors) == want


def _int_coefficients(mats):
    return all(type(c) is int for m in mats for c in m.entries.values())


def _chain_matrices(phi):
    """Every matrix of a chain map: its components, the differentials of
    both ends and those of its cone."""
    yield from phi.maps.values()
    for c in (phi.src, phi.dst, cone(phi)):
        yield from c.diffs.values()


def _fraction_calls(fn):
    """Run ``fn()``; return its result and the number of calls it made into
    the ``fractions`` module (constructors, arithmetic, comparisons)."""
    calls = [0]

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls[0] += 1
    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        out = fn()
    finally:
        sys.setprofile(outer)
    return out, calls[0]


def test_chain_builders_write_int_coefficients():
    """On integral input the chain builders, cones, their normal forms, the
    truncation and Jordan-Holder audits and the sigma witnesses run no
    ``Fraction`` code and
    hold only ``int`` coefficients, so a ``Fraction`` brought back into
    the chain layer fails here and does not show up only as a slowdown."""
    rng = random.Random(73)

    def build():
        out = []
        for p in stag._blessed_perversities(W):
            for _ in range(15):
                Fo = _near_boundary_object(rng, p)
                out.extend(free_embed(Fo).diffs.values())
                ident = {k: {(i, i): 1 for i in range(len(m.gen_weights()))}
                         for k, m in Fo.components.items()}
                phi = chain_map_on_embeds(Fo, Fo, ident)
                assert phi.validate() == []
                assert normal_form(cone(phi)).is_zero
                out.extend(_chain_matrices(phi))
                level = rng.randint(-2, 2)
                _below, _above, chain = stag._truncation_witness(
                    W, p, Fo, level)
                out.extend(_chain_matrices(chain))
                assert stag_truncate(W, p, Fo, level).audit() == []
                for m in Fo.components.values():
                    wit = sigma(SITE_X, W, "le", level, m)
                    out += [wit.inclusion.mat, wit.projection.mat]
            rep = jh_factors(W, p, _heart_object(rng, p, 12))
            assert rep.steps and rep.audit(W, p) == []
            for st in rep.steps:
                out.extend(_chain_matrices(st.chain))
        return out

    mats, calls = _fraction_calls(build)
    assert calls == 0
    assert len(mats) > 1000 and _int_coefficients(mats)


def test_jh_nonstrict_perversity_rejected():
    with pytest.raises(ValueError):
        jh_factors(TR, P01, formal(Fmod(0), 0))


# ---------------------------------------------------------------------------
# the suite, both modes and other perversities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["weight", "trivial"])
def test_tstructure_suite_clean(mode):
    rep = tstructure_suite(SConfig(mode), seed=1, samples=60)
    assert rep.ok, "\n".join(rep.summary_lines())


def _mutant(real, name):
    """A wrong closed form of ``stag._le0_component``."""
    def mutant(cfg, p, k, m):
        if name == "free_rank_dropped":
            # pU = k switches the free-rank test off, the weight test stays
            return real(cfg, Perversity(k, p.pZ), k, m)
        if cfg.z_mode == name:  # off by one in the bound of this mode
            return real(cfg, Perversity(p.pU, p.pZ + 1), k, m)
        return real(cfg, p, k, m)
    return mutant


@pytest.mark.parametrize("name,mode", [("weight", "weight"),
                                       ("trivial", "trivial"),
                                       ("free_rank_dropped", "weight")])
def test_suites_catch_a_wrong_aisle_closed_form(monkeypatch, name, mode):
    from stagger.oracle import agreement_suite

    monkeypatch.setattr(stag, "_le0_component",
                        _mutant(stag._le0_component, name))
    rep = tstructure_suite(SConfig(mode), seed=1, samples=60)
    assert rep.checks["T8_bound_stability"].violations
    rep = agreement_suite(seed=1, samples=200)
    assert rep.checks["agree_aisle"].violations


def test_truncation_other_perversities():
    rng = random.Random(41)
    from stagger import sampling

    for p in (Perversity(-1, 0), Perversity(1, 2)):
        for _ in range(25):
            Fo = FormalObject(
                sampling.random_formal_components(
                    rng, -2, 2, max_len=3
                )
            )
            tr = stag_truncate(W, p, Fo, rng.randint(-2, 2))
            assert tr.audit() == []
