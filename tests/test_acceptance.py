"""Acceptance suite: thirteen end-to-end criteria, one test (and one
pass/fail line under ``pytest -v``) per criterion, exact equality only.

Frozen constants are either asserted directly from the defining formulas
or were produced by the independent dense-matrix oracles in
``stagger.oracle`` (which share no algorithms with the fast paths).
"""

import dataclasses
import json
import random

import pytest

from stagger.grmod import F as Fmod, T as Tmod, V, ext1_dim, gm
from stagger.derived import (
    FormalObject,
    derived_hom,
    dualize,
    formal,
    li_star,
    ri_flat,
)
from stagger.sstruct import (
    SConfig,
    SITE_X,
    axiom_suite,
    member,
    sigma,
    site_z,
    step,
)
from stagger.stag import (
    Perversity,
    geometry_report,
    jh_factors,
    simples,
    stag_truncate,
    tstructure_suite,
    validate_perversity,
)
from stagger.flag import flag_verify
from stagger.oracle import agreement_suite
from stagger import sampling, sstruct
import stagger.cli as cli

W = SConfig("weight")
TR = SConfig("trivial")
P01 = Perversity(0, 1)


def _ok(n, text):
    print("criterion %2d PASS -- %s" % (n, text))


def test_criterion_01_structure_sheaf_purity():
    assert step(SITE_X, W, Fmod(0)) == 0
    wit = sigma(SITE_X, W, "le", -1, Fmod(0))
    assert wit.sub == gm([])
    assert wit.quotient == Fmod(0)
    _ok(1, "O_X is pure of step 0 and sigma_{<=-1} O_X = 0")


def test_criterion_02_ideal_restriction():
    got = li_star(formal(Fmod(-1), 0), 1)
    assert got.component(0) == V(-1)
    assert got == formal(V(-1), 0)  # no derived term for a free module
    _ok(2, "i* of the ideal (x) has fiber V(-1)")


def test_criterion_03_dualizing_data():
    assert ri_flat(formal(Fmod(0), 0), 1) == formal(V(1), 1)
    g = geometry_report(W)
    assert g.cod_z == 1
    assert g.alt_z == 1
    assert g.scod_z == 2
    assert g.scod_u == 0
    _ok(3, "omega_Z = V(1)[-1]; cod Z = alt Z = 1, scod Z = 2, scod U = 0")


def test_criterion_04_remark_vectors():
    assert member(SITE_X, W, "ge", 0, Fmod(-2)) is True
    assert member(SITE_X, W, "ge", 0, Tmod(-2, 1)) is False
    assert ri_flat(formal(Fmod(-2), 0), 1) == formal(V(-1), 1)
    assert ext1_dim(Tmod(-1, 1), Fmod(-2)) == 1
    _ok(4, "x^2 A in C_{>=0}, its skyscraper not; Ri^flat(x^2 A) = V(-1)[-1]")


def test_criterion_05_simples():
    S = simples(W, P01, -5, 5)
    want = {"OX": formal(Fmod(0), 0)}
    for n in range(-5, 6):
        # i_* V_n [n-1] sits in cohomological degree 1 - n
        want["SZ(%d)" % n] = formal(Tmod(n, 1), 1 - n)
    assert dict(S) == want and len(S) == len(want)
    for lbl, s in S:
        rep = jh_factors(W, P01, s)
        assert rep.factors == [lbl]
        assert rep.audit(W, P01) == []
    for i, (_, A) in enumerate(S):
        for j, (_, B) in enumerate(S):
            assert derived_hom(SITE_X, A, B).get(0, 0) == (1 if i == j else 0)
    _ok(5, "simples on [-5,5] are O_X and i_*V_n[n-1], irreducible, Schur")


def test_criterion_06_composition_series():
    rep = jh_factors(W, P01, formal(Fmod(1), 0))
    assert sorted(rep.factors) == ["OX", "SZ(1)"]
    # the witness realizes 0 -> IC(X, O_U) -> x^{-1}A -> IC(Z, V_1) -> 0
    first = rep.steps[0]
    assert first.label == "OX"
    assert first.simple == formal(Fmod(0), 0)
    assert first.quotient == formal(Tmod(1, 1), 0)
    assert next(rep.replay()) == (formal(Fmod(1), 0), formal(Tmod(1, 1), 0))
    assert rep.audit(W, P01) == []
    _ok(6, "jh(x^{-1}A) = {O_X, S_Z(1)} with an audited filtration witness")


def test_criterion_07_self_duality_of_simples():
    S = dict(simples(W, P01, -5, 6))
    assert dualize(S["OX"]) == S["OX"]
    for n in range(-5, 7):
        assert dualize(S["SZ(%d)" % n]) == S["SZ(%d)" % (1 - n)]
    # closure: the window [-5,6] is symmetric under n -> 1-n
    imgs = sorted(str(dualize(s)) for s in S.values())
    assert imgs == sorted(str(s) for s in S.values())
    _ok(7, "duality fixes O_X and sends S_Z(n) to S_Z(1-n)")


def test_criterion_08_axiom_suite(monkeypatch):
    for mode in (W, TR):
        for seed in (1, 2, 3):
            rep = axiom_suite(mode, seed=seed, samples=200)
            assert rep.ok and rep.violation_count() == 0, "\n".join(
                rep.summary_lines()
            )

    def bad_sigma(site, cfg, direction, w, M):
        shifted = w + 1 if direction == "le" else w - 1
        wit = sigma(site, cfg, direction, shifted, M)
        cut = w if direction == "le" else w - 1
        return dataclasses.replace(wit, w=w, cut=cut)

    monkeypatch.setattr(sstruct, "sigma", bad_sigma)
    fault = axiom_suite(W, seed=1, samples=200)
    assert fault.violation_count() >= 1
    _ok(8, "S1-S9 + A1-A2 clean (both modes, seeds 1-3); fault test trips")


def test_criterion_09_tstructure_suite():
    for mode in (W, TR):
        for seed in (1, 2, 3):
            rep = tstructure_suite(mode, seed=seed, samples=200)
            assert rep.ok and rep.violation_count() == 0, "\n".join(
                rep.summary_lines()
            )
    # in trivial mode the truncation degenerates to the support/degree
    # rule of perverse coherent sheaves
    rng = random.Random(9)
    for _ in range(50):
        Fo = FormalObject(
            sampling.random_formal_components(rng, -2, 2, max_len=3)
        )
        n = rng.randint(-2, 2)
        tr = stag_truncate(TR, P01, Fo, n)
        for k, m in Fo.components.items():
            fp, tp = m.free_part(), m.torsion_part()
            if not fp.is_zero:
                side = tr.below if k <= P01.pU + n else tr.above
                assert side.component(k).free == fp.free
            if not tp.is_zero:
                side = tr.below if k <= P01.pZ + n else tr.above
                assert side.component(k).torsion == tp.torsion
    _ok(9, "t-structure suite clean (both modes, seeds 1-3); trivial mode "
           "matches the degreewise degenerate truncation")


def test_criterion_10_duality_identities():
    rng = random.Random(10)
    for _ in range(200):
        Fo = FormalObject(
            sampling.random_formal_components(rng, -2, 2, max_len=4)
        )
        n = rng.randint(1, 4)
        assert dualize(dualize(Fo)) == Fo
        assert dualize(li_star(Fo, n)) == ri_flat(dualize(Fo), n)
    _ok(10, "DD = id and D o Li* = Ri^flat o D on 200 random objects, n <= 4")


def test_criterion_11_purity_duality():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 4)
        site = site_z(n)
        w = rng.randint(-5, 5)
        r = rng.randint(1, 3)
        M = gm([], [(w, 1)] * r)  # the pure torsion modules are V(w)^r
        assert step(site, W, M) == w
        D1 = dualize(formal(M, 0)).shift(1)
        assert sorted(D1.degrees()) == [0]
        assert step(site, W, D1.component(0)) == 1 - w
    _ok(11, "dualize(M)[1] is pure of step 1 - step(M) on 100 pure torsion")


def test_criterion_12_flag_verifier():
    rep = flag_verify(window=4)
    by = {c.label: c for c in rep.checks}
    assert by["F1_ideal_fiber"].ok and by["F1_membership"].ok
    assert by["F2_twist_fibers"].ok and by["F1xF2_twisted_ideal"].ok
    assert by["omega_z_h0"].ok and by["omega_z_h1"].ok
    assert "V_{-1}" in by["omega_z_h1"].detail or "-1" in by["omega_z_h1"].detail
    assert rep.alt_z == 1
    assert rep.scod_z_computed == 2
    assert rep.scod_z_asserted == 3
    text = "\n".join(rep.summary_lines())
    assert "computed" in text and "asserted" in text
    assert by["strict_perversity_computed"].ok
    assert by["strict_perversity_asserted"].ok
    assert rep.ok
    _ok(12, "flag checks F1/F2 pass on [-4,4]; H^1(omega_Z) = V(-1), "
            "alt Z = 1; both scod readings reported, (0,1) strict either way")


def test_criterion_13_oracle_agreement(monkeypatch, capsys):
    rep = agreement_suite(seed=1, samples=200)
    assert rep.ok and rep.violation_count() == 0, "\n".join(rep.summary_lines())

    # a wounded fast path must exit nonzero with a minimized witness
    real = cli.member

    def broken(site, cfg, direction, w, M):
        out = real(site, cfg, direction, w, M)
        return (not out) if any(d >= 2 for d in M.free) else out

    monkeypatch.setattr(cli, "member", broken)
    rc = cli.main(["member", "--site", "X", "--le", "5",
                   "F(2)+F(4)+T(0,2)", "--oracle"])
    out = capsys.readouterr().out
    assert rc == 2
    payload = json.loads(out)
    assert payload["minimized"] in ("F(2)", "F(4)")
    _ok(13, "200 seeded instances agree per op; injected diff exits 2 "
            "with a one-generator counterexample")
