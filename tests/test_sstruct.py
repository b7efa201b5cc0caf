"""s-structures: membership, sigma filtrations, steps, and the axiom suite."""

import dataclasses
import itertools
import random

import pytest

from stagger.grmod import F, T, V, gm, module_map, pieces_module, weight_dim
from stagger.sstruct import (
    SConfig,
    SITE_U,
    SITE_X,
    axiom_suite,
    check_on_site,
    cut_summand,
    max_ge,
    member,
    min_le,
    sigma,
    site_z,
    step,
)
from stagger import sampling, sstruct

W = SConfig("weight")
TR = SConfig("trivial")


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_member_z_weight_skyscraper():
    # direct reading of the definition: V(n) on Z is in C_{<=w} iff n <= w
    for n in range(-3, 4):
        for w in range(-3, 4):
            assert member(site_z(1), W, "le", w, V(n)) == (n <= w)
            assert member(site_z(1), W, "ge", w, V(n)) == (n >= w)


def test_member_z_weight_lengths():
    # generators govern <=, socles govern >=
    assert member(site_z(3), W, "le", 2, T(2, 3))
    assert not member(site_z(3), W, "le", 1, T(2, 3))
    assert member(site_z(3), W, "ge", 0, T(2, 3))
    assert not member(site_z(3), W, "ge", 1, T(2, 3))


def test_member_x_weight():
    # free parts force the sign condition on X
    assert member(SITE_X, W, "le", 0, F(0))
    assert not member(SITE_X, W, "le", -1, F(-5))
    assert member(SITE_X, W, "ge", 0, F(-2))
    assert not member(SITE_X, W, "ge", 1, F(5))
    assert member(SITE_X, W, "le", 1, gm([1], [(1, 2)]))
    assert not member(SITE_X, W, "le", 0, gm([1], [(1, 2)]))


def test_member_trivial_sign_only():
    for M in (F(3), F(-3), T(5, 2), T(-5, 2)):
        for site in (SITE_X, site_z(5) if M.rank == 0 else SITE_X):
            assert member(site, TR, "le", 0, M)
            assert member(site, TR, "ge", 0, M)
            assert not member(site, TR, "le", -1, M)
            assert not member(site, TR, "ge", 1, M)


def test_member_u_ignores_torsion_shape():
    assert member(SITE_U, W, "le", 0, gm([0, -3]))
    assert not member(SITE_U, W, "le", -1, gm([0]))
    with pytest.raises(ValueError):
        check_on_site(SITE_U, T(0, 1))
    with pytest.raises(ValueError):
        check_on_site(site_z(2), T(0, 3))


def _site_error(site, M):
    with pytest.raises(ValueError) as err:
        check_on_site(site, M)
    return str(err.value)


def test_site_errors_keep_short_numbers_exact():
    assert _site_error(site_z(2), F(0)) == "objects on Z2 are torsion"
    assert _site_error(site_z(2), gm([], [(0, 3), (-4, 5), (1, 2)])) == \
        "torsion length exceeds thickening 2: [(-4, 5), (0, 3)]"
    n = 10 ** 40 - 1  # 40 digits: still written out
    assert _site_error(site_z(n), F(0)) == "objects on Z%d are torsion" % n
    assert _site_error(site_z(n - 1), gm([], [(0, n)])) == \
        "torsion length exceeds thickening %d: [(0, %d)]" % (n - 1, n)


def test_site_errors_cut_long_numbers_and_lists():
    big = 10 ** 3999 + 7
    assert _site_error(site_z(big), F(0)) == \
        "objects on Z<4000 digits> are torsion"
    assert _site_error(site_z(big), gm([], [(-big, 10 * big)])) == \
        "torsion length exceeds thickening <4000 digits>: " \
        "[(-<4000 digits>, <4001 digits>)]"
    # past sys.get_int_max_str_digits(), where str() itself refuses
    huge = 10 ** 6000
    assert _site_error(site_z(huge), F(0)) == \
        "objects on Z<6001 digits> are torsion"
    many = gm([], [(g, 3) for g in range(100)])
    msg = _site_error(site_z(2), many)
    assert msg.startswith("torsion length exceeds thickening 2: "
                          "[(0, 3), (1, 3), ")
    assert msg.endswith("...") and len(msg) < 130


# ---------------------------------------------------------------------------
# the summand cut
# ---------------------------------------------------------------------------


def _sites_of(piece):
    """The sites a single summand lives on: X, and U or every Z_n, n <= 4,
    that holds it."""
    if piece[0] == "F":
        return [SITE_X, SITE_U]
    return [SITE_X] + [site_z(n) for n in range(piece[2], 5)]


@pytest.mark.parametrize("kind", ["F", "T"])
def test_cut_summand_contract(kind):
    # every F(d) and T(g,l) with d, g in [-6, 6], l in 1..4, on each of its
    # sites in both modes, cut at every c in [-8, 8]: the pieces split the
    # summand weight by weight, the sub lies in C_{<=c} and the quotient
    # in C_{>=c+1}
    if kind == "F":
        summands = [("F", d) for d in range(-6, 7)]
    else:
        summands = [("T", g, l) for g in range(-6, 7) for l in range(1, 5)]
    cases = 0
    for piece in summands:
        M = pieces_module([piece])[0]
        for site in _sites_of(piece):
            for cfg in (W, TR):
                for c in range(-8, 9):
                    sub, quot = cut_summand(site, cfg, piece, c)
                    S = pieces_module([sub] if sub is not None else [])[0]
                    Qt = pieces_module([quot] if quot is not None else [])[0]
                    ctx = (piece, str(site), cfg.z_mode, c)
                    # a piece is None exactly when it is zero
                    assert (sub is None, quot is None) == \
                        (S.is_zero, Qt.is_zero), ctx
                    for w in range(-16, 10):
                        assert weight_dim(S, w) + weight_dim(Qt, w) == \
                            weight_dim(M, w), ctx + (w,)
                    assert member(site, cfg, "le", c, S), ctx
                    assert member(site, cfg, "ge", c + 1, Qt), ctx
                    cases += 1
    assert cases == sum(len(_sites_of(s)) for s in summands) * 2 * 17


# ---------------------------------------------------------------------------
# sigma and step
# ---------------------------------------------------------------------------


def test_sigma_footnote_sequence():
    # sigma_{<=0} F(1): the structure sheaf inside the twist, skyscraper out
    wit = sigma(SITE_X, W, "le", 0, F(1))
    assert wit.sub == F(0)
    assert wit.quotient == T(1, 1)
    assert wit.verify() == []


def test_sigma_verify_reports_broken_projection():
    wit = sigma(SITE_X, W, "le", 0, F(1))
    # the identity of F(1) in place of the projection keeps the sub alive
    bad = dataclasses.replace(
        wit, projection=module_map(wit.total, wit.total, {(0, 0): 1}))
    errs = bad.verify()
    assert "projection o inclusion nonzero" in errs
    assert "projection not well defined" not in errs


def test_sigma_verify_reports_weight_dims_not_additive():
    wit = sigma(SITE_X, W, "le", 0, gm([1], [(3, 2)]))
    assert (wit.sub, wit.quotient) == (F(0), gm([], [(1, 1), (3, 2)]))
    # the quotient loses T(3,2): weights 3 and 2 are short, 3 is reported
    errs = dataclasses.replace(wit, quotient=T(1, 1)).verify()
    assert "weight dims not additive at w=3" in errs
    # a stray summand far outside the total's window is seen as well
    errs = dataclasses.replace(
        wit, quotient=gm([], [(1, 1), (3, 2), (50, 1)])).verify()
    assert "weight dims not additive at w=50" in errs


def test_sigma_structure_sheaf_pure():
    wit = sigma(SITE_X, W, "le", -1, F(0))
    assert wit.sub == gm([])
    assert wit.quotient == F(0)
    assert wit.verify() == []
    assert step(SITE_X, W, F(0)) == 0


def test_sigma_ge_direction():
    wit = sigma(SITE_X, W, "ge", 0, gm([], [(1, 2)]))
    # socle weight 0 part survives in the quotient
    assert wit.sub.is_zero or member(SITE_X, W, "le", -1, wit.sub)
    assert member(SITE_X, W, "ge", 0, wit.quotient)
    assert wit.verify() == []


def test_sigma_witnesses_random():
    rng = random.Random(3)
    for _ in range(80):
        M = sampling.random_module(rng)
        w = rng.randint(-7, 7)
        direction = rng.choice(["le", "ge"])
        wit = sigma(SITE_X, rng.choice([W, TR]), direction, w, M)
        assert wit.verify() == []


def test_step_anchors():
    assert step(SITE_X, W, F(0)) == 0
    assert step(SITE_X, W, V(2)) == 2
    assert step(site_z(2), W, T(1, 2)) is None  # not pure
    assert step(site_z(1), W, gm([], [(3, 1), (3, 1)])) == 3
    assert step(SITE_X, TR, F(5)) == 0
    assert step(SITE_X, W, gm([])) is None


def _small_modules(shapes):
    """Every direct sum of at most three of the summand shapes."""
    return [pieces_module(list(c))[0] for r in range(4)
            for c in itertools.combinations_with_replacement(shapes, r)]


def test_step_is_the_sigma_definition():
    # step(M) is min_le(M) = w when sigma_{<=w-1} M = 0, else None; checked
    # on every module of at most three summands with weights in [-6, 6] and
    # lengths <= 4, on X, on U, and on the least Z_n that holds it
    frees = [("F", d) for d in range(-6, 7)]
    tors = [("T", g, l) for g in range(-6, 7) for l in range(1, 5)]
    cases = [(SITE_X, M) for M in _small_modules(frees + tors)]
    cases += [(SITE_U, M) for M in _small_modules(frees)]
    cases += [(site_z(max(M.max_torsion_length(), 1)), M)
              for M in _small_modules(tors)]
    for cfg in (W, TR):
        for site, M in cases:
            w = min_le(site, cfg, M)
            want = None if w is None or not \
                sigma(site, cfg, "le", w - 1, M).sub.is_zero else w
            assert step(site, cfg, M) == want, (str(site), cfg.z_mode, M)


def test_min_le_max_ge():
    assert min_le(SITE_X, W, gm([2], [(5, 1)])) == 5
    assert min_le(SITE_X, W, F(-4)) == 0  # free forces the sign bound
    assert max_ge(site_z(3), W, T(2, 3)) == 0
    assert min_le(SITE_U, W, gm([0, 0])) == 0


# ---------------------------------------------------------------------------
# axiom suite
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["weight", "trivial"])
def test_axiom_suite_clean(mode):
    rep = axiom_suite(SConfig(mode), seed=1, samples=80)
    assert rep.ok, "\n".join(rep.summary_lines())


def test_axiom_suite_detects_faulty_sigma(monkeypatch):
    """A sigma that cuts one weight too high while reporting the requested
    cut (a classic off-by-one) must be caught by the witness audit."""
    import dataclasses

    def bad_sigma(site, cfg, direction, w, M):
        shifted = w + 1 if direction == "le" else w - 1
        wit = sigma(site, cfg, direction, shifted, M)
        cut = w if direction == "le" else w - 1
        return dataclasses.replace(wit, w=w, cut=cut)

    monkeypatch.setattr(sstruct, "sigma", bad_sigma)
    rep = axiom_suite(W, seed=1, samples=80)
    assert not rep.ok
    assert rep.violation_count() >= 1
