"""s-structures on the orbit sites of the equivariant affine line.

The three sites are the whole line X, the open orbit U, and the closed point
with its thickenings Z_n (n-th infinitesimal neighbourhood; Z_1 is the
reduced point).  Objects on U carry only a rank; objects on Z_n are torsion
modules with all lengths <= n; objects on X are arbitrary.

Two s-structure flavours are implemented, selected by ``SConfig.z_mode``:

* ``weight`` -- the weight s-structure.  On Z_n: M is in C_{<=w} iff every
  generator weight is <= w, and in C_{>=w} iff every socle weight is >= w
  (the latter is the Hom-orthogonal of the former; a socle in weight s <= w-1
  receives a skyscraper V(s) from C_{<=w-1}).  On U the s-structure is
  trivial: the free orbit has no equivariant moduli, so only the rank and the
  sign of w matter.  On X both constraints combine: C_{<=w} asks all element
  weights <= w, which for the free part is only possible when w >= 0.
* ``trivial`` -- C_{<=w} is everything for w >= 0 and 0 for w < 0 on every
  site (and dually).  This degenerate flavour exists so that the perverse
  machinery downstream can be exercised in its classical limit.

``sigma`` produces the unique truncation short exact sequence
``0 -> sub -> M -> quotient -> 0`` with sub the maximal submodule in
C_{<=cut}.  Maximality on X for cut < 0 holds because a nonzero submodule of
a free module is free and free modules never lie in C_{<=cut} for cut < 0;
for cut >= 0 the sub is literally "all elements of weight <= cut", which is
x-stable and generated in weights <= cut.  The brute-force oracle re-derives
the same submodule by exhaustive weight-subspace search.

The weight-mode cut of a single summand F(d) or T(g,l) at a weight lives in
one place, ``cut_summand``; ``sigma`` and the staggered truncation
(``stag._truncation_pieces``) both build their pieces from it.
``SigmaWitness.verify`` checks weight dims by ``grmod.dim_mismatch``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from .grmod import (
    F,
    GradedMap,
    GradedModule,
    MonoMatrix,
    T,
    ZERO,
    dim_mismatch,
    direct_sum,
    ext1_dim,
    fmt_module,
    gm,
    hom_dim,
    internal_hom,
    kernel_image_cokernel,
    present,
    summand_ends,
    tensor,
)
from .report import SuiteReport
from . import sampling


# ---------------------------------------------------------------------------
# sites and configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Site:
    kind: str  # 'X', 'U' or 'Z'
    n: int = 1  # thickening, only meaningful for Z

    def __post_init__(self):
        if self.kind not in ("X", "U", "Z"):
            raise ValueError("unknown site kind %r" % (self.kind,))
        if self.kind == "Z" and self.n < 1:
            raise ValueError("thickening must be >= 1")

    def __str__(self) -> str:
        if self.kind == "Z":
            return "Z" if self.n == 1 else "Z%d" % self.n
        return self.kind


SITE_X = Site("X")
SITE_U = Site("U")


def site_z(n: int = 1) -> Site:
    return Site("Z", n)


@dataclass(frozen=True)
class SConfig:
    z_mode: str = "weight"  # 'weight' or 'trivial'

    def __post_init__(self):
        if self.z_mode not in ("weight", "trivial"):
            raise ValueError("z_mode must be 'weight' or 'trivial'")


WEIGHT = SConfig("weight")
TRIVIAL = SConfig("trivial")


def check_on_site(site: Site, M: GradedModule) -> None:
    """Raise if M is not a legal object of the site."""
    if site.kind == "U":
        if M.torsion:
            raise ValueError("objects on U carry only a rank; torsion given")
    elif site.kind == "Z":
        if M.free:
            raise ValueError("objects on Z%d are torsion" % site.n)
        bad = [t for t in M.torsion if t[1] > site.n]
        if bad:
            raise ValueError(
                "torsion length exceeds thickening %d: %r" % (site.n, bad)
            )


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def member(site: Site, cfg: SConfig, direction: str, w: int,
           M: GradedModule) -> bool:
    """Is M in C_{<=w} (direction 'le') or C_{>=w} (direction 'ge')?"""
    if direction not in ("le", "ge"):
        raise ValueError("direction must be 'le' or 'ge'")
    check_on_site(site, M)
    if M.is_zero:
        return True
    if cfg.z_mode == "trivial" or site.kind == "U":
        # rank-or-nothing: only the sign of w decides
        return w >= 0 if direction == "le" else w <= 0
    if site.kind == "Z":
        if direction == "le":
            return all(g <= w for g, _n in M.torsion)
        return all(s >= w for s in M.socle_weights())
    # site X, weight mode
    if direction == "le":
        if M.rank and w < 0:
            return False
        return all(d <= w for d in M.free) and all(g <= w for g, _n in M.torsion)
    if M.rank and w > 0:
        return False
    return all(s >= w for s in M.socle_weights())


def min_le(site: Site, cfg: SConfig, M: GradedModule) -> Optional[int]:
    """Least w with M in C_{<=w}; None when M = 0 (then every w works)."""
    check_on_site(site, M)
    if M.is_zero:
        return None
    if cfg.z_mode == "trivial" or site.kind == "U":
        return 0
    ws = list(M.gen_weights())
    if site.kind == "X" and M.rank:
        ws.append(0)
    return max(ws)


def max_ge(site: Site, cfg: SConfig, M: GradedModule) -> Optional[int]:
    """Greatest w with M in C_{>=w}; None when M = 0."""
    check_on_site(site, M)
    if M.is_zero:
        return None
    if cfg.z_mode == "trivial" or site.kind == "U":
        return 0
    ws = list(M.socle_weights())
    if site.kind == "X" and M.rank:
        ws.append(0)
    return min(ws)


# ---------------------------------------------------------------------------
# sigma truncation
# ---------------------------------------------------------------------------


@dataclass
class SigmaWitness:
    """The truncation sequence 0 -> sub -> M -> quotient -> 0 at a cut.

    For direction 'le' at w the sub is sigma_{<=w} M; for 'ge' at w the same
    sequence is produced one step lower (sub = sigma_{<=w-1} M) and the
    quotient is sigma_{>=w} M.
    """

    site: Site
    cfg: SConfig
    direction: str
    w: int
    cut: int
    total: GradedModule
    sub: GradedModule
    quotient: GradedModule
    inclusion: GradedMap
    projection: GradedMap

    def verify(self) -> List[str]:
        """Exactness and membership audit; returns human-readable failures."""
        errs = []
        if not self.inclusion.is_well_defined():
            errs.append("inclusion not well defined")
        if not self.projection.is_well_defined():
            errs.append("projection not well defined")
        if not self.projection.compose(self.inclusion).is_zero_map():
            errs.append("projection o inclusion nonzero")
        w = dim_mismatch(summand_ends(self.total),
                         summand_ends(direct_sum(self.sub, self.quotient)))
        if w is not None:
            errs.append("weight dims not additive at w=%d" % w)
        kic = kernel_image_cokernel(self.projection)
        if kic.kernel != self.sub:
            errs.append("ker(projection) != sub")
        if kic.cokernel != ZERO:
            errs.append("projection not surjective")
        kic2 = kernel_image_cokernel(self.inclusion)
        if kic2.kernel != ZERO:
            errs.append("inclusion not injective")
        if not member(self.site, self.cfg, "le", self.cut, self.sub):
            errs.append("sub not in C_{<=%d}" % self.cut)
        if not member(self.site, self.cfg, "ge", self.cut + 1, self.quotient):
            errs.append("quotient not in C_{>=%d}" % (self.cut + 1))
        return errs


def summand_pieces(M: GradedModule) -> List[Tuple]:
    """The summands of M as pieces ('F', d) and ('T', g, l), in canonical
    generator order (free first, then torsion)."""
    return [("F", d) for d in M.free] + [("T", g, l) for g, l in M.torsion]


def pieces_module(pieces: List[Tuple]) -> GradedModule:
    """The direct sum of the pieces ('F', d) and ('T', g, l)."""
    return gm(
        [p[1] for p in pieces if p[0] == "F"],
        [(p[1], p[2]) for p in pieces if p[0] == "T"],
    )


def cut_summand(piece: Tuple, c: int) -> Tuple[Optional[Tuple], Optional[Tuple]]:
    """Cut one summand at weight c: (sub, quotient), either None when zero.

    This is the single home of the weight-mode cut, used by ``sigma`` and
    by the staggered truncation.  The sub is the part of the summand in
    weights <= c (x-stable, generated in weight <= c) and the quotient the
    rest:

      F(d):   d <= c gives (F(d), None), else (F(c), T(d, d - c));
      T(g,l): g <= c gives (T(g,l), None), else (T(c, l - (g - c)), or
              None when that length is < 1, and T(g, min(l, g - c))).
    """
    if piece[0] == "F":
        d = piece[1]
        if d <= c:
            return piece, None
        return ("F", c), ("T", d, d - c)
    _t, g, l = piece
    if g <= c:
        return piece, None
    keep = l - (g - c)
    return (("T", c, keep) if keep >= 1 else None), ("T", g, min(l, g - c))


def _canonical_positions(pieces: List[Tuple]) -> List[int]:
    """Index of each piece ('F', d) or ('T', g, n) in the canonical order."""
    frees = sorted(
        (p[1], i) for i, p in enumerate(pieces) if p[0] == "F"
    )
    tors = sorted(
        ((p[1], p[2]), i) for i, p in enumerate(pieces) if p[0] == "T"
    )
    pos = [0] * len(pieces)
    for slot, (_w, i) in enumerate(frees):
        pos[i] = slot
    for slot, (_k, i) in enumerate(tors):
        pos[i] = len(frees) + slot
    return pos


def sigma(site: Site, cfg: SConfig, direction: str, w: int,
          M: GradedModule) -> SigmaWitness:
    """Truncation sequence with explicit inclusion/projection witnesses."""
    if direction not in ("le", "ge"):
        raise ValueError("direction must be 'le' or 'ge'")
    check_on_site(site, M)
    cut = w if direction == "le" else w - 1

    sub_pieces: List[Tuple] = []   # (piece, M-summand index)
    quot_pieces: List[Tuple] = []  # (piece, M-summand index)
    trivial_like = cfg.z_mode == "trivial" or site.kind == "U"
    for idx, s in enumerate(summand_pieces(M)):
        if trivial_like:
            # rank-or-nothing: the sign of the cut keeps or drops a summand
            sub, quot = (s, None) if cut >= 0 else (None, s)
        elif s[0] == "F" and cut < 0:
            # on X no free piece lies in C_{<=cut} for cut < 0
            sub, quot = None, s
        else:
            sub, quot = cut_summand(s, cut)
        if sub is not None:
            sub_pieces.append((sub, idx))
        if quot is not None:
            quot_pieces.append((quot, idx))

    sub = pieces_module([p for p, _i in sub_pieces])
    quot = pieces_module([p for p, _i in quot_pieces])

    pm, psub, pquot = present(M), present(sub), present(quot)
    sub_pos = _canonical_positions([p for p, _i in sub_pieces])
    quot_pos = _canonical_positions([p for p, _i in quot_pieces])

    inc = MonoMatrix(pm.gens, psub.gens)
    for (piece, midx), col in zip(sub_pieces, sub_pos):
        inc.set(midx, col, 1)
    proj = MonoMatrix(pquot.gens, pm.gens)
    for (piece, midx), row in zip(quot_pieces, quot_pos):
        proj.set(row, midx, 1)

    return SigmaWitness(
        site=site, cfg=cfg, direction=direction, w=w, cut=cut, total=M,
        sub=sub, quotient=quot,
        inclusion=GradedMap(psub, pm, inc),
        projection=GradedMap(pm, pquot, proj),
    )


def step(site: Site, cfg: SConfig, M: GradedModule) -> Optional[int]:
    """The step of a pure object: the w with M in C_{<=w}, sigma_{<=w-1}M = 0.

    Returns None when M is zero (pure of every step, so no canonical value)
    or when M is not pure.
    """
    if M.is_zero:
        return None
    w = min_le(site, cfg, M)
    assert w is not None
    if sigma(site, cfg, "le", w - 1, M).sub.is_zero:
        return w
    return None


# ---------------------------------------------------------------------------
# axiom suite
# ---------------------------------------------------------------------------


def _i_star_reduced(M: GradedModule) -> GradedModule:
    """M/xM on the reduced point: one skyscraper per generator weight."""
    return gm([], [(d, 1) for d in M.gen_weights()])


def axiom_suite(cfg: SConfig, seed: int = 1, samples: int = 200,
                sigma_fn: Optional[Callable] = None) -> SuiteReport:
    """Randomized check of the s-structure axioms S1-S9 and adhesivity A1-A2.

    ``sigma_fn`` is a fault-injection hook: the suite's own sensitivity test
    passes a deliberately broken truncation here and demands violations.
    All randomness flows from ``seed``.
    """
    if sigma_fn is None:
        sigma_fn = sigma
    rng = random.Random(seed)
    rep = SuiteReport(suite="axioms", seed=seed, samples=samples,
                      mode=cfg.z_mode)

    # A1 is a single deterministic fact: the fiber of the maximal ideal
    # (x) = F(-1) at the reduced point is V(-1), which lies in C_{<=0}.
    ideal_fiber = _i_star_reduced(F(-1))
    rep.check("A1_ideal_fiber").record(
        ideal_fiber == T(-1, 1)
        and member(site_z(1), cfg, "le", 0, ideal_fiber),
        "i*(x) = %s not in C_{<=0}(Z)" % fmt_module(ideal_fiber),
    )

    for it in range(samples):
        w = rng.randint(-8, 8)
        n = rng.choice([1, 2, 3, 4])
        zsite = site_z(n)

        # ---- S1: Serre closure on X --------------------------------
        M = sampling.random_module(rng)
        S, _M, Qt = sampling.random_sub_quotient(rng, M)
        ctx = "M=%s S=%s Q=%s w=%d" % (fmt_module(M), fmt_module(S),
                                       fmt_module(Qt), w)
        c = rep.check("S1_serre_le_X")
        if member(SITE_X, cfg, "le", w, M):
            c.record(
                member(SITE_X, cfg, "le", w, S)
                and member(SITE_X, cfg, "le", w, Qt),
                "sub/quot left C_{<=w}: " + ctx,
            )
        else:
            c.record(True, "")
        c = rep.check("S1_serre_le_ext_X")
        if member(SITE_X, cfg, "le", w, S) and member(SITE_X, cfg, "le", w, Qt):
            c.record(member(SITE_X, cfg, "le", w, M),
                     "extension left C_{<=w}: " + ctx)
        else:
            c.record(True, "")
        c = rep.check("S1_ge_sub_ext_X")
        ok = True
        if member(SITE_X, cfg, "ge", w, M):
            ok = member(SITE_X, cfg, "ge", w, S)
        if ok and member(SITE_X, cfg, "ge", w, S) \
                and member(SITE_X, cfg, "ge", w, Qt):
            ok = member(SITE_X, cfg, "ge", w, M)
        c.record(ok, "C_{>=w} sub/ext closure failed: " + ctx)

        # ---- S2: nesting -------------------------------------------
        c = rep.check("S2_nesting")
        ok = True
        for site in (SITE_X, SITE_U, zsite):
            MM = M if site.kind == "X" else (
                M.free_part() if site.kind == "U"
                else sampling.random_torsion_module(rng, max_len=n)
            )
            if member(site, cfg, "le", w, MM) and not member(site, cfg, "le", w + 1, MM):
                ok = False
            if member(site, cfg, "ge", w + 1, MM) and not member(site, cfg, "ge", w, MM):
                ok = False
        c.record(ok, "nesting failed: " + ctx)

        # ---- S3: Hom vanishing on X and U ---------------------------
        A = sigma_fn(SITE_X, cfg, "le", w, sampling.random_module(rng)).sub
        B = sigma_fn(SITE_X, cfg, "ge", w + 1, sampling.random_module(rng)).quotient
        c = rep.check("S3_hom_vanishing_X")
        if member(SITE_X, cfg, "le", w, A) and member(SITE_X, cfg, "ge", w + 1, B):
            c.record(hom_dim(A, B) == 0,
                     "hom(%s, %s) != 0 at w=%d" % (fmt_module(A), fmt_module(B), w))
        else:
            c.record(True, "")
        c = rep.check("S3_hom_vanishing_U")
        ru = rng.randint(0, 3)
        su = rng.randint(0, 3)
        FU = gm([0] * ru)
        GU = gm([0] * su)
        if member(SITE_U, cfg, "le", w, FU) and member(SITE_U, cfg, "ge", w + 1, GU):
            c.record(ru * su == 0, "hom_U != 0 at w=%d ranks %d,%d" % (w, ru, su))
        else:
            c.record(True, "")

        # ---- S4: sigma truncation sequence --------------------------
        M4 = sampling.random_module(rng)
        for site in (SITE_X, zsite):
            MM = M4 if site.kind == "X" else sampling.random_torsion_module(rng, max_len=n)
            wit = sigma_fn(site, cfg, "le", w, MM)
            errs = wit.verify()
            rep.check("S4_sigma_exact_%s" % site.kind).record(
                not errs,
                "sigma(le,%d) on %s at %s: %s" % (w, fmt_module(MM), site, "; ".join(errs)),
            )

        # ---- S5: boundedness / nondegeneracy ------------------------
        c = rep.check("S5_bounded")
        M5 = sampling.random_module(rng, nonzero=True)
        lo5, hi5 = M5.occupied_window()
        ok = member(SITE_X, cfg, "le", max(hi5, 0) + 1, M5)
        ok = ok and member(SITE_X, cfg, "ge", min(lo5, 0) - 1, M5)
        wl = min_le(SITE_X, cfg, M5)
        ok = ok and wl is not None and member(SITE_X, cfg, "le", wl, M5) \
            and not member(SITE_X, cfg, "le", wl - 1, M5)
        c.record(ok, "boundedness failed on %s" % fmt_module(M5))

        # ---- S6: tensor steps and internal hom ----------------------
        A6 = sampling.random_module(rng, nonzero=True)
        B6 = sampling.random_module(rng, nonzero=True)
        c = rep.check("S6_tensor_le")
        wa, wb = min_le(SITE_X, cfg, A6), min_le(SITE_X, cfg, B6)
        if wa is not None and wb is not None:
            tensor6 = tensor(A6, B6)
            c.record(
                member(SITE_X, cfg, "le", wa + wb, tensor6),
                "tensor left C_{<=%d}: %s (x) %s = %s"
                % (wa + wb, fmt_module(A6), fmt_module(B6), fmt_module(tensor6)),
            )
        c = rep.check("S6_internal_hom")
        gb = max_ge(SITE_X, cfg, B6)
        H6 = internal_hom(A6, B6)
        if wa is not None and gb is not None:
            c.record(
                member(SITE_X, cfg, "ge", gb - wa, H6),
                "cHom(%s, %s) = %s not in C_{>=%d}"
                % (fmt_module(A6), fmt_module(B6), fmt_module(H6), gb - wa),
            )

        # ---- S7: Serre closure on Z_n -------------------------------
        MZ = sampling.random_torsion_module(rng, max_len=n)
        SZ, _m, QZ = sampling.random_sub_quotient(rng, MZ)
        for nn in (n, MZ.max_torsion_length() + 1):
            zs = site_z(nn)
            c = rep.check("S7_serre_ge_Zn")
            ok = True
            if member(zs, cfg, "ge", w, MZ):
                ok = member(zs, cfg, "ge", w, SZ) and member(zs, cfg, "ge", w, QZ)
            if ok and member(zs, cfg, "ge", w, SZ) and member(zs, cfg, "ge", w, QZ):
                ok = member(zs, cfg, "ge", w, MZ)
            c.record(ok, "S7 failed on %s sub %s quot %s w=%d n=%d"
                     % (fmt_module(MZ), fmt_module(SZ), fmt_module(QZ), w, nn))

        # ---- S8: tensor on Z_n --------------------------------------
        AZ = sampling.random_torsion_module(rng, max_len=n, nonzero=True)
        BZ = sampling.random_torsion_module(rng, max_len=n, nonzero=True)
        gza, gzb = max_ge(zsite, cfg, AZ), max_ge(zsite, cfg, BZ)
        c = rep.check("S8_tensor_Zn")
        if gza is not None and gzb is not None:
            TZ = tensor(AZ, BZ)
            c.record(
                member(zsite, cfg, "ge", gza + gzb, TZ),
                "S8 failed: %s (x) %s on Z%d" % (fmt_module(AZ), fmt_module(BZ), n),
            )

        # ---- S9 + A2: adhesivity across the closed orbit -------------
        FX = sampling.random_module(rng)
        GZ = sampling.random_torsion_module(rng, max_len=n)
        c = rep.check("S9_A2_adhesive")
        if member(site_z(1), cfg, "le", w, _i_star_reduced(FX)) and \
                member(zsite, cfg, "ge", w + 1, GZ):
            c.record(
                hom_dim(FX, GZ) == 0 and ext1_dim(FX, GZ) == 0,
                "hom/ext to pushforward nonzero: F=%s G=%s w=%d n=%d"
                % (fmt_module(FX), fmt_module(GZ), w, n),
            )
        else:
            c.record(True, "")

    return rep
