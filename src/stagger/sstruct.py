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
the same submodule from the ranks of the powers of x on M, read off its
relation matrix: the sub's ranks are closed forms in them.

By nesting (S2) membership is a threshold, so ``_bounds``, the two
thresholds of one summand, is the one home of the rule: ``member``,
``min_le``, ``max_ge``, ``step`` and ``cut_summand`` (so ``sigma`` and the
staggered truncation ``stag._truncation_pieces``) all read it.
``SigmaWitness.verify`` checks weight dims by ``grmod.dim_mismatch``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .grmod import (
    F,
    GradedMap,
    GradedModule,
    MonoMatrix,
    T,
    ZERO,
    _mod_xn,
    dim_mismatch,
    direct_sum,
    ext1_dim,
    fmt_module,
    gm,
    hom_dim,
    internal_hom,
    kernel_image_cokernel,
    pieces_module,
    present,
    summand_ends,
    summand_pieces,
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


_SHOWN_DIGITS = 40  # an error echoes a longer number by its digit count


def _shown(n: int) -> str:
    """``n`` in decimal, or its digit count past ``_SHOWN_DIGITS`` digits."""
    m = abs(n)
    if m < 10 ** _SHOWN_DIGITS:
        return "%d" % n
    # log10(2) > 0.30102, so k starts at or below the count of digits - 1
    k = (m.bit_length() - 1) * 30102 // 100000
    while 10 ** (k + 1) <= m:
        k += 1
    return "%s<%d digits>" % ("-" if n < 0 else "", k + 1)


def check_on_site(site: Site, M: GradedModule) -> None:
    """Raise if M is not a legal object of the site.

    The message names a thickening of more than ``_SHOWN_DIGITS`` digits,
    and each number of the echoed summands, by its digit count, and cuts
    the echoed summand list at 80 characters."""
    if site.kind == "U":
        if M.torsion:
            raise ValueError("objects on U carry only a rank; torsion given")
    elif site.kind == "Z":
        if M.free:
            raise ValueError("objects on Z%s are torsion" % _shown(site.n))
        bad = [t for t in M.torsion if t[1] > site.n]
        if bad:
            echo = "[%s]" % ", ".join("(%s, %s)" % (_shown(g), _shown(n))
                                      for g, n in bad)
            if len(echo) > 80:
                echo = echo[:80] + "..."
            raise ValueError("torsion length exceeds thickening %s: %s"
                             % (_shown(site.n), echo))


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def _bounds(site: Site, cfg: SConfig, piece: Tuple) -> Tuple[int, int]:
    """(least w with the summand in C_{<=w}, greatest w with it in C_{>=w})."""
    if cfg.z_mode == "trivial" or site.kind == "U":
        return 0, 0
    if piece[0] == "F":  # on X the free part forces the sign of w
        return max(piece[1], 0), 0
    _t, g, l = piece
    return g, g - l + 1


def min_le(site: Site, cfg: SConfig, M: GradedModule) -> Optional[int]:
    """Least w with M in C_{<=w}; None when M = 0 (then every w works)."""
    check_on_site(site, M)
    return max((_bounds(site, cfg, s)[0] for s in summand_pieces(M)),
               default=None)


def max_ge(site: Site, cfg: SConfig, M: GradedModule) -> Optional[int]:
    """Greatest w with M in C_{>=w}; None when M = 0."""
    check_on_site(site, M)
    return min((_bounds(site, cfg, s)[1] for s in summand_pieces(M)),
               default=None)


def member(site: Site, cfg: SConfig, direction: str, w: int,
           M: GradedModule) -> bool:
    """Is M in C_{<=w} (direction 'le') or C_{>=w} (direction 'ge')?"""
    if direction not in ("le", "ge"):
        raise ValueError("direction must be 'le' or 'ge'")
    if direction == "le":
        lo = min_le(site, cfg, M)
        return lo is None or lo <= w
    hi = max_ge(site, cfg, M)
    return hi is None or hi >= w


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


def cut_summand(site: Site, cfg: SConfig, piece: Tuple,
                c: int) -> Tuple[Optional[Tuple], Optional[Tuple]]:
    """Cut one summand at weight c: (sub, quotient), either None when zero.

    The sub is the summand's largest part in C_{<=c}, the quotient the rest
    (in C_{>=c+1}); ``sigma`` and the staggered truncation both cut here.
    With (lo, hi) = ``_bounds``, the whole summand is the sub when lo <= c
    and the quotient when hi > c (as hi <= lo, at most one holds); otherwise
    F(d) splits into (F(c), T(d, d - c)) and T(g, l) into
    (T(c, l - g + c), T(g, g - c)).
    """
    lo, hi = _bounds(site, cfg, piece)
    if lo <= c:
        return piece, None
    if hi > c:
        return None, piece
    if piece[0] == "F":
        d = piece[1]
        return ("F", c), ("T", d, d - c)
    _t, g, l = piece
    return ("T", c, l - g + c), ("T", g, g - c)


def sigma(site: Site, cfg: SConfig, direction: str, w: int,
          M: GradedModule) -> SigmaWitness:
    """Truncation sequence with explicit inclusion/projection witnesses."""
    if direction not in ("le", "ge"):
        raise ValueError("direction must be 'le' or 'ge'")
    check_on_site(site, M)
    cut = w if direction == "le" else w - 1

    sub_pieces: List[Tuple] = []   # (piece, M-summand index)
    quot_pieces: List[Tuple] = []  # (piece, M-summand index)
    for idx, s in enumerate(summand_pieces(M)):
        sub, quot = cut_summand(site, cfg, s, cut)
        if sub is not None:
            sub_pieces.append((sub, idx))
        if quot is not None:
            quot_pieces.append((quot, idx))

    sub, sub_pos = pieces_module([p for p, _i in sub_pieces])
    quot, quot_pos = pieces_module([p for p, _i in quot_pieces])
    pm, psub, pquot = present(M), present(sub), present(quot)

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
    or when M is not pure.  As sigma_{<=w-1}M = 0 iff M is in C_{>=w}, and
    max_ge <= min_le for every nonzero M, M is pure iff the two agree.
    """
    w = min_le(site, cfg, M)
    return w if w is not None and w == max_ge(site, cfg, M) else None


# ---------------------------------------------------------------------------
# axiom suite
# ---------------------------------------------------------------------------


def axiom_suite(cfg: SConfig, seed: int = 1, samples: int = 200
                ) -> SuiteReport:
    """Randomized check of the s-structure axioms S1-S9 and adhesivity A1-A2.

    A conditional check records ``not premise or conclusion``, so a case its
    premise rules out counts as a pass.  All randomness flows from ``seed``.
    """
    rng = random.Random(seed)
    rep = SuiteReport(suite="axioms", seed=seed, samples=samples,
                      mode=cfg.z_mode)

    # A1 is a single deterministic fact: the fiber of the maximal ideal
    # (x) = F(-1) at the reduced point is V(-1), which lies in C_{<=0}.
    ideal_fiber = _mod_xn(F(-1), 1)
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
        rep.check("S1_serre_le_X").record(
            not member(SITE_X, cfg, "le", w, M)
            or (member(SITE_X, cfg, "le", w, S)
                and member(SITE_X, cfg, "le", w, Qt)),
            "sub/quot left C_{<=w}: " + ctx)
        rep.check("S1_serre_le_ext_X").record(
            not (member(SITE_X, cfg, "le", w, S)
                 and member(SITE_X, cfg, "le", w, Qt))
            or member(SITE_X, cfg, "le", w, M),
            "extension left C_{<=w}: " + ctx)
        rep.check("S1_ge_sub_ext_X").record(
            (not member(SITE_X, cfg, "ge", w, M)
             or member(SITE_X, cfg, "ge", w, S))
            and (not (member(SITE_X, cfg, "ge", w, S)
                      and member(SITE_X, cfg, "ge", w, Qt))
                 or member(SITE_X, cfg, "ge", w, M)),
            "C_{>=w} sub/ext closure failed: " + ctx)

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
        A = sigma(SITE_X, cfg, "le", w, sampling.random_module(rng)).sub
        B = sigma(SITE_X, cfg, "ge", w + 1, sampling.random_module(rng)).quotient
        rep.check("S3_hom_vanishing_X").record(
            not (member(SITE_X, cfg, "le", w, A)
                 and member(SITE_X, cfg, "ge", w + 1, B))
            or hom_dim(A, B) == 0,
            "hom(%s, %s) != 0 at w=%d" % (fmt_module(A), fmt_module(B), w))
        ru, su = rng.randint(0, 3), rng.randint(0, 3)
        FU, GU = gm([0] * ru), gm([0] * su)
        rep.check("S3_hom_vanishing_U").record(
            not (member(SITE_U, cfg, "le", w, FU)
                 and member(SITE_U, cfg, "ge", w + 1, GU)) or ru * su == 0,
            "hom_U != 0 at w=%d ranks %d,%d" % (w, ru, su))

        # ---- S4: sigma truncation sequence --------------------------
        M4 = sampling.random_module(rng)
        for site in (SITE_X, zsite):
            MM = M4 if site.kind == "X" else sampling.random_torsion_module(rng, max_len=n)
            wit = sigma(site, cfg, "le", w, MM)
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
            rep.check("S7_serre_ge_Zn").record(
                member(zs, cfg, "ge", w, MZ)
                == (member(zs, cfg, "ge", w, SZ)
                    and member(zs, cfg, "ge", w, QZ)),
                "S7 failed on %s sub %s quot %s w=%d n=%d"
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
        rep.check("S9_A2_adhesive").record(
            not (member(site_z(1), cfg, "le", w, _mod_xn(FX, 1))
                 and member(zsite, cfg, "ge", w + 1, GZ))
            or (hom_dim(FX, GZ) == 0 and ext1_dim(FX, GZ) == 0),
            "hom/ext to pushforward nonzero: F=%s G=%s w=%d n=%d"
            % (fmt_module(FX), fmt_module(GZ), w, n))

    return rep
