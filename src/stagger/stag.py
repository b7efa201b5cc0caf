"""Staggered t-structures: aisles, truncation, hearts, and Jordan-Holder.

A perversity assigns an integer to each orbit (pU to the open orbit, pZ to
the closed point).  Against the geometry of the s-structures (codimension,
altitude, and their sum, the staggered codimension) a perversity may be
monotone, comonotone, strict, or middle, and it has a dual.  For a valid
perversity the staggered aisles are

  F in D^{<=0}  iff  every free rank of H^k vanishes for k > pU, and for
                     every thickening n the restriction Li*_n F has
                     H^j in C_{<= pZ - j}(Z_n);
  F in D^{>=0}  iff  the Serre dual D(F) lies in D^{<=0} for the dual
                     perversity (this is the definition, not a theorem).

The Li* condition has a closed form, one inequality per summand.  In degree
k, Li*_n sends F(d) to T(d, n) and T(g, l) to T(g, min(l, n)), weights kept,
and puts ker x^n (-n), of generator weights min(g, g - l + n) - n <= g - 1,
in degree k - 1.  So n = 1 binds, and the closed form is: H^k lies in
C_{<= pZ - k}(X), and no free rank sits above pU (then the Tor term meets
pZ - k + 1 for every n; a free rank needs pZ - k >= 0, which k <= pU <= pZ
gives).  Membership reads ``sstruct._bounds``, the one home of the
s-structure rule.  T8 of the suite checks this against the looped
definition.

Truncation is computed summand by summand (each summand not rotated off is
cut by ``sstruct.cut_summand``, which sigma uses too) and certified at the
chain level:
the below-part is embedded as a complex of free modules and mapped into the
embedding of the object by ``derived.chain_map_on_embeds`` (a generator link
per cut piece, an Ext link per rotated one), and the cone's normal form must
reproduce the above-part on the nose.  The same machinery gives kernels and
cokernels in the heart, and a Jordan-Holder peeling with auditable mono
witnesses.  Each peel is a delta on one summand of the running object, its
block, and the running object is kept as summand counts; the witness is a
chain map into the block alone, and the audit certifies each distinct step
once (``JHReport.audit`` has the proof that this is the whole-object
certificate).
"""

from __future__ import annotations

import functools
import heapq
import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .grmod import (
    F as Fmod,
    GradedMap,
    GradedModule,
    T as Tmod,
    ZERO,
    gm,
    pieces_module,
    summand_pieces,
)
from .derived import (
    ChainMap,
    FormalObject,
    chain_map_on_embeds,
    cone,
    derived_hom,
    dualize,
    formal,
    formal_sum,
    free_embed,
    li_star,
    normal_form,
    push_z,
    restrict_u,
    ri_flat,
    std_truncate,
)
from .report import SuiteReport
from .sstruct import (
    SConfig,
    SITE_U,
    SITE_X,
    Site,
    check_on_site,
    cut_summand,
    max_ge,
    member,
    site_z,
)
from . import sampling


# ---------------------------------------------------------------------------
# geometry of the orbits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Perversity:
    pU: int
    pZ: int

    def __str__(self) -> str:
        return "(%d,%d)" % (self.pU, self.pZ)


@dataclass(frozen=True)
class GeometryReport:
    mode: str
    cod_u: int
    alt_u: int
    cod_z: int
    alt_z: int

    @property
    def scod_u(self) -> int:
        return self.cod_u + self.alt_u

    @property
    def scod_z(self) -> int:
        return self.cod_z + self.alt_z

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "U": {"cod": self.cod_u, "alt": self.alt_u, "scod": self.scod_u},
            "Z": {"cod": self.cod_z, "alt": self.alt_z, "scod": self.scod_z},
        }


@functools.lru_cache(maxsize=None)
def geometry_report(cfg: SConfig) -> GeometryReport:
    """Codimension and altitude of each orbit, computed not asserted.

    Codimension of Z is the concentration degree of Ri^flat(omega_X) over
    the thickenings; altitude is the largest w with the orbit's dualizing
    module in C_{>=w}.  Both are checked stable over n = 1..4.

    The report depends on the mode alone, so it is computed, with all of
    these checks, on the first call for each ``SConfig``; later calls
    return that same (frozen) report.  A failed check stores nothing.
    """
    omega = formal(Fmod(0))
    ru = restrict_u(omega)
    degs = ru.degrees()
    if degs != [0]:
        raise AssertionError("omega_X|_U not concentrated in degree 0")
    cod_u = 0
    au = max_ge(SITE_U, cfg, ru.component(0))
    alt_u = 0 if au is None else au

    cods, alts = set(), set()
    for n in range(1, 5):
        rf = ri_flat(omega, n)
        ds = rf.degrees()
        if len(ds) != 1:
            raise AssertionError("Ri^flat(omega_X) not concentrated on Z_%d" % n)
        cods.add(ds[0])
        a = max_ge(site_z(n), cfg, rf.component(ds[0]))
        alts.add(0 if a is None else a)
    if len(cods) != 1 or len(alts) != 1:
        raise AssertionError("orbit geometry not stable across thickenings")
    return GeometryReport(mode=cfg.z_mode, cod_u=cod_u, alt_u=alt_u,
                          cod_z=cods.pop(), alt_z=alts.pop())


@dataclass
class PerversityReport:
    p: Perversity
    mode: str
    monotone: bool
    comonotone: bool
    strict: bool
    middle: bool
    dual: Perversity

    @property
    def valid(self) -> bool:
        return self.monotone and self.comonotone

    def to_json(self) -> dict:
        return {
            "perversity": [self.p.pU, self.p.pZ],
            "mode": self.mode,
            "valid": self.valid,
            "monotone": self.monotone,
            "comonotone": self.comonotone,
            "strict": self.strict,
            "middle": self.middle,
            "dual": [self.dual.pU, self.dual.pZ],
        }


def validate_perversity(cfg: SConfig, p: Perversity) -> PerversityReport:
    g = geometry_report(cfg)
    mono = p.pZ >= p.pU
    comono = (g.scod_z - p.pZ) >= (g.scod_u - p.pU)
    strict = (p.pZ > p.pU) and (g.scod_z - p.pZ) > (g.scod_u - p.pU)
    middle = (2 * p.pU == g.scod_u) and (2 * p.pZ == g.scod_z)
    dual = Perversity(g.scod_u - p.pU, g.scod_z - p.pZ)
    return PerversityReport(p=p, mode=cfg.z_mode, monotone=mono,
                            comonotone=comono, strict=strict, middle=middle,
                            dual=dual)


def dual_perversity(cfg: SConfig, p: Perversity) -> Perversity:
    return validate_perversity(cfg, p).dual


def _require_valid(cfg: SConfig, p: Perversity) -> PerversityReport:
    rep = validate_perversity(cfg, p)
    if not rep.valid:
        raise ValueError(
            "perversity %s is not valid in %s mode (monotone=%s, comonotone=%s)"
            % (p, cfg.z_mode, rep.monotone, rep.comonotone)
        )
    return rep


def _require_strict(cfg: SConfig, p: Perversity) -> PerversityReport:
    rep = _require_valid(cfg, p)
    if not rep.strict:
        raise ValueError(
            "perversity %s is not strict in %s mode; the heart machinery "
            "(simples, IC, Jordan-Holder, staggered truncation in weight "
            "mode) needs a strict perversity" % (p, cfg.z_mode)
        )
    return rep


# ---------------------------------------------------------------------------
# aisles
# ---------------------------------------------------------------------------


def aisle_member(cfg: SConfig, p: Perversity, F: FormalObject,
                 which: str) -> bool:
    """Membership of F in D^{<=0} ('le0') or D^{>=0} ('ge0') on X."""
    if which == "ge0":
        return aisle_member(cfg, dual_perversity(cfg, p), dualize(F), "le0")
    if which != "le0":
        raise ValueError("which must be 'le0' or 'ge0'")
    _require_valid(cfg, p)
    return all(_le0_component(cfg, p, k, m) for k, m in F.components.items())


def _le0_component(cfg: SConfig, p: Perversity, k: int,
                   m: GradedModule) -> bool:
    """The closed-form D^{<=0} condition on H^k = m (module docstring)."""
    return not (m.rank and k > p.pU) \
        and member(SITE_X, cfg, "le", p.pZ - k, m)


def _aisle_member_looped(cfg: SConfig, p: Perversity, F: FormalObject,
                         which: str, bound: int) -> bool:
    """The aisles by the Li*_n definition, n = 1..bound (T8's reference)."""
    if which == "ge0":
        return _aisle_member_looped(cfg, dual_perversity(cfg, p), dualize(F),
                                    "le0", bound)
    _require_valid(cfg, p)
    if any(m.rank and k > p.pU for k, m in F.components.items()):
        return False
    return all(member(site_z(n), cfg, "le", p.pZ - j, h)
               for n in range(1, bound + 1)
               for j, h in li_star(F, n).components.items())


def aisle_member_z(cfg: SConfig, p: Perversity, site: Site, F: FormalObject,
                   which: str) -> bool:
    """Aisle membership on a thickening Z_n (only pZ matters there)."""
    if site.kind != "Z":
        raise ValueError("aisle_member_z expects a Z site")
    for k, m in F.components.items():
        check_on_site(site, m)
    if which == "ge0":
        return aisle_member_z(cfg, dual_perversity(cfg, p), site, dualize(F),
                              "le0")
    if which != "le0":
        raise ValueError("which must be 'le0' or 'ge0'")
    return all(member(site, cfg, "le", p.pZ - k, m)
               for k, m in F.components.items())


def aisle_member_level(cfg: SConfig, p: Perversity, F: FormalObject,
                       direction: str, n: int) -> bool:
    """F in D^{<=n} / D^{>=n}: shift so the question is at level 0
    (D^{<=n} = D^{<=0}[-n], so F is a member iff F[n] is in D^{<=0})."""
    if direction not in ("le", "ge"):
        raise ValueError("direction must be 'le' or 'ge'")
    return aisle_member(cfg, p, F.shift(n), direction + "0")


# ---------------------------------------------------------------------------
# staggered truncation
# ---------------------------------------------------------------------------


@dataclass
class TriangleDecomp:
    """The truncation triangle below -> F -> above -> below[1] at a level."""

    cfg: SConfig
    p: Perversity
    level: int
    total: FormalObject
    below: FormalObject
    above: FormalObject

    def audit(self) -> List[str]:
        """Chain-level verification of the triangle.

        Rebuilds the below-part as a complex of free modules together with
        its map into the embedding of the total object, checks that the map
        is an honest chain map, that the cone's normal form equals the
        above-part, and that both ends land in their aisles.
        """
        errs: List[str] = []
        _below, _above, chainmap = _truncation_witness(
            self.cfg, self.p, self.total, self.level
        )
        if _below != self.below or _above != self.above:
            errs.append("witness reconstruction differs from stored parts")
        errs.extend(chainmap.validate())
        try:
            got = normal_form(cone(chainmap))
        except AssertionError as e:
            errs.append("cone homology certificate: %s" % e)
            return errs
        if got != self.above:
            errs.append(
                "cone of inclusion is %s, expected %s" % (got, self.above)
            )
        if not aisle_member_level(self.cfg, self.p, self.below, "le",
                                  self.level):
            errs.append("below-part not in D^{<=%d}" % self.level)
        if not aisle_member_level(self.cfg, self.p, self.above, "ge",
                                  self.level + 1):
            errs.append("above-part not in D^{>=%d}" % (self.level + 1))
        return errs


def _truncation_pieces(cfg: SConfig, p: Perversity, Fo: FormalObject,
                       n: int):
    """Per-summand truncation decision: (below, above, wits).

    ``below`` and ``above`` are the two parts, and ``wits[k]`` lists, for
    each summand of the below-part at degree k, its generator index there
    and its witness, one of

      ('sub', k_src, idx)  -- a submodule of summand idx of F at degree
                              k_src = k (generator-block map), or
      ('rot', k_src, idx)  -- the rotated free case: the piece sits one
                              degree above a free summand and its relation
                              column maps onto that summand's generator.

    A free summand above degree pU + n rotates in weight mode and goes to
    the above-part in trivial mode; every other summand is cut at
    c = pZ + n - k by ``sstruct.cut_summand`` on X.
    """
    below: Dict[int, list] = {}  # k -> [(piece, witness)]
    above: Dict[int, list] = {}  # k -> [piece]
    for k in sorted(Fo.components):
        c = p.pZ + n - k
        for idx, s in enumerate(summand_pieces(Fo.components[k])):
            if s[0] == "F" and k > p.pU + n:
                d, v = s[1], c - 1
                if cfg.z_mode == "trivial" or d >= v:
                    above.setdefault(k, []).append(s)
                else:
                    # rotated: 0 -> F(d) -> F(v) -> T(v, v - d) -> 0 puts
                    # the cokernel one degree up in the below-part
                    below.setdefault(k + 1, []).append(
                        (("T", v, v - d), ("rot", k, idx)))
                    above.setdefault(k, []).append(("F", v))
                continue
            sub, quot = cut_summand(SITE_X, cfg, s, c)
            if sub is not None:
                below.setdefault(k, []).append((sub, ("sub", k, idx)))
            if quot is not None:
                above.setdefault(k, []).append(quot)
    comps: Dict[int, GradedModule] = {}
    wits: Dict[int, list] = {}
    for k, lst in below.items():
        comps[k], cols = pieces_module([pp for pp, _w in lst])
        wits[k] = [(col, w) for col, (_pp, w) in zip(cols, lst)]
    return (FormalObject(comps),
            FormalObject({k: pieces_module(lst)[0]
                          for k, lst in above.items()}), wits)


def _truncation_witness(cfg: SConfig, p: Perversity, Fo: FormalObject,
                        n: int) -> Tuple[FormalObject, FormalObject, ChainMap]:
    """Below/above parts plus the chain-level inclusion below -> F, built
    by ``chain_map_on_embeds``: a 'sub' piece is a generator link onto the
    summand it was cut from, a 'rot' piece an Ext link from its relation
    column onto the generator of the free summand it rotated off."""
    below, above, wits = _truncation_pieces(cfg, p, Fo, n)
    links: Dict[int, dict] = {}
    ext_links: Dict[int, dict] = {}
    for k, lst in wits.items():
        nfree = below.components[k].rank
        for col, (kind, k_src, idx) in lst:
            if kind == "sub":
                links.setdefault(k, {})[(idx, col)] = 1
            else:
                ext_links.setdefault(k_src, {})[(idx, col - nfree)] = 1
    chain = chain_map_on_embeds(below, Fo, links, ext_links)
    return below, above, chain


def stag_truncate(cfg: SConfig, p: Perversity, Fo: FormalObject,
                  n: int) -> TriangleDecomp:
    """The truncation triangle tau_{<=n} F -> F -> tau_{>n} F.

    Weight mode requires a strict perversity (the summand rules below are
    the strict-case normal forms); trivial mode accepts any valid one.
    """
    if cfg.z_mode == "weight":
        _require_strict(cfg, p)
    else:
        _require_valid(cfg, p)
    below, above, _wits = _truncation_pieces(cfg, p, Fo, n)
    return TriangleDecomp(cfg=cfg, p=p, level=n, total=Fo, below=below,
                          above=above)


# ---------------------------------------------------------------------------
# the heart: kernels, cokernels, simples, IC
# ---------------------------------------------------------------------------


@dataclass
class HeartMorphism:
    """A morphism between heart objects, carried as an honest chain map
    between their free embeddings (degreewise module maps do not exhaust
    Hom in the heart: some morphisms live in the Ext component)."""

    cfg: SConfig
    p: Perversity
    src: FormalObject
    dst: FormalObject
    chain: ChainMap


def heart_morphism(cfg: SConfig, p: Perversity, src: FormalObject,
                   dst: FormalObject,
                   fmaps: Dict[int, GradedMap]) -> HeartMorphism:
    """Heart morphism from degreewise module maps H^k(src) -> H^k(dst)."""
    ch = chain_map_on_embeds(
        src, dst, {k: f.mat.entries for k, f in fmaps.items()})
    errs = ch.validate()
    if errs:
        raise ValueError("not a chain map: " + "; ".join(errs))
    return HeartMorphism(cfg=cfg, p=p, src=src, dst=dst, chain=ch)


@dataclass
class HeartKerCoker:
    kernel: FormalObject
    cokernel: FormalObject
    cone: FormalObject


def heart_kernel_cokernel(hm: HeartMorphism) -> HeartKerCoker:
    """Kernel and cokernel of a heart morphism via the cone.

    For f: A -> B in the heart, the cone C sits in a triangle
    A -> B -> C -> A[1], and ker f = (tau_{<=-1} C)[-1],
    coker f = tau_{>=0} C.
    """
    Cf = normal_form(cone(hm.chain))
    tr = stag_truncate(hm.cfg, hm.p, Cf, -1)
    return HeartKerCoker(kernel=tr.below.shift(-1), cokernel=tr.above,
                         cone=Cf)


def _simple(p: Perversity, n: Optional[int] = None
            ) -> Tuple[str, FormalObject]:
    """The simple of the heart of a strict perversity, with its label: the
    structure sheaf OX = F(0) @ pU (n None), or the pushed skyscraper
    SZ(n) = T(n, 1) @ (pZ - n)."""
    if n is None:
        return "OX", formal(Fmod(0), p.pU)
    return "SZ(%d)" % n, formal(Tmod(n, 1), p.pZ - n)


def simples(cfg: SConfig, p: Perversity, n_lo: int, n_hi: int
            ) -> List[Tuple[str, FormalObject]]:
    """The simple objects of the heart with skyscraper weight in a window:
    OX, then SZ(n) for n from n_lo to n_hi (``_simple``)."""
    _require_strict(cfg, p)
    return [_simple(p)] + [_simple(p, n) for n in range(n_lo, n_hi + 1)]


def ic(cfg: SConfig, p: Perversity, orbit: str, param: int) -> FormalObject:
    """IC extension: ic('U', r) = O^r @ pU; ic('Z', n) = V(n) @ (pZ - n)."""
    _require_strict(cfg, p)
    if orbit == "U":
        if param < 0:
            raise ValueError("rank must be >= 0")
        return formal(gm([0] * param), p.pU)
    if orbit == "Z":
        return _simple(p, param)[1]
    raise ValueError("orbit must be 'U' or 'Z'")


# ---------------------------------------------------------------------------
# Jordan-Holder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JHStep:
    """One peel as a delta: the simple ``simple`` embeds in ``block``, one
    summand of the running object at its degree, with cokernel
    ``quotient``; the rest of the object passes on unchanged.

    ``block`` is T(n,1) @ (pZ - n), or F(-1), F(0) or F(1) @ pU, and
    ``quotient`` its closed-form cokernel: 0, T(1,1) @ pU or F(0) @ pU.
    ``chain`` is the witness, a chain map from ``free_embed(simple)`` to
    ``free_embed(block)``.  ``jh_factors`` repeats one step object per
    distinct block; ``JHReport.replay`` gives the whole objects.
    """

    label: str
    simple: FormalObject
    block: FormalObject
    chain: ChainMap
    quotient: FormalObject

    @functools.cached_property
    def delta(self) -> Tuple[Counter, Counter]:
        """The summand counts of ``block`` and of ``quotient``."""
        return Counter(self.block.pieces()), Counter(self.quotient.pieces())


def _move(counts: Counter, st: JHStep) -> bool:
    """Take the block of ``st`` out of ``counts`` and put its quotient in.
    False when the block is not a summand; then what the counts hold of it
    is taken."""
    take, put = st.delta
    held = all(counts[kp] >= c for kp, c in take.items())
    for kp, c in take.items():
        counts[kp] = max(counts[kp] - c, 0)
    counts.update(put)
    return held


@dataclass
class JHReport:
    obj: FormalObject
    factors: List[str]
    steps: List[JHStep]

    @property
    def length(self) -> int:
        return len(self.factors)

    def replay(self) -> Iterator[Tuple[FormalObject, FormalObject]]:
        """(before, after) of each step: the whole object the step peels
        and the one it leaves, by the summand counts the audit keeps."""
        counts = Counter(self.obj.pieces())
        after = self.obj
        for st in self.steps:
            before = after
            _move(counts, st)
            after = formal_sum([(k, pieces_module([s] * c)[0])
                                for (k, s), c in counts.items()])
            yield before, after

    def audit(self, cfg: SConfig, p: Perversity) -> List[str]:
        """Verify the peel by replaying the summand counts from ``obj``:
        each step needs a positive count of its block, takes it out and
        puts its quotient in, and the counts must end at zero.  Each
        distinct step object is certified once per call (``_step_errors``);
        a step with another chain is another object.  The factors must be
        the step labels, the number of steps the closed-form length, and
        ``obj`` in the heart.

        Why the block suffices.  Write the running object as B (+) H', with
        B the block and H' the counts minus the block; the whole-object
        witness is phi = (phi_B, 0): S -> B (+) H'.  ``free_embed`` is
        additive, so cone(phi) = cone(phi_B) (+) free_embed(H') on the
        nose, and its normal form is that of cone(phi_B) plus H'.  The
        staggered truncations are additive too.  H' is a direct summand of
        a heart object (``obj`` is checked to be in the heart, and each
        later running object is the previous step's cokernel in the heart),
        so H' is in the heart: its truncation at -1 is (0, H').  Hence
        ker phi = ker phi_B, coker phi = coker phi_B (+) H' and the cone of
        phi is the cone of phi_B (+) H'.
        """
        errs: List[str] = []
        if not _in_heart(cfg, p, self.obj):
            errs.append("object is not in the heart of %s" % p)
        counts = Counter(self.obj.pieces())
        seen: Dict[int, tuple] = {}  # id(step) -> (its errors, simple ok)
        for i, st in enumerate(self.steps):
            if id(st) not in seen:
                seen[id(st)] = (_step_errors(cfg, p, st),
                                _is_simple_shape(p, st.label, st.simple))
            werrs, simple = seen[id(st)]
            if not _move(counts, st):
                werrs = ["block is not a summand of the object"]
            errs.extend("step %d: %s" % (i, e) for e in werrs)
            if not simple:
                errs.append("step %d: peeled piece is not the labeled simple" % i)
        if any(counts.values()):
            errs.append("filtration does not terminate at zero")
        if self.factors != [st.label for st in self.steps]:
            errs.append("factors differ from the step labels")
        n = _jh_length(self.obj)
        if len(self.steps) != n:
            errs.append("%d steps for an object of length %d"
                        % (len(self.steps), n))
        return errs


def _step_errors(cfg: SConfig, p: Perversity, st: JHStep) -> List[str]:
    """The checks of one step on its block, which certify the closed-form
    quotient of the peel: the witness runs between the embeddings of
    ``simple`` and ``block``, is a chain map, has heart kernel 0, and its
    cokernel and cone (``normal_form`` with its homology rank certificate,
    then the heart truncation) are ``quotient``."""
    ch = st.chain
    if (ch.src, ch.dst) != (free_embed(st.simple), free_embed(st.block)):
        return ["witness does not run from the simple to the block"]
    errs = ch.validate()
    if errs:
        return errs
    kc = heart_kernel_cokernel(
        HeartMorphism(cfg, p, st.simple, st.block, ch))
    if not kc.kernel.is_zero:
        errs.append("witness not mono in the heart")
    if kc.cokernel != st.quotient:
        errs.append("quotient mismatch")
    if kc.cone != st.quotient:
        errs.append("cone differs from recorded quotient")
    return errs


def _is_simple_shape(p: Perversity, label: str, S: FormalObject) -> bool:
    """Is (label, S) a simple?  Its skyscraper weight, if any, is read off
    S, so no label is parsed."""
    tors = [s for _k, s in S.pieces() if s[0] == "T"]
    return _simple(p, tors[0][1] if tors else None) == (label, S)


def _in_heart(cfg: SConfig, p: Perversity, Fo: FormalObject) -> bool:
    return aisle_member(cfg, p, Fo, "le0") and aisle_member(cfg, p, Fo, "ge0")


def _jh_step(p: Perversity, key: tuple) -> JHStep:
    """The peel from the heart summand keyed (k, piece): T(n,1) @ k with
    k = pZ - n, or F(d) @ k with k = pU (and pZ = pU + 1, as p is strict).

    A skyscraper summand and F(0) are simples, peeled by the identity with
    quotient 0; OX embeds in F(1) via x with quotient SZ(1), so F(1)
    becomes T(1,1); SZ(0) embeds in F(-1) via the Ext component (its
    relation column, of weight -1, onto the generator), and F(-1) becomes
    F(0).  The quotient is that closed form; ``JHReport.audit`` certifies
    it by the cone of the chain.
    """
    k, (kind, n, *_l) = key
    one = {k: {(0, 0): 1}}  # the generator link at degree k
    if kind == "T":
        label, S = _simple(p, n)
        return JHStep(label, S, S, chain_map_on_embeds(S, S, one),
                      FormalObject())
    block = formal(Fmod(n), k)
    if n in (0, 1):
        label, S = _simple(p)
        return JHStep(label, S, block, chain_map_on_embeds(S, block, one),
                      formal(Tmod(1, 1) if n else ZERO, k))
    if n == -1:
        label, S = _simple(p, 0)
        return JHStep(label, S, block,
                      chain_map_on_embeds(S, block, {}, one),
                      formal(Fmod(0), k))
    raise ValueError("free heart summands have generator in {-1, 0, 1}")


def _jh_length(H: FormalObject) -> int:
    """Jordan-Holder length of a heart object of a strict perversity, in
    closed form: each skyscraper summand T(n,1) and each F(0) is one simple,
    F(1) and F(-1) are two (OX and a skyscraper)."""
    return sum(len(m.torsion) + 2 * len(m.free) - m.free.count(0)
               for m in H.components.values())


def jh_factors(cfg: SConfig, p: Perversity, Fo: FormalObject,
               _order: str = "default") -> JHReport:
    """Jordan-Holder factors of a heart object, with mono witnesses.

    Peeling strategy ('default'): shifted-simple torsion summands first
    (smallest skyscraper weight), then the free summands: F(-1) gives up
    SZ(0), F(0) is OX itself, F(1) contains OX with quotient SZ(1).  The
    '_order' knob re-runs the peel with different preferences; the factor
    multiset is an invariant, which ``tests/test_stag.py`` checks
    (``test_jh_composite_multiset_invariant``,
    ``test_jh_random_heart_objects`` and ``test_jh_closed_form_peel``).

    The running object is summand counts, the skyscrapers in a heap by
    weight, so a step picks its block in O(log L) and applies its delta
    (``_jh_step``, built once per block; ``JHReport.audit`` certifies it).
    Each step lowers the closed-form length by exactly 1 (asserted per
    block), so the peel ends after ``_jh_length`` steps, at any length.
    """
    _require_strict(cfg, p)
    if not _in_heart(cfg, p, Fo):
        raise ValueError("object is not in the heart of %s" % p)
    sign = 1 if _order == "default" else -1  # alt: torsion largest-first
    frees = [(p.pU, ("F", d)) for d in ((-1, 0, 1) if sign > 0 else (0, 1, -1))]
    counts = Counter(Fo.pieces())
    # a heap of (sign * n, key), one per torsion key put in
    sky = [(sign * s[1], (k, s)) for k, s in counts if s[0] == "T"]
    heapq.heapify(sky)
    steps: List[JHStep] = []
    wits: Dict[tuple, JHStep] = {}
    for _ in range(_jh_length(Fo)):
        while sky and not counts[sky[0][1]]:
            heapq.heappop(sky)  # its count ran out
        key = next((f for f in frees if counts[f]), None)
        if sky and (sign > 0 or key is None):
            key = sky[0][1]
        if key not in wits:
            st = wits[key] = _jh_step(p, key)
            if _jh_length(st.block) != _jh_length(st.quotient) + 1:
                raise AssertionError(
                    "Jordan-Holder peel did not lower the length")
        st = wits[key]
        _move(counts, st)
        for k, s in st.delta[1]:
            if s[0] == "T":
                heapq.heappush(sky, (sign * s[1], (k, s)))
        steps.append(st)
    return JHReport(obj=Fo, factors=[s.label for s in steps], steps=steps)


# ---------------------------------------------------------------------------
# t-structure suite
# ---------------------------------------------------------------------------


def _blessed_perversities(cfg: SConfig) -> List[Perversity]:
    if cfg.z_mode == "weight":
        return [Perversity(0, 1), Perversity(-1, 0), Perversity(1, 2)]
    return [Perversity(0, 1), Perversity(0, 0), Perversity(-1, 0)]


def tstructure_suite(cfg: SConfig, seed: int = 1, samples: int = 200
                     ) -> SuiteReport:
    """Randomized verification that the staggered aisles are a t-structure.

    Orthogonality, truncation triangles (with chain-level audit), shift
    nesting, duality exchange of the truncations, stability of the lower
    aisle under standard truncation, pushforward compatibility from the
    thickenings, boundedness, and (T8) the closed-form aisles against the
    looped Li* definition up to n = longest torsion length + 4.
    """
    rep = SuiteReport(suite="tstructure", seed=seed, samples=samples,
                      mode=cfg.z_mode)
    rng = random.Random(seed)
    ps = _blessed_perversities(cfg)

    for it in range(samples):
        p = rng.choice(ps)
        comps = sampling.random_formal_components(rng, deg_lo=-2, deg_hi=2,
                                                  max_len=3)
        Fo = FormalObject(dict(comps))
        level = rng.randint(-2, 2)
        tr = stag_truncate(cfg, p, Fo, level)

        # (ii) truncation triangle with chain-level audit
        c = rep.check("T2_truncation_triangle")
        errs = tr.audit()
        c.record(not errs, "trunc %s level %d on %s: %s"
                 % (p, level, Fo, "; ".join(errs)))

        # (i) orthogonality below x above via true derived homs
        c = rep.check("T1_orthogonality")
        sh_b = tr.below.shift(level)  # normalize to level 0
        sh_a = tr.above.shift(level)
        dh = derived_hom(SITE_X, sh_b, sh_a)
        c.record(dh.get(0, 0) == 0,
                 "Hom_D(D^{<=0}, D^{>=1}) != 0: %s vs %s (p=%s)"
                 % (sh_b, sh_a, p))

        # (iii) shift nesting
        c = rep.check("T3_shift_nesting")
        ok = aisle_member_level(cfg, p, tr.below, "le", level + 1) and \
            aisle_member_level(cfg, p, tr.above, "ge", level)
        c.record(ok, "nesting failed for %s at level %d (p=%s)"
                 % (Fo, level, p))

        # (iv) duality exchanges the truncations
        pd = dual_perversity(cfg, p)
        pre = cfg.z_mode == "trivial" or validate_perversity(cfg, pd).strict
        trd = stag_truncate(cfg, pd, dualize(Fo), -level - 1) if pre else None
        rep.check("T4_duality_exchange").record(
            not pre or (dualize(tr.above) == trd.below
                        and dualize(tr.below) == trd.above),
            "duality exchange failed: %s level %d p=%s" % (Fo, level, p))

        # (v) the lower aisle is stable under standard truncation
        c = rep.check("T5_std_stability")
        kk = rng.randint(-2, 2)
        stdb, _stda = std_truncate(tr.below, kk)
        c.record(aisle_member_level(cfg, p, stdb, "le", level),
                 "std truncation left the aisle: %s" % Fo)

        # (vi) pushforward from Z_n respects the aisles
        nthick = rng.randint(1, 3)
        zc = {
            k: sampling.random_torsion_module(rng, max_len=nthick)
            for k in range(-1, 2)
        }
        Gz = FormalObject(zc)
        zs = site_z(nthick)
        rep.check("T6_push_z").record(
            all(not aisle_member_z(cfg, p, zs, Gz, which)
                or aisle_member(cfg, p, push_z(nthick, Gz), which)
                for which in ("le0", "ge0")),
            "push_z broke aisle membership: %s n=%d p=%s" % (Gz, nthick, p))

        # (vii) boundedness and nondegeneracy; the scan window covers the
        # sampler's content (weights in [-6,6], degrees in [-2,2], lengths
        # up to 3) for every blessed perversity
        c = rep.check("T7_bounded")
        W = 14
        ok = True
        if not Fo.is_zero:
            ok = any(aisle_member_level(cfg, p, Fo, "le", nn)
                     for nn in range(-W, W + 1))
            ok = ok and not all(aisle_member_level(cfg, p, Fo, "le", nn)
                                for nn in range(-W, W + 1))
            ok = ok and any(aisle_member_level(cfg, p, Fo, "ge", nn)
                            for nn in range(-W, W + 1))
        c.record(ok, "boundedness failed on %s (p=%s)" % (Fo, p))

        # the closed form against the Li* loop, well past every length
        c = rep.check("T8_bound_stability")
        L = max([m.max_torsion_length() for m in Fo.components.values()] + [0])
        ok = all(aisle_member(cfg, p, Fo, w)
                 == _aisle_member_looped(cfg, p, Fo, w, L + 4)
                 for w in ("le0", "ge0"))
        c.record(ok, "aisle closed form != Li* loop on %s (p=%s)" % (Fo, p))

    return rep
