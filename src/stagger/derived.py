"""Formal objects, duality, the orbit functors, and chain-level homology.

The bounded derived category of finitely generated graded k[x]-modules is
hereditary, so every bounded complex is quasi-isomorphic to the direct sum
of its shifted cohomologies.  ``FormalObject`` is that normal form: a finite
dictionary degree -> module, where the module M placed at degree k stands
for M[-k] (H^k = M).

Functors implemented in closed form on formal objects:

* ``dualize`` -- Grothendieck-Serre duality D = RHom(-, omega_X) with
  omega_X = A in degree 0.  On summands: D(F(d) @ k) = F(-d) @ -k and
  D(T(g, n) @ k) = T(n - g, n) @ (1 - k) (torsion has a one-step shift
  because RHom against it is concentrated in Ext^1).
* ``li_star`` / ``ri_flat`` -- derived restriction to the thickening Z_n,
  left adjoint (Li^* = - (x)^L A/x^n) and right adjoint
  (Ri^flat = RHom(A/x^n, -), with the weight-n twist making the answers
  genuine graded modules over the thickening).
* ``push_z`` -- exact pushforward from Z_n (the inclusion of torsion
  modules), ``restrict_u`` -- restriction to the open orbit (free rank).
* ``r_gamma_z`` -- local cohomology with support at the origin; on a free
  summand this is no longer finitely generated, so the answer carries
  symbolic ``CoFree`` markers (socle weight s, occupying all weights >= s)
  which are kept apart from ordinary module arithmetic.

The chain layer (``ChainComplex``, ``free_embed``, ``chain_map_on_embeds``,
``cone``, ``normal_form``) exists so that triangle-level claims can be audited
honestly: a formal object is embedded as an honest complex of free modules,
maps are checked to be chain maps, and ``normal_form`` recovers the
cohomology of a complex of free modules from the persistence pairing of
the weight filtration, checked by an independent per-weight rank
certificate (by the one rule, ``grmod.dim_mismatch``).  A free term is only
its tuple of generator weights, and a differential or a component of a chain
map is a bare ``MonoMatrix``; every step, and ``derived_hom``, visits only
occupied degrees and the weights that occur, so its cost does not grow with
the span between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .grmod import (
    GradedModule,
    MonoMatrix,
    Q,
    ZERO,
    _echelon_insert,
    _integral,
    _rank_steps,
    dim_mismatch,
    direct_sum,
    ext1_dim,
    fmt_module,
    gm,
    hom_dim,
    summand_ends,
    weight_dim,
)
from .sstruct import Site, check_on_site


# ---------------------------------------------------------------------------
# formal objects
# ---------------------------------------------------------------------------


@dataclass
class FormalObject:
    """A formal bounded complex: H^k is ``components[k]`` (zeros dropped)."""

    components: Dict[int, GradedModule] = field(default_factory=dict)

    def __post_init__(self):
        self.components = {
            int(k): m for k, m in self.components.items() if not m.is_zero
        }

    @property
    def is_zero(self) -> bool:
        return not self.components

    def degrees(self) -> List[int]:
        return sorted(self.components)

    def component(self, k: int) -> GradedModule:
        return self.components.get(k, ZERO)

    def shift(self, s: int) -> "FormalObject":
        """F[s]: H^k(F[s]) = H^{k+s}(F)."""
        return FormalObject({k - s: m for k, m in self.components.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalObject) and \
            self.components == other.components

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return "; ".join(
            "[%d] %s" % (k, fmt_module(self.components[k]))
            for k in self.degrees()
        )


def formal(M: GradedModule, k: int = 0) -> FormalObject:
    """The module M placed in cohomological degree k (i.e. M[-k])."""
    return FormalObject({k: M})


def _accumulate(comps: Dict[int, GradedModule], k: int,
                m: GradedModule) -> None:
    """Add m to the module at degree k of ``comps``; zero modules are
    skipped."""
    if m.is_zero:
        return
    comps[k] = direct_sum(comps[k], m) if k in comps else m


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------


def dualize(F: FormalObject) -> FormalObject:
    """Serre duality with dualizing complex omega_X = A @ 0.

    D(F(d) @ k) = F(-d) @ -k;  D(T(g, n) @ k) = T(n - g, n) @ (1 - k).
    An involution: D o D = id.
    """
    comps: Dict[int, GradedModule] = {}
    for k, m in F.components.items():
        if m.free:
            _accumulate(comps, -k, gm([-d for d in m.free]))
        if m.torsion:
            _accumulate(comps, 1 - k,
                        gm([], [(n - g, n) for g, n in m.torsion]))
    return FormalObject(comps)


# ---------------------------------------------------------------------------
# restriction to thickenings and the open orbit
# ---------------------------------------------------------------------------


def _mod_xn(M: GradedModule, n: int) -> GradedModule:
    """M / x^n M."""
    return gm(
        [],
        [(d, n) for d in M.free] + [(g, min(l, n)) for g, l in M.torsion],
    )


def _ker_xn(M: GradedModule, n: int) -> GradedModule:
    """Kernel of x^n on M (free summands contribute nothing)."""
    return gm(
        [],
        [(min(g, g - l + n), min(l, n)) for g, l in M.torsion],
    )


def li_star(F: FormalObject, n: int) -> FormalObject:
    """Derived restriction Li^* to Z_n: H^0 = M/x^n, H^{-1} = ker(x^n)(-n).

    The twist by -n on the kernel makes the Tor_1 term a module over the
    thickening placed in the correct weights: resolving A/x^n by
    0 -> A(-n)... the kernel generators acquire weight shift -n.
    """
    if n < 1:
        raise ValueError("thickening must be >= 1")
    comps: Dict[int, GradedModule] = {}
    for k, m in F.components.items():
        _accumulate(comps, k, _mod_xn(m, n))
        _accumulate(comps, k - 1, _ker_xn(m, n).twist(-n))
    return FormalObject(comps)


def ri_flat(F: FormalObject, n: int) -> FormalObject:
    """Right adjoint Ri^flat to Z_n: H^0 = ker(x^n), H^{+1} = (M/x^n)(+n)."""
    if n < 1:
        raise ValueError("thickening must be >= 1")
    comps: Dict[int, GradedModule] = {}
    for k, m in F.components.items():
        _accumulate(comps, k, _ker_xn(m, n))
        _accumulate(comps, k + 1, _mod_xn(m, n).twist(n))
    return FormalObject(comps)


def push_z(n: int, F: FormalObject) -> FormalObject:
    """Exact pushforward of a Z_n object to X (validates the source)."""
    site = Site("Z", n)
    for k, m in F.components.items():
        check_on_site(site, m)
    return FormalObject(dict(F.components))


def restrict_u(F: FormalObject) -> FormalObject:
    """Restriction to the open orbit: only the rank survives, trivialized."""
    return FormalObject(
        {k: gm([0] * m.rank) for k, m in F.components.items() if m.rank}
    )


# ---------------------------------------------------------------------------
# local cohomology with support at the origin
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoFree:
    """Symbolic Matlis-type summand: weights socle, socle+1, ... (all dim 1).

    Not finitely generated, so never mixed into GradedModule arithmetic.
    """

    socle: int


@dataclass
class GammaObject:
    """R Gamma_Z of a formal object: per degree a torsion module plus
    symbolic cofree summands."""

    torsion: Dict[int, GradedModule] = field(default_factory=dict)
    cofree: Dict[int, Tuple[CoFree, ...]] = field(default_factory=dict)

    def weight_dim(self, k: int, w: int) -> int:
        d = weight_dim(self.torsion.get(k, ZERO), w)
        d += sum(1 for c in self.cofree.get(k, ()) if w >= c.socle)
        return d

    def __str__(self) -> str:
        degs = sorted(set(self.torsion) | set(self.cofree))
        if not degs:
            return "0"
        parts = []
        for k in degs:
            bits = []
            t = self.torsion.get(k, ZERO)
            if not t.is_zero:
                bits.append(fmt_module(t))
            bits.extend("CoFree(%d)" % c.socle for c in self.cofree.get(k, ()))
            parts.append("[%d] %s" % (k, " + ".join(bits)))
        return "; ".join(parts)


def r_gamma_z(F: FormalObject) -> GammaObject:
    """Sections with support on Z: H^0_Z = torsion part, H^1_Z of a free
    summand F(d) is the cofree module with socle weight d + 1 (the colimit
    of (F(d)/x^n)(n) = T(d+n, n) as the thickening grows)."""
    out = GammaObject()
    for k, m in F.components.items():
        _accumulate(out.torsion, k, m.torsion_part())
        if m.free:
            out.cofree[k + 1] = out.cofree.get(k + 1, ()) + tuple(
                CoFree(d + 1) for d in sorted(m.free)
            )
    return out


# ---------------------------------------------------------------------------
# derived hom (site-limited)
# ---------------------------------------------------------------------------


def derived_hom(site: Site, F: FormalObject, G: FormalObject) -> Dict[int, int]:
    """Graded dimensions of Hom_{D(site)}(F, G[t]), keyed by t.

    On X the category is hereditary, so
    dim Hom_D(F, G[t]) = sum_k hom(F_k, G_{k+t}) + sum_k ext1(F_k, G_{k+t-1}).
    On the reduced point Z_1 the category of graded modules is semisimple
    and only the hom term survives.  Thickenings Z_n with n >= 2 are
    refused: D(Z_n) is not hereditary (x^n has unbounded Tor against the
    residue field), formal objects do not determine their Hom spaces, and
    the two-term formula above is simply wrong there.
    """
    if site.kind == "Z" and site.n >= 2:
        raise ValueError(
            "derived_hom is not defined on Z_%d: the thickened point is not "
            "hereditary, so formal objects do not determine Hom spaces"
            % site.n
        )
    for m in [*F.components.values(), *G.components.values()]:
        check_on_site(site, m)
    out: Dict[int, int] = {}
    for k, m in F.components.items():
        for j, n in G.components.items():
            out[j - k] = out.get(j - k, 0) + hom_dim(m, n)
            if site.kind == "X":
                out[j - k + 1] = out.get(j - k + 1, 0) + ext1_dim(m, n)
    return {t: d for t, d in sorted(out.items()) if d}


def std_truncate(F: FormalObject, k: int) -> Tuple[FormalObject, FormalObject]:
    """Standard t-truncation (tau_{<=k} F, tau_{>=k+1} F) of a formal object."""
    below = FormalObject({j: m for j, m in F.components.items() if j <= k})
    above = FormalObject({j: m for j, m in F.components.items() if j > k})
    return below, above


# ---------------------------------------------------------------------------
# chain complexes
# ---------------------------------------------------------------------------


Weights = Tuple[int, ...]


@dataclass
class ChainComplex:
    """Cochain complex of free modules: ``terms[k]`` holds the generator
    weights of term k, and ``diffs[k]`` : term_k -> term_{k+1} is a
    ``MonoMatrix`` (rows the weights of term k + 1, columns those of term
    k).  A degree missing from either is zero."""

    terms: Dict[int, Weights] = field(default_factory=dict)
    diffs: Dict[int, MonoMatrix] = field(default_factory=dict)

    def term(self, k: int) -> Weights:
        return self.terms.get(k, ())

    def degrees(self) -> List[int]:
        return sorted(self.terms)

    def validate(self) -> List[str]:
        errs = ["diff %d has wrong endpoints" % k
                for k, d in self.diffs.items()
                if d.col_weights != self.term(k)
                or d.row_weights != self.term(k + 1)]
        if errs:
            return errs
        for k, d in self.diffs.items():
            nxt = self.diffs.get(k + 1)
            if nxt is not None and not nxt.compose(d).is_zero():
                errs.append("d^2 != 0 at degree %d" % k)
        return errs


@dataclass
class ChainMap:
    src: ChainComplex
    dst: ChainComplex
    maps: Dict[int, MonoMatrix] = field(default_factory=dict)

    def validate(self) -> List[str]:
        """Errors of this map, [] if it is a chain map.  A degree missing
        from ``maps`` is read as zero and is not added to it; squares are
        checked only when every component has the weights of its ends."""
        errs = ["component %d has wrong endpoints" % k
                for k, f in sorted(self.maps.items())
                if f.col_weights != self.src.term(k)
                or f.row_weights != self.dst.term(k)]
        if errs:
            return errs
        for k in sorted(set(self.maps) | set(self.src.diffs)
                        | set(self.dst.diffs)):
            left, right = self.dst.diffs.get(k), self.src.diffs.get(k)
            fk, fk1 = self.maps.get(k), self.maps.get(k + 1)
            lhs = left.compose(fk).entries \
                if left is not None and fk is not None else {}
            rhs = fk1.compose(right).entries \
                if right is not None and fk1 is not None else {}
            if lhs != rhs:
                errs.append("square at degree %d does not commute" % k)
        return errs


def free_embed(F: FormalObject) -> ChainComplex:
    """A complex of free modules with H^k = F_k.

    term_k = (generators of H^k, free first, then torsion) + (one relation
    column x^n e per torsion summand T(g, n) of H^{k+1}, of weight g - n);
    the only differential block sends each relation column of term_k onto
    x^n times its torsion generator in term_{k+1}.  Both blocks are free,
    the relation columns are independent, and the cohomology is exactly
    the formal object again.  Only degrees k and k - 1 of each nonzero H^k
    carry a term.
    """
    comps = F.components
    terms: Dict[int, Weights] = {}
    for k in sorted(set(comps) | {k - 1 for k in comps}):
        gens = comps[k].gen_weights() if k in comps else ()
        rels = tuple(g - n for g, n in comps[k + 1].torsion) \
            if k + 1 in comps else ()
        if gens or rels:
            terms[k] = gens + rels
    diffs: Dict[int, MonoMatrix] = {}
    for k, m in comps.items():
        if m.torsion:  # the relation columns of term k - 1 come last
            ng = len(terms[k - 1]) - len(m.torsion)
            d = MonoMatrix(terms[k], terms[k - 1])
            for t in range(len(m.torsion)):
                d.set(len(m.free) + t, ng + t, 1)
            diffs[k - 1] = d
    return ChainComplex(terms=terms, diffs=diffs)


Links = Dict[int, Dict[Tuple[int, int], Q]]


def chain_map_on_embeds(F: FormalObject, G: FormalObject, links: Links,
                        ext_links: Optional[Links] = None) -> ChainMap:
    """The chain map from ``free_embed(F)`` to ``free_embed(G)`` given by
    generator links and Ext links; the one place that writes such maps.

    Term k of an embedding holds the canonical generators of H^k (free
    first, then torsion, as ``present`` orders them) followed by one
    relation column per torsion summand of H^{k+1}, in order.

    ``links[k]`` = {(i, j): c} sends generator j of F_k to c x^(w_i - w_j)
    times generator i of G_k: the coefficients of a module map
    H^k(F) -> H^k(G), written into the generator block as they are.  The
    relation block transports them: when torsion summand T(w_j, n) of
    F_{k+1} goes to torsion summand T(w_i, m) of G_{k+1}, its relation
    x^n e_j goes to c x^(w_i - w_j + n - m) times the relation x^m e_i,
    so the map respects relations iff (w_i - w_j) + n - m >= 0.  Torsion
    never goes to a free summand.

    ``ext_links[k]`` = {(i, t): c} are Ext components: the relation column
    of torsion summand t of F_{k+1} goes to c times generator i of G_k.
    Generators have zero differential, so such a link is a chain map when
    nothing links torsion summand t itself at degree k + 1.
    """
    cf, cg = free_embed(F), free_embed(G)
    maps: Dict[int, MonoMatrix] = {}
    for k in cf.degrees():
        if k not in cg.terms:
            continue
        mat = MonoMatrix(cg.term(k), cf.term(k))
        for (i, j), c in links.get(k, {}).items():
            mat.set(i, j, c)
        # the relation block of term k follows the generators of H^k
        roff_f = len(F.component(k).gen_weights())
        roff_g = len(G.component(k).gen_weights())
        src, dst = F.component(k + 1), G.component(k + 1)
        nf, ng = len(src.free), len(dst.free)
        for (i, j), c in links.get(k + 1, {}).items():
            if j < nf:
                continue
            if i < ng:
                raise ValueError(
                    "torsion-to-free component cannot be a module map")
            (ws, n), (wd, m) = src.torsion[j - nf], dst.torsion[i - ng]
            if (wd - ws) + n - m < 0:
                raise ValueError("map does not preserve relations")
            mat.set(roff_g + i - ng, roff_f + j - nf, c)
        for (i, t), c in (ext_links or {}).get(k, {}).items():
            mat.set(i, roff_f + t, c)
        maps[k] = mat
    return ChainMap(cf, cg, maps)


def cone(phi: ChainMap) -> ChainComplex:
    """Mapping cone: C^k = A^{k+1} (+) B^k, d = [[-d_A, 0], [phi, d_B]]."""
    A, B = phi.src, phi.dst
    terms: Dict[int, Weights] = {}
    for k in sorted({k - 1 for k in A.terms} | set(B.terms)):
        gens = A.term(k + 1) + B.term(k)
        if gens:
            terms[k] = gens
    diffs: Dict[int, MonoMatrix] = {}
    for k in sorted(terms):
        if k + 1 not in terms:
            continue
        na1, na2 = len(A.term(k + 1)), len(A.term(k + 2))
        mat = MonoMatrix(terms[k + 1], terms[k])
        da = A.diffs.get(k + 1)
        if da is not None:
            for (i, j), c in da.entries.items():
                mat.set(i, j, -c)
        f = phi.maps.get(k + 1)
        if f is not None:
            for (i, j), c in f.entries.items():
                mat.set(na2 + i, j, c)
        db = B.diffs.get(k)
        if db is not None:
            for (i, j), c in db.entries.items():
                mat.set(na2 + i, na1 + j, c)
        diffs[k] = mat
    return ChainComplex(terms=terms, diffs=diffs)


def normal_form(c: ChainComplex) -> FormalObject:
    """Cohomology of a complex of free modules, with a rank certificate.

    H^k is the persistence pairing of the weight filtration (Zomorodian &
    Carlsson 2005, "Computing persistent homology"), read off by
    ``_pairing_homology``.  Each term has one total order, descending
    weight with ties by index: its columns in d_k are swept in it, and its
    rows in d_{k-1} are keyed by its reverse, youngest first.  For k
    ascending the columns of d_k are swept once; a column that stops at row
    i kills generator i of term k + 1, which gives T(w_i, w_i - v) in
    H^{k+1} or cancels when w_i == v, and the killed generator's column in
    d_{k+1} is skipped (clearing: Chen & Kerber 2011, "Persistent homology
    computation with a twist").  A generator whose column vanishes and that
    nothing killed gives F(w) in H^k.

    Every reconstructed weight dimension is then checked against rank
    arithmetic on the differentials (``_certify``).  A complex whose
    differentials do not fit its terms, or whose d^2 is not 0, is refused
    by ``validate``.

    The cone of x: F(0) -> F(1) is the torsion quotient T(1,1) at degree 0:

    >>> from stagger.grmod import F
    >>> phi = chain_map_on_embeds(formal(F(0)), formal(F(1)), {0: {(0, 0): 1}})
    >>> print(normal_form(cone(phi)))
    [0] T(1,1)
    """
    errs = c.validate()
    if errs:
        raise ValueError("invalid complex: " + "; ".join(errs))
    hs = _pairing_homology(c)
    _certify(c, hs)
    return FormalObject(hs)


def _pairing_homology(c: ChainComplex) -> Dict[int, GradedModule]:
    """H^k of a complex of free modules, for every degree with generators,
    by the sweep ``normal_form`` describes.

    Clearing is sound: the column that killed generator i has zero
    differential, and its other entries sit at older generators (weight
    >= w_i), so d_{k+1} e_i is a polynomial combination of their columns
    and adds nothing to the span at any weight.  The summands do not depend
    on how ties are broken.
    """
    # oldest first: descending weight, ties by index (the sort is stable)
    order = {k: sorted(range(len(ws)), key=ws.__getitem__, reverse=True)
             for k, ws in c.terms.items()}
    out: Dict[int, GradedModule] = {}
    killed: Dict[int, int] = {}  # generator of term k -> weight of its killer
    for k in c.degrees():
        gens = c.term(k)
        if not gens:
            continue
        young = order.get(k + 1, [])[::-1]  # the rows of d_k by key
        key = {i: r for r, i in enumerate(young)}
        cols: Dict[int, Dict[int, Q]] = {}
        dk = c.diffs.get(k)
        if dk is not None:
            for (i, j), q in dk.entries.items():
                cols.setdefault(j, {})[key[i]] = q
        free: List[int] = []
        tors = [(gens[i], gens[i] - v) for i, v in killed.items()
                if gens[i] > v]
        nxt: Dict[int, int] = {}
        basis: Dict[int, Dict[int, int]] = {}
        for j in order[k]:
            if j in killed:
                continue
            col = cols.get(j)
            r = _echelon_insert(basis, _integral(col), len(young)) \
                if col else None
            if r is None:
                free.append(gens[j])
            else:
                nxt[young[r]] = gens[j]
        out[k] = GradedModule(tuple(sorted(free)), tuple(sorted(tors)))
        killed = nxt
    return out


def _certify(c: ChainComplex, hs: Dict[int, GradedModule]) -> None:
    """Independent per-weight dimension audit of the computed H^k.

    dim H^k_w = #{generators of term k of weight >= w}
                - rank_w(d_k) - rank_w(d_{k-1}),
    where rank_w is the rank of the block of rows and columns of weight
    >= w, the number of ``_rank_steps`` >= w (one sweep per differential).
    Both sides are such counts, so they are compared at every weight at
    once by ``grmod.dim_mismatch`` against the summand ends of H^k, and a
    failure names the highest weight where they differ.

    Blind spot: per-weight dimensions do not determine a module.  F(1) and
    F(0) + T(1,1) have the same ones, so a read-out that returns one for
    the other passes this audit.
    """
    steps = {k: _rank_steps(d) for k, d in c.diffs.items()}
    for k, h in sorted(hs.items()):
        gens = c.term(k)
        ranks = steps.get(k, []) + steps.get(k - 1, [])
        w = dim_mismatch((gens, ranks), summand_ends(h))
        if w is not None:
            want = sum(v >= w for v in gens) - sum(v >= w for v in ranks)
            raise AssertionError(
                "homology certificate failed at degree %d weight %d: "
                "rank arithmetic %d, reconstruction %d"
                % (k, w, want, weight_dim(h, w))
            )
