"""Brute-force oracles for the graded-module and s-structure operations.

Everything here recomputes results from first principles, from the ranks
of x on a module, with one exact rank algorithm over the rationals
(fraction-free Bareiss elimination, ``_mat_rank``) and no code shared with
the closed-form fast paths.  An integral entry is stored as an ``int`` and
any other as a ``Fraction``.  The intended use is the agreement suite, one
loop over a table of checks (``_agreement_groups``): every optimized
operation in the package is cross-checked against its oracle on randomized
inputs, and a disagreement is shrunk to a small counterexample.

Ranks of x.  A graded k[x]-module N is fixed by the ranks rho(s, a) of the
powers x^(s-a) : N_s -> N_a, and ``_decode`` reads its canonical
decomposition off a few of them, at its breakpoints (the generator and
relation weights) and a floor.  Each rank is read straight off the
presentation, as ranks of blocks of its relation matrix keyed by breakpoint
(``_x_ranks``), with no basis or x-matrix built, and is exact at every
weight.  The decomposition, the hom/ext dimensions and the maximal sub
(whose ranks are closed forms in the module's) read nothing else.  A model
(``RankModel``) ranks a weight on the first read of it and never one that
is not read.

The floor.  A model's floor is its presentation's least generator or
relation weight minus 2.  A torsion string is born at a relation weight, so
its socle lies above the floor, and only free strings are alive there or
below: a free string is counted at the floor and recognized by its reach.

Probes.  ``oracle_aisle``, ``oracle_member`` and ``oracle_step`` decide by
Hom-orthogonality against probes that are single strings, F(a) or T(a, l),
named by (kind, weight, length) triples.  Hom and Ext^1 between a string
and a module are a kernel and a cokernel of one power of x on the module
(``_out_of``, ``_into``), so each call builds one model per distinct
subject module, and no probe module or probe model; the models live for
that call only.
"""
from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import lcm
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from .grmod import (GradedModule, MonoMatrix, Presentation, ZERO,
                    canonical_decompose, ext1_dim, fmt_module, gm, hom_dim,
                    present)
from .derived import FormalObject
from .report import SuiteReport
from .sstruct import (SConfig, SITE_U, SITE_X, Site, check_on_site, member,
                      sigma, site_z, step)
from .stag import Perversity, aisle_member
from . import sampling

# ---------------------------------------------------------------------------
# exact rank over the rationals (independent of grmod's elimination)
#
# An entry is an ``int`` when it is integral and a ``Fraction`` otherwise,
# so the blocks of a presentation with integer coefficients are ranked on
# ints alone.
# ---------------------------------------------------------------------------


_INT = frozenset([int])


def _q(x):
    """x as an ``int`` when it is integral."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


def _mat_rank(rows: List[List[Fraction]]) -> int:
    """Rank by fraction-free (Bareiss) elimination.

    Each row is first scaled to integers by the lcm of its denominators,
    which keeps the rank, and zero rows are dropped.  A step then replaces
    every row below the pivot row by (p * row - c * pivot_row) // p_prev,
    with p the pivot, c the row's entry in the pivot column and p_prev the
    previous pivot (1 at first); a row with c = 0 is kept as it is when
    p == p_prev.  Every entry is then a minor of the scaled matrix, so the
    division is exact and no entry outgrows the minors.
    """
    mat = []
    for r in rows:
        if _INT.issuperset(map(type, r)):  # every entry an int
            row = list(r)
        else:
            den = lcm(*(e.denominator for e in r))
            row = [e.numerator * (den // e.denominator) for e in r]
        if any(row):
            mat.append(row)
    rank, prev = 0, 1
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        piv = None
        for i in range(rank, len(mat)):
            if mat[i][c]:
                piv = i
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        p = prow[c]
        for i in range(rank + 1, len(mat)):
            f = mat[i][c]
            if f or p != prev:
                mat[i] = [(p * a - f * b) // prev
                          for a, b in zip(mat[i], prow)]
        prev = p
        rank += 1
        if rank == len(mat):
            break
    return rank


# ---------------------------------------------------------------------------
# rank models, exact at every weight
# ---------------------------------------------------------------------------


class RankModel:
    """The ranks of x on coker(p), read off the presentation p.

    ``dim(w)`` is dim M_w and ``rank(j, w)`` the rank of x^j : M_{w+j} ->
    M_w, both exact at every weight and read off ranks of blocks of the
    relation matrix (``_x_ranks``); a block and a dimension are each
    computed on their first read and kept.  ``floor`` is the least
    generator or relation weight minus 2: it lies below every socle, so
    only free strings are alive there.
    """

    def __init__(self, p: Presentation):
        self.floor = min(p.gens + p.rel.col_weights, default=0) - 2
        cols: List[Tuple[int, Dict[int, Fraction]]] = \
            [(v, {}) for v in p.rel.col_weights]  # (weight, {generator: c})
        for (i, j), c in p.rel.entries.items():
            cols[j][1][i] = _q(c)
        # the reader closes over the data, not over the model, so that a
        # model is freed as soon as its call drops it, with no cycle to wait
        # for the garbage collector
        self._x_rank = _x_ranks(p.gens, cols)
        self._dims: Dict[int, int] = {}

    def dim(self, w: int) -> int:
        d = self._dims.get(w)
        if d is None:
            d = self._dims[w] = self._x_rank(0, w)
        return d

    def rank(self, j: int, w: int) -> int:
        """The rank of x^j : M_{w+j} -> M_w: 0, with no block ranked, when
        either end is zero."""
        return self._x_rank(j, w) if self.dim(w + j) and self.dim(w) else 0


def _x_ranks(gens: Tuple[int, ...],
             cols: List[Tuple[int, Dict[int, Fraction]]]
             ) -> Callable[[int, int], int]:
    """r(j, w), the rank of x^j : M_{w+j} -> M_w, read off the relation
    matrix.

    Let R_w be the relation columns of weight >= w.  M_w is the span of the
    generator coordinates of weight >= w modulo R_w, and the image of x^j is
    the span of the coordinates of weight >= w + j modulo R_w.  Hence
    r(j, w) = #{g_i >= w + j} + rank(R_w on the rows w <= g_i < w + j)
    - rank(R_w on the rows g_i >= w), and r(0, w) = dim M_w.  A row block is
    named by its highest generator weight, and R_w and its rows are those of
    the breakpoint (generator or relation weight) at or above w, which keys
    it: a block is ranked once (``_mat_rank``) whatever w and j read it.
    """
    asc = sorted(gens)
    breaks = sorted(set(gens).union(v for v, _ in cols))
    blocks: Dict[Tuple[int, int], int] = {}

    def block(w: int, top: int) -> int:
        """The rank of R_w on the rows w <= g_i <= top, for w <= asc[-1]."""
        e = breaks[bisect_left(breaks, w)]
        rk = blocks.get((e, top))
        if rk is None:
            rows = [i for i, g in enumerate(gens) if e <= g <= top]
            rk = blocks[(e, top)] = _mat_rank(
                [[col.get(i, 0) for i in rows] for v, col in cols if v >= e])
        return rk

    def x_rank(j: int, w: int) -> int:
        if not asc or asc[-1] < w:
            return 0
        cut = bisect_left(asc, w + j)  # the generators of weight < w + j
        below = asc[cut - 1] if cut else w - 1
        low = block(w, below) if below >= w else 0
        return len(asc) - cut + low - block(w, asc[-1])

    return x_rank


def _model_of_module(M: GradedModule) -> RankModel:
    return RankModel(present(M))


# ---------------------------------------------------------------------------
# string reconstruction (canonical form from ranks at breakpoints)
# ---------------------------------------------------------------------------


def _decode(rho: Callable[[int, int], int], tops: Iterable[int],
            breaks: Sequence[int], floor: int) -> GradedModule:
    """The canonical decomposition of a module N from ``rho(s, a)``, the
    rank of x^(s-a) : N_s -> N_a, read at N's breakpoints.

    ``tops`` holds N's generator weights and ``breaks``, ascending, its
    generator and relation weights.  f_g(a) = rho(g, a) - rho(g + 1, a)
    counts the strings generated at g alive at a; a string ends just above
    a relation weight, so with e_0 < e_1 < ... <= g the breakpoints up to g,
    F(g) occurs f_g(floor) times and T(g, g - e_i) f_g(e_{i+1}) - f_g(e_i)
    times, with ``floor`` below every socle.  rho(g + 1, a) = rho(g', a) for
    the next top g' (0 past the last): both images are spanned by the
    strings generated above g.  A negative count raises, and so do strings
    that miss dim N at the floor, at a breakpoint or at the weight above it.
    """
    frees: List[int] = []
    tors: List[Tuple[int, int]] = []
    above = [0] * (len(breaks) + 1)  # rho(g', a) at the floor and breaks
    for g in sorted(set(tops), reverse=True):
        es = breaks[:bisect_right(breaks, g)]
        here = [rho(g, a) for a in [floor] + es]
        f = [r - r_above for r, r_above in zip(here, above)]
        above = here
        counts = [f[0]] + [hi - lo for lo, hi in zip(f[1:], f[2:])]
        if min(counts) < 0:
            raise AssertionError("negative string count at weight %d" % g)
        frees += [g] * counts[0]
        for e, k in zip(es, counts[1:]):
            tors += [(g, g - e)] * k
    out = gm(frees, tors)
    for a in sorted({floor}.union(breaks, [e + 1 for e in breaks])):
        dim = sum(1 for d in out.free if d >= a) + sum(
            1 for g, n in out.torsion if g >= a > g - n)
        if dim != rho(a, a):
            raise AssertionError(
                "string reconstruction inconsistent at weight %d" % a)
    return out


# ---------------------------------------------------------------------------
# oracle operations
# ---------------------------------------------------------------------------


def oracle_decompose(p: Presentation) -> GradedModule:
    """Canonical form of coker(p) from the ranks of x, read off the relation
    matrix at its breakpoints and its model's floor."""
    if not p.gens:
        return ZERO
    model = RankModel(p)
    return _decode(lambda s, a: model.rank(s - a, a), p.gens,
                   sorted(set(p.gens + p.rel.col_weights)), model.floor)


Probe = Tuple[str, int, int]  # ("F", a, 0) is F(a), ("T", a, l) is T(a, l)


def _ker_coker(model: RankModel, top: int, m: int) -> Tuple[int, int]:
    """(dim ker, dim coker) of x^m : M_top -> M_{top-m}, read off a model of
    M: d(top) - r(m, top-m) and d(top-m) - r(m, top-m), with d(w) = dim M_w
    and r(j, w) the rank of x^j : M_{w+j} -> M_w."""
    rk = model.rank(m, top - m)
    return model.dim(top) - rk, model.dim(top - m) - rk


def _out_of(model: RankModel, probe: Probe) -> Tuple[int, int]:
    """(dim Hom, dim Ext^1) out of a probe string into N, read off a model
    of N: (N_a, 0) out of F(a), and out of T(a, l) the kernel and cokernel
    of x^l : N_a -> N_{a-l} (apply Hom(-, N) to 0 -> F(a-l) -> F(a) ->
    T(a, l) -> 0)."""
    kind, a, l = probe
    if kind == "F":
        return model.dim(a), 0
    return _ker_coker(model, a, l)


def _into(model: RankModel, probe: Probe) -> Tuple[int, int]:
    """(dim Hom, dim Ext^1) out of M into a probe string, read off a model
    of M: the cokernel and the kernel of x^m : M_{a+1} -> M_{a+1-m}, with
    m = l for T(a, l) (Hom is M / x^l M at its socle weight).  For F(a),
    m = max(a+1-floor, 0) with the model's floor, where only free strings
    are alive: the cokernel counts the free strings of M generated at a or
    below, and the kernel the torsion strings alive at a+1.  Below the
    floor m = 0, and both are 0."""
    kind, a, l = probe
    m = l if kind == "T" else max(a + 1 - model.floor, 0)
    ker, coker = _ker_coker(model, a + 1, m)
    return coker, ker


def oracle_hom_ext(M: GradedModule, N: GradedModule) -> Tuple[int, int]:
    """(dim Hom, dim Ext^1) from the ranks of x on N, read off one model of
    N summand by summand of M (``_out_of``)."""
    if M.is_zero or N.is_zero:
        return (0, 0)
    model = _model_of_module(N)
    pairs = [_out_of(model, ("F", a, 0)) for a in M.free] + \
        [_out_of(model, ("T", g, n)) for g, n in M.torsion]
    return (sum(h for h, _ in pairs), sum(e for _, e in pairs))


def oracle_max_sub(site: Site, cfg: SConfig, w: int,
                   M: GradedModule) -> GradedModule:
    """Maximal submodule of M lying in C_{<=w}: its ranks of x are closed
    forms in those of M (``_max_sub``), decoded back into strings."""
    return _max_sub(site, cfg, w, M)


def _max_sub(site: Site, cfg: SConfig, w: int, M: GradedModule,
             model: Optional[RankModel] = None) -> GradedModule:
    """``oracle_max_sub``, read off ``model``, a model of M, which is built
    here, after the answers that read none, when the caller passes none.

    On Z_n, or on X with w >= 0, the sub S is M at the weights <= w; on X
    with w < 0 only torsion may generate, and S is the torsion at the
    weights <= w.  With rho(s, a) the rank of x^(s-a) : M_s -> M_a,
    rho_S(s, a) = 0 when s > w and rho_S(s, a) = rho(s, a) otherwise,
    except on X with w < 0.  There S_s is the torsion of M_s, which is
    ker x^(s - lo) : M_s -> M_lo at any lo at or below the model's floor,
    and which contains ker x^(s-a) for a >= lo, so rho_S(s, a) = dim S_s -
    dim ker x^(s-a) = rho(s, a) - rho(s, lo).  S is generated at M's
    generator weights <= w and at w; its breakpoints are M's generator and
    relation weights and w, and it is decoded at lo = min(floor, w - 2).
    """
    check_on_site(site, M)
    if M.is_zero:
        return ZERO
    if cfg.z_mode == "trivial" or site.kind == "U":
        return M if w >= 0 else ZERO
    model = model or _model_of_module(M)
    lo = min(model.floor, w - 2)
    torsion_only = site.kind == "X" and w < 0

    def rho(s: int, a: int) -> int:
        if s > w:
            return 0
        return model.rank(s - a, a) - (model.rank(s - lo, lo)
                                       if torsion_only else 0)

    gens = M.gen_weights()
    breaks = set(gens).union([g - n for g, n in M.torsion], [w])
    return _decode(rho, [g for g in gens if g <= w] + [w], sorted(breaks), lo)


def _member_family(site: Site, cfg: SConfig, bound: str, c: int,
                   M: GradedModule) -> Iterator[Probe]:
    """Windowed generating family of C_{<=c} (bound 'le') or C_{>=c} ('ge'),
    as probe triples.

    Every module of the cone whose Hom against M could be nonzero has a
    summand appearing here, so Hom-orthogonality against the family decides
    membership of M in the opposite cone.
    """
    lo, hi = M.occupied_window()
    L = max(1, M.max_torsion_length())
    cap = L if site.kind != "Z" else min(L, site.n)
    if cfg.z_mode == "trivial" or site.kind == "U":
        if not ((c >= 0) if bound == "le" else (c <= 0)):
            return
        if site.kind != "Z":
            yield from (("F", a, 0) for a in range(lo, hi + 1))
        if site.kind != "U":
            yield from (("T", a, l) for a in range(lo, hi + 1)
                        for l in range(1, cap + 1))
        return
    if bound == "le":
        top = min(c, hi)
        yield from (("T", a, l) for a in range(lo, top + 1)
                    for l in range(1, cap + 1))
        if site.kind == "X" and c >= 0:
            # the free probes must reach down to c even when c < lo: a free
            # summand of M occupies every weight below its generator
            yield from (("F", a, 0) for a in range(min(lo, c), top + 1))
        return
    # bound == 'ge': torsion with socle >= c, plus free when c <= 0 on X
    for b in range(max(c, lo), hi + 1):
        lcap = b - c + 1 if site.kind == "X" else min(b - c + 1, site.n)
        yield from (("T", b, l) for l in range(1, lcap + 1))
    if site.kind == "X" and c <= 0:
        yield from (("F", b, 0) for b in range(lo, hi + 1))


def oracle_member(site: Site, cfg: SConfig, direction: str, w: int,
                  M: GradedModule) -> bool:
    """Membership by Hom-orthogonality against the opposite cone's family,
    read off one model of M."""
    check_on_site(site, M)
    if M.is_zero:
        return True
    model = _model_of_module(M)
    if direction == "ge":
        return all(_out_of(model, C)[0] == 0
                   for C in _member_family(site, cfg, "le", w - 1, M))
    if direction == "le":
        return all(_into(model, G)[0] == 0
                   for G in _member_family(site, cfg, "ge", w + 1, M))
    raise ValueError("direction must be 'le' or 'ge'")


def oracle_step(site: Site, cfg: SConfig, M: GradedModule) -> Optional[int]:
    """Step by exhaustive search over M's weights and 0, one past each end.

    The first w with M in C_{<=w} (``oracle_member``'s 'le' test) is the
    step when the maximal sub in C_{<=w-1} is zero.  One model of M serves
    the whole search and the sub.
    """
    if M.is_zero:
        return None
    check_on_site(site, M)
    lo, hi = M.occupied_window()
    model = _model_of_module(M)
    for w in range(min(lo, 0) - 1, max(hi, 0) + 2):
        if all(_into(model, G)[0] == 0
               for G in _member_family(site, cfg, "ge", w + 1, M)):
            sub = _max_sub(site, cfg, w - 1, M, model)
            return w if sub.is_zero else None
    return None


# ---------------------------------------------------------------------------
# staggered aisle oracle
# ---------------------------------------------------------------------------


def _probe_range(comps: Dict[int, GradedModule]) -> Tuple[range, range]:
    """The degrees and the weights of the aisle probes over the nonzero
    ``comps``: one degree past them on each side, and their occupied weights
    padded by their longest string plus 2."""
    windows = [m.occupied_window() for m in comps.values()]
    pad = max([m.max_torsion_length() for m in comps.values()] + [1]) + 2
    return (range(min(comps) - 1, max(comps) + 2),
            range(min(lo for lo, _ in windows) - pad,
                  max(hi for _, hi in windows) + pad + 1))


def oracle_aisle(cfg: SConfig, pU: int, pZ: int,
                 components: Dict[int, GradedModule], which: str) -> bool:
    """Aisle membership by orthogonality against shifted heart generators.

    ``which`` is 'le0' or 'ge0'.  In weight mode the perversity must be
    strict (pZ = pU + 1), so the heart is generated by the structure sheaf
    and the skyscraper simples; in trivial mode free and skyscraper
    generators placed by degree suffice.  Hom groups in degree 0 of the
    derived category,
    Hom_D(F, G)_0 = sum_k hom(F_k, G_k) + ext1(F_k, G_{k-1}),
    are read off one model per distinct component module, kept for the
    call: out of a probe by ``_out_of``, into one by ``_into``.  No probe
    module or probe model is built.
    """
    if which not in ("le0", "ge0"):
        raise ValueError("which must be 'le0' or 'ge0'")
    comps = {k: m for k, m in components.items() if not m.is_zero}
    if not comps:
        return True
    if cfg.z_mode == "weight" and pZ != pU + 1:
        raise ValueError("weight-mode aisle oracle needs a strict perversity")
    models = {M: _model_of_module(M) for M in set(comps.values())}
    read, step = (_into, 1) if which == "le0" else (_out_of, -1)
    for d, probes in _aisle_generators(cfg, pU, pZ, comps, which):
        # Hom_D(F, C@d)_0 = hom(F_d, C) + ext1(F_{d+1}, C) on 'le0', and
        # Hom_D(C@d, F)_0 = hom(C, F_d) + ext1(C, F_{d-1}) on 'ge0'
        hom_m, ext_m = (models.get(comps.get(k)) for k in (d, d + step))
        for C in probes:
            if (hom_m and read(hom_m, C)[0]) or (ext_m and read(ext_m, C)[1]):
                return False
    return True


def _aisle_generators(cfg: SConfig, pU: int, pZ: int,
                      comps: Dict[int, GradedModule],
                      which: str) -> Iterator[Tuple[int, List[Probe]]]:
    """(degree, probes) of the shifted heart generators in the cone opposite
    ``which``, over the probe range of the nonzero ``comps``
    (``_probe_range``).  Each probe is a (kind, weight, length) triple, and
    each list is built once and shared by every degree it is placed in."""
    degrees, weights = _probe_range(comps)
    skyscrapers = [("T", n, 1) for n in weights]
    sign = 1 if which == "le0" else -1
    weight = cfg.z_mode == "weight"
    # the structure sheaf in weight mode, the free probes in trivial mode
    frees = [("F", 0, 0)] if weight else [("F", a, 0) for a in weights]
    for d in degrees:
        if sign * (d - pU) >= 1:
            yield d, frees
        if not weight:
            if sign * (d - pZ) >= 1:
                yield d, skyscrapers
            continue
        # in weight mode T(n, 1) sits in degree pU + 1 - n, so it is in the
        # cone when n >= pU + 2 - d ('le0') or n <= pU - d ('ge0')
        some = skyscrapers[max(pU + 2 - d - weights[0], 0):] if sign > 0 \
            else skyscrapers[:max(pU + 1 - d - weights[0], 0)]
        if some:
            yield d, some


# ---------------------------------------------------------------------------
# agreement suite
# ---------------------------------------------------------------------------


def _shrink_module(x, fails):
    """Greedy minimization of a failing input: take the first input one step
    smaller than x (``_smaller``) that still fails, until none does.  x is
    a module or a dict of modules keyed by degree; any other input, such as
    a presentation, has nothing smaller and comes back as it is."""
    while True:
        for cand in _smaller(x):
            if fails(cand):
                x = cand
                break
        else:
            return x


def _smaller(x) -> Iterator:
    """The inputs one step smaller than x.  A module loses one free summand,
    then one torsion summand, or has one torsion string shortened by 1; a
    dict of modules keyed by degree loses one degree, or has one component
    made smaller.  Nothing else is shrunk."""
    if isinstance(x, dict):
        for k in sorted(x):
            yield {kk: m for kk, m in x.items() if kk != k}
        for k in sorted(x):
            yield from ({**x, k: m} for m in _smaller(x[k]))
    if not isinstance(x, GradedModule):
        return
    for i in range(len(x.free)):
        yield gm(x.free[:i] + x.free[i + 1:], x.torsion)
    for i in range(len(x.torsion)):
        yield gm(x.free, x.torsion[:i] + x.torsion[i + 1:])
    for i, (g, n) in enumerate(x.torsion):
        if n > 1:
            yield gm(x.free, x.torsion[:i] + ((g, n - 1),) + x.torsion[i + 1:])


def _disagreement(args: tuple, fast, slow) -> Optional[list]:
    """None when ``fast(*args) == slow(*args)``; otherwise the arguments
    with each in turn shrunk (``_shrink_module``) while the others are held
    fixed, so that the two sides still disagree on them."""
    if fast(*args) == slow(*args):
        return None
    args = list(args)
    for i in range(len(args)):
        def fails(x, i=i):
            trial = args[:i] + [x] + args[i + 1:]
            return fast(*trial) != slow(*trial)
        args[i] = _shrink_module(args[i], fails)
    return args


def _random_presentation(rng: random.Random) -> Presentation:
    ngen = rng.randint(1, 4)
    gens = sorted((rng.randint(-5, 5) for _ in range(ngen)), reverse=True)
    ncol = rng.randint(0, 4)
    colw: List[int] = []
    entries: Dict[Tuple[int, int], Fraction] = {}
    for _ in range(ncol):
        rows = [i for i in range(ngen) if rng.random() < 0.6]
        if not rows:
            continue
        colw.append(min(gens[i] for i in rows) - rng.randint(0, 3))
        for i in rows:
            entries[(i, len(colw) - 1)] = rng.choice([1, -1, 2, -2, 3])
    mat = MonoMatrix(tuple(gens), tuple(colw))
    for (i, j), c in entries.items():
        mat.set(i, j, c)
    return Presentation(tuple(gens), mat)


def _module_on(rng: random.Random, site: Site) -> GradedModule:
    """A random module on ``site``: any module on X, the free part of one on
    U, torsion of length at most n on Z_n."""
    if site.kind == "X":
        return sampling.random_module(rng)
    if site.kind == "U":
        return sampling.random_module(rng).free_part()
    return sampling.random_torsion_module(rng, max_len=site.n)


def _agreement_groups() -> List[Tuple[Callable, List[Tuple]]]:
    """The agreement checks, in draw order: groups of a ``draw(rng)`` that
    returns one argument tuple and the rows (name, fast, slow, describe)
    that run on it.  Built on each suite run, so that a fast path patched
    in this module reaches its row."""
    cfgs = [SConfig("weight"), SConfig("trivial")]

    def draw_member(rng):
        cfg = rng.choice(cfgs)
        site = rng.choice([SITE_X, SITE_U, site_z(1), site_z(2), site_z(3)])
        w = rng.randint(-6, 6)
        direction = rng.choice(["le", "ge"])
        return site, cfg, direction, w, _module_on(rng, site)

    def draw_sigma(rng):
        cfg = rng.choice(cfgs)
        site = rng.choice([SITE_X, site_z(1), site_z(2), site_z(3)])
        w = rng.randint(-6, 6)
        return site, cfg, w, _module_on(rng, site)

    def draw_aisle(rng):
        cfg = rng.choice(cfgs)
        pU = rng.choice([-1, 0, 1])
        pZ = pU + (1 if cfg.z_mode == "weight" else rng.choice([0, 1]))
        comps = sampling.random_formal_components(rng, deg_lo=-2, deg_hi=2,
                                                  max_len=3)
        return cfg, pU, pZ, comps, rng.choice(["le0", "ge0"])

    return [
        (lambda rng: (_random_presentation(rng),), [(
            "agree_decompose", canonical_decompose, oracle_decompose,
            lambda p, f, o: "decompose mismatch: gens=%r cols=%r fast=%s "
            "oracle=%s" % (p.gens, p.rel.col_weights, fmt_module(f),
                           fmt_module(o)))]),
        (lambda rng: (sampling.random_module(rng),
                      sampling.random_module(rng)), [(
            "agree_hom_ext", lambda M, N: (hom_dim(M, N), ext1_dim(M, N)),
            oracle_hom_ext,
            lambda M, N, f, o: "hom/ext mismatch on (%s, %s): fast=%r "
            "oracle=%r" % (fmt_module(M), fmt_module(N), f, o))]),
        (draw_member, [(
            "agree_member", member, oracle_member,
            lambda site, cfg, d, w, m, f, o: "member mismatch %s %s %s "
            "w=%d on %s: fast=%r oracle=%r"
            % (site, cfg.z_mode, d, w, fmt_module(m), f, o))]),
        (draw_sigma, [(
            "agree_sigma",
            lambda site, cfg, w, m: sigma(site, cfg, "le", w, m).sub,
            oracle_max_sub,
            lambda site, cfg, w, m, f, o: "sigma mismatch %s %s w=%d on "
            "%s: fast=%s oracle=%s" % (site, cfg.z_mode, w, fmt_module(m),
                                       fmt_module(f), fmt_module(o))), (
            "agree_step", lambda site, cfg, w, m: step(site, cfg, m),
            lambda site, cfg, w, m: oracle_step(site, cfg, m),
            lambda site, cfg, w, m, f, o: "step mismatch %s %s on %s: "
            "fast=%r oracle=%r" % (site, cfg.z_mode, fmt_module(m), f, o))]),
        (draw_aisle, [(
            "agree_aisle", lambda cfg, pU, pZ, cc, which: aisle_member(
                cfg, Perversity(pU, pZ), FormalObject(cc), which),
            oracle_aisle,
            lambda cfg, pU, pZ, cc, which, f, o: "aisle mismatch %s "
            "p=(%d,%d) %s on %r: fast=%r oracle=%r"
            % (cfg.z_mode, pU, pZ, which,
               {k: fmt_module(m) for k, m in cc.items()}, f, o))]),
    ]


def agreement_suite(seed: int = 1, samples: int = 200) -> SuiteReport:
    """Cross-check every optimized operation against its brute-force oracle.

    One loop over the table ``_agreement_groups``, whose groups draw in
    turn: a presentation (``agree_decompose``); two modules
    (``agree_hom_ext``); a module on a site, with a mode, direction and
    level (``agree_member``); a module on a site other than U, with a mode
    and level (``agree_sigma``, the maximal sub, and ``agree_step``); a
    formal object, with a mode, perversity and side (``agree_aisle``).
    Each group draws ``samples`` argument tuples, and each of its rows
    compares its fast path with its oracle on every one.  A disagreement is
    recorded as ``describe(*small, fast(*small), slow(*small))`` on the
    arguments shrunk by ``_disagreement``: modules and formal objects are
    shrunk, and a presentation, a site or a level is echoed as drawn.
    """
    rep = SuiteReport(suite="oracle-agreement", seed=seed, samples=samples,
                      mode="both")
    rng = random.Random(seed)
    for draw, rows in _agreement_groups():
        for _ in range(samples):
            args = draw(rng)
            for name, fast, slow, describe in rows:
                small = _disagreement(args, fast, slow)
                rep.check(name).record(small is None, "" if small is None
                                       else describe(*small, fast(*small),
                                                     slow(*small)))
    return rep
