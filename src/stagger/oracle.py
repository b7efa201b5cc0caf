"""Brute-force oracles for the graded-module and s-structure operations.

Everything here recomputes results from first principles on a finite
window of weights, with one exact rank algorithm over the rationals
(fraction-free Bareiss elimination, ``_mat_rank``) and no code shared with
the closed-form fast paths.  An integral entry is stored as an ``int`` and
any other as a ``Fraction``.  The intended use is the agreement suite:
every optimized operation in the package is cross-checked against its
oracle on randomized inputs, and a disagreement is shrunk to a small
counterexample.

Window soundness.  A finitely generated graded module is determined on the
window [lo, hi] with lo = (min occupied weight) - 2 and hi = (max occupied
weight) + 2: all torsion socles are >= lo + 2, so only free strings are
alive at the floor lo, and nothing is generated above hi - 2.  A free
string is counted at the floor and recognized by its reach.

Ranks of x.  A graded k[x]-module N is fixed by the ranks rho(s, a) of the
powers x^(s-a) : N_s -> N_a, and ``_decode`` reads its canonical
decomposition off a few of them, at its breakpoints (the generator and
relation weights) and the floor.  Each rank is read straight off the
presentation, as ranks of blocks of its relation matrix keyed by breakpoint
(``_x_ranks``), with no basis or x-matrix built.  The decomposition, the
hom/ext dimensions and the maximal sub (whose ranks are closed forms in the
module's) read nothing else.  A model ranks a weight on the first read of
it and never one that is not read.

Probes.  ``oracle_aisle``, ``oracle_member`` and ``oracle_step`` decide by
Hom-orthogonality against probes that are single strings, F(a) or T(a, l),
named by (kind, weight, length) triples.  Hom and Ext^1 between a string
and a module are a kernel and a cokernel of one power of x on the module
(``_out_of``, ``_into``), so each call builds one model per distinct
subject module, on one window in closed form from the subject and the
probe range, and no probe module or probe model; the models live for that
call only.
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


def _all_ints(values: Iterable[Fraction]) -> bool:
    """Whether every value is an ``int``."""
    return _INT.issuperset(map(type, values))


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
        if _all_ints(r):
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
# window models, ranked weight by weight on first read
# ---------------------------------------------------------------------------


class _Lazy(dict):
    """weight -> value, made by ``make(w)`` on the first read of a weight of
    [lo, hi] and kept.  Read it by indexing: a weight outside the window
    raises, since the model knows nothing there and reading 0 would answer
    silently wrong."""

    def __init__(self, make: Callable[[int], object], lo: int, hi: int):
        super().__init__()
        self.make, self.lo, self.hi = make, lo, hi

    def __missing__(self, w: int):
        if not self.lo <= w <= self.hi:
            raise AssertionError("oracle read weight %d outside the window "
                                 "[%d, %d]" % (w, self.lo, self.hi))
        val = self[w] = self.make(w)
        return val


class WindowModel:
    """Window model of coker of a monomial-graded matrix on [lo, hi].

    ``dims[w]`` is dim M_w and ``rank(j, w)`` the rank of x^j : M_{w+j} ->
    M_w, both read off ranks of blocks of the relation matrix (``_x_ranks``)
    on their first read.  A weight outside [lo, hi] raises (``_Lazy``).
    """

    def __init__(self, gens: Sequence[int], colw: Sequence[int],
                 entries: Dict[Tuple[int, int], Fraction], lo: int, hi: int):
        self.lo, self.hi = lo, hi
        gens = tuple(gens)
        cols: List[Tuple[int, Dict[int, Fraction]]] = \
            [(v, {}) for v in colw]  # (weight, {generator: coefficient})
        for (i, j), c in entries.items():
            cols[j][1][i] = _q(c)
        # the reader closes over the data, not over the model, so that a
        # model is freed as soon as its call drops it, with no cycle to wait
        # for the garbage collector
        x_rank = self._x_rank = _x_ranks(gens, cols)
        self.dims = _Lazy(lambda w: x_rank(0, w), lo, hi)

    def rank(self, j: int, w: int) -> int:
        """The rank of x^j : M_{w+j} -> M_w.  Both ends are read through
        ``dims``, so a weight outside the window raises there."""
        source, target = self.dims[w + j], self.dims[w]
        if not (source and target):
            return 0  # a map out of or into a zero space
        return self._x_rank(j, w)


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


def _model_of_presentation(p: Presentation, lo: int, hi: int) -> WindowModel:
    return WindowModel(p.gens, p.rel.col_weights, p.rel.entries, lo, hi)


def _model_of_module(M: GradedModule, lo: int, hi: int) -> WindowModel:
    return _model_of_presentation(present(M), lo, hi)


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
    """Canonical form of coker(p) from the ranks of x on its window, read
    off the relation matrix."""
    if not p.gens:
        return ZERO
    ws = list(p.gens) + list(p.rel.col_weights)
    lo, hi = min(ws) - 2, max(ws) + 2
    model = _model_of_presentation(p, lo, hi)
    return _decode(lambda s, a: model.rank(s - a, a), p.gens,
                   sorted(set(ws)), lo)


Probe = Tuple[str, int, int]  # ("F", a, 0) is F(a), ("T", a, l) is T(a, l)


def _ker_coker(model: WindowModel, top: int, m: int) -> Tuple[int, int]:
    """(dim ker, dim coker) of x^m : M_top -> M_{top-m}, read off a model of
    M: d(top) - r(m, top-m) and d(top-m) - r(m, top-m), with d(w) = dim M_w
    and r(j, w) the rank of x^j : M_{w+j} -> M_w."""
    rk = model.rank(m, top - m)
    return model.dims[top] - rk, model.dims[top - m] - rk


def _out_of(model: WindowModel, probe: Probe) -> Tuple[int, int]:
    """(dim Hom, dim Ext^1) out of a probe string into N, read off a model
    of N: (N_a, 0) out of F(a), and out of T(a, l) the kernel and cokernel
    of x^l : N_a -> N_{a-l} (apply Hom(-, N) to 0 -> F(a-l) -> F(a) ->
    T(a, l) -> 0)."""
    kind, a, l = probe
    if kind == "F":
        return model.dims[a], 0
    return _ker_coker(model, a, l)


def _into(model: WindowModel, probe: Probe) -> Tuple[int, int]:
    """(dim Hom, dim Ext^1) out of M into a probe string, read off a model
    of M: the cokernel and the kernel of x^m : M_{a+1} -> M_{a+1-m}, with
    m = l for T(a, l) (Hom is M / x^l M at its socle weight).  For F(a),
    m = a+1-lo with lo the window floor, where window soundness leaves only
    free strings alive: the cokernel counts the free strings of M generated
    at a or below, and the kernel the torsion strings alive at a+1."""
    kind, a, l = probe
    m = l if kind == "T" else a + 1 - model.lo
    ker, coker = _ker_coker(model, a + 1, m)
    return coker, ker


def _hom_ext(M: GradedModule, model: WindowModel) -> Tuple[int, int]:
    """(dim Hom, dim Ext^1) out of M, read off a window model of the target,
    summand by summand (``_out_of``).  A weight outside the model's window
    raises (``_Lazy``): the model knows nothing there, and reading 0 would
    answer silently wrong."""
    pairs = [_out_of(model, ("F", a, 0)) for a in M.free] + \
        [_out_of(model, ("T", g, n)) for g, n in M.torsion]
    return (sum(h for h, _ in pairs), sum(e for _, e in pairs))


def oracle_hom_ext(M: GradedModule, N: GradedModule) -> Tuple[int, int]:
    """(dim Hom, dim Ext^1) from the ranks of x on N, on the window of M
    and N padded by 2 (see ``_hom_ext``)."""
    if M.is_zero or N.is_zero:
        return (0, 0)
    ws = M.occupied_window() + N.occupied_window()
    return _hom_ext(M, _model_of_module(N, min(ws) - 2, max(ws) + 2))


def oracle_max_sub(site: Site, cfg: SConfig, w: int,
                   M: GradedModule) -> GradedModule:
    """Maximal submodule of M lying in C_{<=w}: its ranks of x are closed
    forms in those of M (``_max_sub``), decoded back into strings."""
    return _max_sub(site, cfg, w, M, _model_of_module)


def _max_sub(site: Site, cfg: SConfig, w: int, M: GradedModule,
             model_of: Callable[[GradedModule, int, int], WindowModel]
             ) -> GradedModule:
    """``oracle_max_sub`` on its window [lo, hi], reading ``model_of(M, lo,
    hi)``, a model of M whose window contains [lo, hi].

    On Z_n, or on X with w >= 0, the sub S is M at the weights <= w; on X
    with w < 0 only torsion may generate, and S is the torsion at the
    weights <= w.  With rho(s, a) the rank of x^(s-a) : M_s -> M_a,
    rho_S(s, a) = 0 when s > w and rho_S(s, a) = rho(s, a) otherwise,
    except on X with w < 0.  There S_s is the torsion of M_s, which window
    soundness makes ker x^(s - lo) : M_s -> M_lo and which contains
    ker x^(s-a) for a >= lo, so rho_S(s, a) = dim S_s - dim ker x^(s-a) =
    rho(s, a) - rho(s, lo).  S is generated at M's generator weights <= w
    and at w; its breakpoints are M's generator and relation weights and w.
    """
    check_on_site(site, M)
    if M.is_zero:
        return ZERO
    if cfg.z_mode == "trivial" or site.kind == "U":
        return M if w >= 0 else ZERO
    occ_lo, occ_hi = M.occupied_window()
    lo, hi = min(occ_lo, w) - 2, occ_hi + 2
    model = model_of(M, lo, hi)
    if model.lo > lo or model.hi < hi:
        raise AssertionError("model window [%d, %d] misses [%d, %d]"
                             % (model.lo, model.hi, lo, hi))
    torsion_only = site.kind == "X" and w < 0
    w = min(w, occ_hi)  # the same sub, and w + 1 stays in the window

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


def _member_window(M: GradedModule, c: int) -> Tuple[int, int]:
    """One window for M and every weight its member families at level c
    read: with [lo, hi] M's occupied window and L its longest string (at
    least 1), every read lies in [min(lo - L, c), hi + 1]; padded by 2."""
    lo, hi = M.occupied_window()
    return min(lo - max(1, M.max_torsion_length()), c) - 2, hi + 2


def oracle_member(site: Site, cfg: SConfig, direction: str, w: int,
                  M: GradedModule) -> bool:
    """Membership by Hom-orthogonality against the opposite cone's family,
    read off one window model of M."""
    check_on_site(site, M)
    if M.is_zero:
        return True
    if direction == "ge":
        model = _model_of_module(M, *_member_window(M, w - 1))
        return all(_out_of(model, C)[0] == 0
                   for C in _member_family(site, cfg, "le", w - 1, M))
    if direction == "le":
        model = _model_of_module(M, *_member_window(M, w + 1))
        return all(_into(model, G)[0] == 0
                   for G in _member_family(site, cfg, "ge", w + 1, M))
    raise ValueError("direction must be 'le' or 'ge'")


def oracle_step(site: Site, cfg: SConfig, M: GradedModule) -> Optional[int]:
    """Step by exhaustive search over the window.

    The first w with M in C_{<=w} (``oracle_member``'s 'le' test) is the
    step when the maximal sub in C_{<=w-1} is zero.  One model of M serves
    the whole search; its window also covers that of the sub.
    """
    if M.is_zero:
        return None
    check_on_site(site, M)
    lo, hi = M.occupied_window()
    ws = range(min(lo, 0) - 1, max(hi, 0) + 2)
    model = _model_of_module(M, *_member_window(M, ws[0] - 1))
    for w in ws:
        if all(_into(model, G)[0] == 0
               for G in _member_family(site, cfg, "ge", w + 1, M)):
            sub = _max_sub(site, cfg, w - 1, M, lambda _N, _lo, _hi: model)
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


class _Models:
    """The window models of one ``oracle_aisle`` call: one window, in closed
    form from the probe range and weight 0 (the structure sheaf's), and one
    model on it per distinct component module, built on first use.  Every
    probe is a single string, read off these; nothing is kept between calls.
    """

    def __init__(self, comps: Dict[int, GradedModule], lo: int, hi: int):
        self.comps, self.lo, self.hi = comps, lo, hi
        self.built: Dict[GradedModule, WindowModel] = {}

    def at(self, k: int) -> Optional[WindowModel]:
        """The model of the component in degree k, or None where it is 0."""
        M = self.comps.get(k)
        if M is not None and M not in self.built:
            self.built[M] = _model_of_module(M, self.lo, self.hi)
        return None if M is None else self.built[M]


def oracle_aisle(cfg: SConfig, pU: int, pZ: int,
                 components: Dict[int, GradedModule], which: str) -> bool:
    """Aisle membership by orthogonality against shifted heart generators.

    ``which`` is 'le0' or 'ge0'.  In weight mode the perversity must be
    strict (pZ = pU + 1), so the heart is generated by the structure sheaf
    and the skyscraper simples; in trivial mode free and skyscraper
    generators placed by degree suffice.  Hom groups in degree 0 of the
    derived category,
    Hom_D(F, G)_0 = sum_k hom(F_k, G_k) + ext1(F_k, G_{k-1}),
    are read off one model per distinct component module (``_Models``):
    out of a probe by ``_out_of``, into one by ``_into``.  No probe module
    or probe model is built.
    """
    if which not in ("le0", "ge0"):
        raise ValueError("which must be 'le0' or 'ge0'")
    comps = {k: m for k, m in components.items() if not m.is_zero}
    if not comps:
        return True
    if cfg.z_mode == "weight" and pZ != pU + 1:
        raise ValueError("weight-mode aisle oracle needs a strict perversity")
    weights = _probe_range(comps)[1]
    models = _Models(comps, min(weights[0], 0) - 2, max(weights[-1], 0) + 2)
    read, step = (_into, 1) if which == "le0" else (_out_of, -1)
    for d, probes in _aisle_generators(cfg, pU, pZ, comps, which):
        # Hom_D(F, C@d)_0 = hom(F_d, C) + ext1(F_{d+1}, C) on 'le0', and
        # Hom_D(C@d, F)_0 = hom(C, F_d) + ext1(C, F_{d-1}) on 'ge0'
        hom_m, ext_m = models.at(d), models.at(d + step)
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


def _record(check, args: tuple, fast, slow, describe) -> None:
    """Record whether ``fast(*args) == slow(*args)``.  On a disagreement
    each argument in turn is shrunk (``_shrink_module``) with the others
    held fixed, and the message is ``describe(*args, fast(*args),
    slow(*args))``: a presentation, a site or a level is echoed as drawn."""
    if fast(*args) == slow(*args):
        check.record(True, "")
        return
    args = list(args)
    for i in range(len(args)):
        def fails(x, i=i):
            trial = args[:i] + [x] + args[i + 1:]
            return fast(*trial) != slow(*trial)
        args[i] = _shrink_module(args[i], fails)
    check.record(False, describe(*args, fast(*args), slow(*args)))


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


def agreement_suite(seed: int = 1, samples: int = 200) -> SuiteReport:
    """Cross-check every optimized operation against its brute-force oracle.

    Ops covered: canonical decomposition, hom/ext dimensions, membership on
    each site and mode, sigma truncation (maximal sub), step, and staggered
    aisle membership.  Each runs on ``samples`` seeded random instances
    through ``_record``: a disagreement over modules or formal objects is
    shrunk before it is recorded, and one over a presentation is echoed.
    """
    rep = SuiteReport(suite="oracle-agreement", seed=seed, samples=samples,
                      mode="both")
    rng = random.Random(seed)
    cfgs = [SConfig("weight"), SConfig("trivial")]

    c_dec = rep.check("agree_decompose")
    for _ in range(samples):
        _record(c_dec, (_random_presentation(rng),), canonical_decompose,
                oracle_decompose, lambda p, f, o: "decompose mismatch: gens=%r "
                "cols=%r fast=%s oracle=%s" % (p.gens, p.rel.col_weights,
                                               fmt_module(f), fmt_module(o)))

    c_he = rep.check("agree_hom_ext")
    for _ in range(samples):
        M, N = sampling.random_module(rng), sampling.random_module(rng)
        _record(c_he, (M, N), lambda M, N: (hom_dim(M, N), ext1_dim(M, N)),
                oracle_hom_ext,
                lambda M, N, f, o: "hom/ext mismatch on (%s, %s): fast=%r "
                "oracle=%r" % (fmt_module(M), fmt_module(N), f, o))

    c_mem = rep.check("agree_member")
    sites = [SITE_X, SITE_U, site_z(1), site_z(2), site_z(3)]
    for _ in range(samples):
        cfg = rng.choice(cfgs)
        site = rng.choice(sites)
        w = rng.randint(-6, 6)
        direction = rng.choice(["le", "ge"])
        if site.kind == "X":
            M = sampling.random_module(rng)
        elif site.kind == "U":
            M = sampling.random_module(rng).free_part()
        else:
            M = sampling.random_torsion_module(rng, max_len=site.n)
        _record(c_mem, (site, cfg, direction, w, M), member, oracle_member,
                lambda site, cfg, d, w, m, f, o: "member mismatch %s %s %s "
                "w=%d on %s: fast=%r oracle=%r"
                % (site, cfg.z_mode, d, w, fmt_module(m), f, o))

    c_sig = rep.check("agree_sigma")
    c_st = rep.check("agree_step")
    for _ in range(samples):
        cfg = rng.choice(cfgs)
        site = rng.choice([SITE_X, site_z(1), site_z(2), site_z(3)])
        w = rng.randint(-6, 6)
        if site.kind == "X":
            M = sampling.random_module(rng)
        else:
            M = sampling.random_torsion_module(rng, max_len=site.n)
        _record(c_sig, (site, cfg, w, M),
                lambda site, cfg, w, m: sigma(site, cfg, "le", w, m).sub,
                oracle_max_sub,
                lambda site, cfg, w, m, f, o: "sigma mismatch %s %s w=%d on "
                "%s: fast=%s oracle=%s" % (site, cfg.z_mode, w, fmt_module(m),
                                           fmt_module(f), fmt_module(o)))
        _record(c_st, (site, cfg, M), step, oracle_step,
                lambda site, cfg, m, f, o: "step mismatch %s %s on %s: "
                "fast=%r oracle=%r" % (site, cfg.z_mode, fmt_module(m), f, o))

    c_ais = rep.check("agree_aisle")
    for _ in range(samples):
        cfg = rng.choice(cfgs)
        pU = rng.choice([-1, 0, 1])
        pZ = pU + (1 if cfg.z_mode == "weight" else rng.choice([0, 1]))
        comps = sampling.random_formal_components(rng, deg_lo=-2, deg_hi=2,
                                                  max_len=3)
        which = rng.choice(["le0", "ge0"])
        _record(c_ais, (cfg, pU, pZ, comps, which),
                lambda cfg, pU, pZ, cc, which: aisle_member(
                    cfg, Perversity(pU, pZ), FormalObject(cc), which),
                oracle_aisle,
                lambda cfg, pU, pZ, cc, which, f, o: "aisle mismatch %s "
                "p=(%d,%d) %s on %r: fast=%r oracle=%r"
                % (cfg.z_mode, pU, pZ, which,
                   {k: fmt_module(m) for k, m in cc.items()}, f, o))

    return rep
