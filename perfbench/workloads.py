"""Workload inputs and checked items for the stagger benchmark.

Every input is drawn from the benchmark's own ``random.Random``, seeded by
(workload, seed, item index), so the same seed always gives the same items
and no input depends on ``stagger.sampling`` or on the suites' RNG streams.
The program receives only the generated objects.

An item is one unit of user work.  ``Tally.run`` performs it through the
public API, checks every answer, and records the outcome in a ``Tally``:
a failed check or an exception counts as a failure of the item, never as a
crash of the benchmark.

The program is always called through its module attributes (``stag.f``,
not a local alias), so the external tracer sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from stagger import cli, derived, flag, formats, grmod, oracle, sstruct, stag

WLO, WHI = -6, 6
CLI_VERBS = ("trunc", "jh", "member", "decompose", "flag-verify")
CLI_EVERY = 5            # one envelope item in CLI_EVERY also drives the CLI
# fixed mix of generator counts: p50 falls inside the 40s, p90 inside the 80s
ELIM_SIZES = (20, 40, 20, 40, 80)
# scramble until half the homogeneously allowed entries are nonzero: dense
# enough that elimination does real fill-in work, yet the mixing stays short
SCRAMBLE_DENSITY = 0.5


# ---------------------------------------------------------------------------
# check accounting
# ---------------------------------------------------------------------------


class Tally:
    """Per-check and per-item pass/fail counts.

    Within one item each named check counts once: it fails if any of its
    evaluations in that item failed.  An exception ends the item and counts
    as a failure of the check named ``raised``.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: Dict[str, List[int]] = {}   # name -> [attempted, failed]
        self.first_errors: List[str] = []
        self._item: Dict[str, bool] = {}

    def check(self, name: str, ok: bool) -> None:
        self._item[name] = self._item.get(name, True) and bool(ok)

    def run(self, item: "Item") -> bool:
        self._item = {}
        err = None
        try:
            RUNNERS[item.workload](item, self)
        except Exception as e:  # an item that raises is a failed item
            self._item["raised"] = False
            err = "%s: %s" % (type(e).__name__, e)
        ok = all(self._item.values())
        self.attempted += 1
        self.failed += not ok
        for name, good in self._item.items():
            c = self.checks.setdefault(name, [0, 0])
            c[0] += 1
            c[1] += not good
        if not ok and len(self.first_errors) < 5:
            bad = sorted(n for n, g in self._item.items() if not g)
            self.first_errors.append("item %d: %s"
                                     % (item.index, err or "failed %s" % bad))
        return ok


@dataclass
class Item:
    workload: str
    index: int
    sizes: Dict[str, int]
    data: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# generators (benchmark-owned randomness only)
# ---------------------------------------------------------------------------


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random("%s/%d/%d" % (workload, seed, index))


def _module(rng: random.Random, nfree: int, ntors: int,
            max_len: int) -> grmod.GradedModule:
    return grmod.gm(
        [rng.randint(WLO, WHI) for _ in range(nfree)],
        [(rng.randint(WLO, WHI), rng.randint(1, max_len))
         for _ in range(ntors)],
    )


def _envelope_formal(rng: random.Random) -> derived.FormalObject:
    comps = {}
    for k in range(-2, 3):
        if rng.random() < 0.45:
            m = _module(rng, rng.randint(0, 3), rng.randint(0, 3), 3)
            if not m.is_zero:
                comps[k] = m
    return derived.FormalObject(comps)


def _mode_and_perversity(rng: random.Random):
    cfg = sstruct.SConfig(rng.choice(("weight", "trivial")))
    return cfg, rng.choice(stag._blessed_perversities(cfg))


def heart_object(rng: random.Random, p, length: int) -> derived.FormalObject:
    """A weight-mode heart object of the given Jordan-Holder length.

    Built from the pieces whose factors are known for a strict perversity
    (a, a+1): F(0) @ a (one factor), F(-1) and F(1) @ a (two each) and the
    shifted skyscrapers T(n,1) @ (a+1-n) (one each).
    """
    free: List[int] = []
    tors: Dict[int, List[Tuple[int, int]]] = {}
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
    comps = {k: grmod.gm([], ts) for k, ts in tors.items()}
    comps[p.pU] = grmod.gm(free, tors.get(p.pU, []))
    return derived.FormalObject(comps)


def small_presentation(rng: random.Random) -> grmod.Presentation:
    """A random presentation with at most 4 generators and no empty column."""
    ngen = rng.randint(1, 4)
    gens = sorted((rng.randint(-5, 5) for _ in range(ngen)), reverse=True)
    colw: List[int] = []
    entries: Dict[Tuple[int, int], int] = {}
    for _ in range(rng.randint(0, 4)):
        rows = [i for i in range(ngen) if rng.random() < 0.6]
        if not rows:
            continue
        colw.append(min(gens[i] for i in rows) - rng.randint(0, 3))
        for i in rows:
            entries[(i, len(colw) - 1)] = rng.choice((1, -1, 2, -2, 3))
    return grmod.Presentation(gens, grmod.MonoMatrix(gens, colw, entries))


def _summands(*objs: derived.FormalObject) -> int:
    return sum(len(m.free) + len(m.torsion)
               for o in objs for m in o.components.values())


def make_envelope(seed: int, index: int) -> Item:
    rng = _rng("envelope", seed, index)
    cfg, p = _mode_and_perversity(rng)
    fo = _envelope_formal(rng)
    level = rng.randint(-2, 2)
    data = {
        "cfg": cfg, "p": p, "formal": fo, "level": level,
        "aisle_levels": [rng.randint(-3, 3) for _ in range(3)],
        "module": _module(rng, rng.randint(0, 3), rng.randint(0, 3), 3),
        "direction": rng.choice(("le", "ge")),
        "w": rng.randint(WLO, WHI),
        "pres": small_presentation(rng),
        "cli": None,
    }
    if index % CLI_EVERY == 0:
        verb = CLI_VERBS[(index // CLI_EVERY) % len(CLI_VERBS)]
        data["cli"] = verb
        if verb == "jh":
            hp = rng.choice(stag._blessed_perversities(sstruct.SConfig()))
            data["heart_p"] = hp
            data["heart"] = heart_object(rng, hp, rng.randint(1, 6))
    # generators and nnz are those of the one presentation matrix
    M, pres = data["module"], data["pres"]
    sizes = {"summands": _summands(fo) + len(M.free) + len(M.torsion),
             "generators": len(pres.gens), "nnz": len(pres.rel.entries)}
    return Item("envelope", index, sizes, data)


def make_certify_wide(seed: int, index: int) -> Item:
    # Mode, perversity, level and the JH half follow the item index, so every
    # run of ~100 items has the same mix; the objects come from the seed.
    rng = _rng("certify-wide", seed, index)
    cfg = sstruct.SConfig(("weight", "trivial")[(index // 2) % 2])
    p = stag._blessed_perversities(cfg)[(index // 4) % 3]
    fo = derived.FormalObject({
        k: _module(rng, rng.randint(6, 12), rng.randint(6, 12), 4)
        for k in range(-2, 3)
    })
    data = {"cfg": cfg, "p": p, "formal": fo, "level": index % 5 - 2}
    objs = [fo]
    if index % 2 == 1:
        hp = stag._blessed_perversities(sstruct.SConfig())[(index // 2) % 3]
        data["heart_p"] = hp
        data["heart"] = heart_object(rng, hp, rng.randint(20, 40))
        objs.append(data["heart"])
    # formal objects have no presentation matrix: summands is their only size
    return Item("certify-wide", index, {"summands": _summands(*objs)}, data)


def scrambled_presentation(rng: random.Random, n: int):
    """A presentation of a known module, densely scrambled.

    Draws a canonical module with ``n`` generators, presents it, and mixes
    the relation matrix with homogeneous elementary row and column
    operations (each multiplier x^e has e a weight difference >= 0, so
    every operation is invertible over k[x]) until at least SCRAMBLE_DENSITY
    of the homogeneously allowed entries are nonzero.  Returns the module, the
    scrambled relation matrix and the inverse of the accumulated row
    transform, which maps the scrambled generators onto the canonical ones.
    """
    nfree = rng.randint(n // 5, n // 2)
    M = _module(rng, nfree, n - nfree, 4)
    gens = list(M.free) + [g for g, _ in M.torsion]
    colw = [g - ln for g, ln in M.torsion]
    ncol = len(colw)
    rel = [[int(i == nfree + t) for t in range(ncol)] for i in range(n)]
    uinv = [[int(i == j) for j in range(n)] for i in range(n)]
    goal = SCRAMBLE_DENSITY * sum(1 for g in gens for v in colw if g >= v)
    nnz = ncol
    for _ in range(40 * n):
        if nnz >= goal:
            break
        c = rng.choice((1, -1))
        if rng.random() < 0.5:
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j or gens[i] < gens[j]:
                continue
            # row_i += c x^(g_i - g_j) row_j; U^-1 gets col_j -= c col_i
            ri, rj = rel[i], rel[j]
            for k in range(ncol):
                if rj[k]:
                    nnz -= ri[k] != 0
                    ri[k] += c * rj[k]
                    nnz += ri[k] != 0
            for row in uinv:
                row[j] -= c * row[i]
        else:
            k, l = rng.randrange(ncol), rng.randrange(ncol)
            if k == l or colw[l] < colw[k]:
                continue
            for row in rel:   # col_k += c x^(v_l - v_k) col_l
                if row[l]:
                    nnz -= row[k] != 0
                    row[k] += c * row[l]
                    nnz += row[k] != 0
    relm = grmod.MonoMatrix(gens, colw, _sparse(rel))
    return M, relm, grmod.MonoMatrix(gens, gens, _sparse(uinv))


def _sparse(rows: List[List[int]]) -> Dict[Tuple[int, int], int]:
    return {(i, j): v for i, row in enumerate(rows)
            for j, v in enumerate(row) if v}


def make_elim_scale(seed: int, index: int) -> Item:
    rng = _rng("elim-scale", seed, index)
    n = ELIM_SIZES[index % len(ELIM_SIZES)]
    M, rel, uinv = scrambled_presentation(rng, n)
    gens, colw = list(rel.row_weights), list(rel.col_weights)
    # [rel | rel C] for a random homogeneous C: its kernel is {(-Cy, y)}
    width = max(2, n // 10)
    lowest = min(colw)
    cmat = [[rng.choice((1, -1, 2)) if rng.random() < 0.5 else 0
             for _ in range(width)] for _ in colw]
    relc: Dict[Tuple[int, int], int] = {}
    for (i, k), a in rel.entries.items():
        for m, c in enumerate(cmat[k]):
            if c:
                key = (i, len(colw) + m)
                relc[key] = relc.get(key, 0) + int(a) * c
    wide = dict(rel.entries)
    wide.update((key, v) for key, v in relc.items() if v)
    ucol = [lowest - rng.randint(0, 2) for _ in range(width)]
    p = grmod.Presentation(gens, rel)
    data = {
        "module": M,
        "pres": p,
        "wide": grmod.MonoMatrix(gens, colw + ucol, wide),
        "width": width,
        "iso": grmod.GradedMap(p, grmod.present(M), uinv),
    }
    sizes = {"summands": len(M.free) + len(M.torsion), "generators": n,
             "nnz": len(rel.entries)}
    return Item("elim-scale", index, sizes, data)


MAKERS: Dict[str, Callable[[int, int], Item]] = {
    "envelope": make_envelope,
    "certify-wide": make_certify_wide,
    "elim-scale": make_elim_scale,
}


def first_item(workload: str) -> Item:
    """The item every run starts with, timed only as part of set-up.

    It is the same for every seed, so that ``setup_s`` measures set-up
    work and not the size of a randomly drawn first input.
    """
    return MAKERS[workload](0, 0)


# ---------------------------------------------------------------------------
# item runners
# ---------------------------------------------------------------------------


def _truncate_and_exchange(cfg, p, fo, level, t: Tally):
    """Certified truncation and the duality exchange of its two parts."""
    tr = stag.stag_truncate(cfg, p, fo, level)
    t.check("audit", tr.audit() == [])
    pd = stag.dual_perversity(cfg, p)
    trd = stag.stag_truncate(cfg, pd, derived.dualize(fo), -level - 1)
    t.check("duality", derived.dualize(tr.above) == trd.below
            and derived.dualize(tr.below) == trd.above)
    return tr


def _audited_jh(p, heart, t: Tally):
    cfg = sstruct.SConfig("weight")
    rep = stag.jh_factors(cfg, p, heart)
    t.check("audit", rep.audit(cfg, p) == [])
    return rep


def _cli(argv: List[str]) -> Tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_check(item: Item, tr, t: Tally) -> None:
    d = item.data
    verb = d["cli"]
    cfg, p = d["cfg"], d["p"]
    pv = "%d,%d" % (p.pU, p.pZ)
    if verb == "trunc":
        argv = ["trunc", "--z-mode", cfg.z_mode, "--perversity=" + pv,
                "--n=%d" % d["level"], str(d["formal"])]
        want = "below: %s\nabove: %s\n" % (tr.below, tr.above)
    elif verb == "jh":
        hp = d["heart_p"]
        rep = _audited_jh(hp, d["heart"], t)
        argv = ["jh", "--z-mode", "weight",
                "--perversity=%d,%d" % (hp.pU, hp.pZ), str(d["heart"])]
        want = "factors: %s\n" % ", ".join(rep.factors)
    elif verb == "member":
        val = sstruct.member(sstruct.SITE_X, cfg, "le", d["w"], d["module"])
        argv = ["member", "--site", "X", "--z-mode", cfg.z_mode,
                "--le=%d" % d["w"], grmod.fmt_module(d["module"])]
        want = "%s\n" % str(val).lower()
    elif verb == "decompose":
        pres = d["pres"]
        argv = ["decompose",
                json.dumps(formats.presentation_to_json(pres))]
        want = grmod.fmt_module(grmod.canonical_decompose(pres)) + "\n"
    else:
        argv = ["flag-verify", "--window", "2"]
        rep = flag.flag_verify(window=2)
        t.check("audit", rep.ok)
        want = "\n".join(rep.summary_lines()) + "\n"
    code, out = _cli(argv)
    t.check("cli", code == 0 and out == want)


def run_envelope(item: Item, t: Tally) -> None:
    d = item.data
    cfg, p, fo, level = d["cfg"], d["p"], d["formal"], d["level"]
    tr = _truncate_and_exchange(cfg, p, fo, level, t)
    below, above = tr.below.shift(level), tr.above.shift(level)
    t.check("orthogonality",
            derived.derived_hom(sstruct.SITE_X, below, above).get(0, 0) == 0)

    for k, n in enumerate(d["aisle_levels"]):
        g = fo.shift(n)
        for which in ("le0", "ge0"):
            fast = stag.aisle_member(cfg, p, g, which)
            if k == 0:
                t.check("oracle", fast == oracle.oracle_aisle(
                    cfg, p.pU, p.pZ, g.components, which))

    M, w = d["module"], d["w"]
    wit = sstruct.sigma(sstruct.SITE_X, cfg, d["direction"], w, M)
    t.check("audit", wit.verify() == [])
    t.check("oracle", wit.sub == oracle.oracle_max_sub(
        sstruct.SITE_X, cfg, wit.cut, M))
    # membership and step answer the questions sigma already settled
    le = sstruct.member(sstruct.SITE_X, cfg, "le", wit.cut, M)
    t.check("known_answer", le == wit.quotient.is_zero)
    s = sstruct.step(sstruct.SITE_X, cfg, M)
    if s is not None:
        t.check("known_answer",
                sstruct.member(sstruct.SITE_X, cfg, "le", s, M))

    pres = d["pres"]
    t.check("oracle", grmod.canonical_decompose(pres)
            == oracle.oracle_decompose(pres))

    if d["cli"]:
        _cli_check(item, tr, t)


def run_certify_wide(item: Item, t: Tally) -> None:
    d = item.data
    _truncate_and_exchange(d["cfg"], d["p"], d["formal"], d["level"], t)
    if "heart" in d:
        _audited_jh(d["heart_p"], d["heart"], t)


def _coeff_rank(rows: List[List[Fraction]]) -> int:
    """Rank over Q by plain Gaussian elimination (benchmark-side, untraced)."""
    mat = [list(r) for r in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col] / mat[rank][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _kernel_ok(wide, ker, width: int) -> bool:
    """ker has ``width`` independent columns and wide * ker == 0.

    Entries are monomials with forced exponents, so the product is zero iff
    the coefficient product is, and rank at x = 1 bounds the rank over k(x)
    from below.
    """
    if ker.ncols != width or ker.row_weights != wide.col_weights:
        return False
    by_row: Dict[int, List[Tuple[int, Fraction]]] = {}
    for (j, m), c in ker.entries.items():
        by_row.setdefault(j, []).append((m, c))
    acc: Dict[Tuple[int, int], Fraction] = {}
    for (i, j), a in wide.entries.items():
        for m, c in by_row.get(j, ()):
            acc[(i, m)] = acc.get((i, m), 0) + a * c
    if any(acc.values()):
        return False
    dense = [[ker.entries.get((j, m), Fraction(0)) for m in range(width)]
             for j in range(ker.nrows)]
    return _coeff_rank(dense) == width


def run_elim_scale(item: Item, t: Tally) -> None:
    d = item.data
    t.check("known_answer",
            grmod.canonical_decompose(d["pres"]) == d["module"])
    ker = grmod.free_kernel(d["wide"])
    t.check("known_answer", _kernel_ok(d["wide"], ker, d["width"]))
    kic = grmod.kernel_image_cokernel(d["iso"])
    t.check("known_answer", kic.kernel.is_zero and kic.cokernel.is_zero
            and kic.image == d["module"])


RUNNERS: Dict[str, Callable[[Item, Tally], None]] = {
    "envelope": run_envelope,
    "certify-wide": run_certify_wide,
    "elim-scale": run_elim_scale,
}
