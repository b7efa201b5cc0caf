"""Seeded random instance generators used by every randomized suite.

All randomness flows from a caller-supplied ``random.Random`` so that suites
are reproducible from the single seed embedded in their reports.  The default
distributions follow the documented test envelope: free ranks and torsion
counts up to 3, torsion lengths up to 4, weights uniform on [-6, 6].
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from .grmod import (
    GradedModule,
    GradedMap,
    MonoMatrix,
    Presentation,
    gm,
    kernel_image_cokernel,
    present,
)

Q = Fraction

WLO, WHI = -6, 6
MAX_RANK = 3
MAX_TORS = 3
MAX_LEN = 4

_COEFFS = [Q(1), Q(-1), Q(2), Q(-2), Q(3), Q(1, 2)]


def random_module(rng: random.Random, allow_free: bool = True,
                  max_len: int = MAX_LEN, nonzero: bool = False) -> GradedModule:
    while True:
        nf = rng.randint(0, MAX_RANK) if allow_free else 0
        nt = rng.randint(0, MAX_TORS)
        free = [rng.randint(WLO, WHI) for _ in range(nf)]
        tors = [(rng.randint(WLO, WHI), rng.randint(1, max_len)) for _ in range(nt)]
        M = gm(free, tors)
        if not (nonzero and M.is_zero):
            return M


def random_torsion_module(rng: random.Random, max_len: int = MAX_LEN,
                          nonzero: bool = False) -> GradedModule:
    return random_module(rng, allow_free=False, max_len=max_len, nonzero=nonzero)


def random_element_matrix(rng: random.Random, M: GradedModule,
                          count: Optional[int] = None) -> MonoMatrix:
    """Random homogeneous elements of M, as columns over its canonical gens."""
    p = present(M)
    if count is None:
        count = rng.randint(1, 3)
    lo, hi = M.occupied_window()
    cols = []
    for _ in range(count):
        w = rng.randint(lo - 2, hi)
        col = {}
        for i, gw in enumerate(p.gens):
            if gw < w:
                continue
            k = gw - w
            if i >= len(M.free):
                _g, n = M.torsion[i - len(M.free)]
                if k >= n:
                    continue
            if rng.random() < 0.6:
                col[i] = rng.choice(_COEFFS)
        cols.append((w, col))
    mat = MonoMatrix(p.gens, [w for w, _ in cols])
    for j, (_w, col) in enumerate(cols):
        for i, c in col.items():
            mat.set(i, j, c)
    return mat


def random_sub_quotient(rng: random.Random, M: GradedModule):
    """(S, M, Q): a random submodule of M and the quotient, canonical forms.

    Realized through kernel_image_cokernel of the map +F(w) -> M picking the
    random elements, so the triple is exact by construction.
    """
    elems = random_element_matrix(rng, M)
    src = Presentation(elems.col_weights)
    f = GradedMap(src, present(M), elems)
    kic = kernel_image_cokernel(f)
    return kic.image, M, kic.cokernel


def random_formal_components(rng: random.Random, deg_lo: int = -2,
                             deg_hi: int = 2, max_len: int = MAX_LEN) -> dict:
    comps = {}
    for k in range(deg_lo, deg_hi + 1):
        if rng.random() < 0.45:
            m = random_module(rng, max_len=max_len)
            if not m.is_zero:
                comps[k] = m
    return comps
