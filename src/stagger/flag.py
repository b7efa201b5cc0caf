"""Verifier for the Borel-on-the-projective-line example.

The model: A = k[x, y] with x, y both of internal degree 1; the torus acts
with weight -1 on x and +1 on y, so the monomial x^a y^b has degree a + b
and weight b - a.  The closed orbit is cut out by the ideal I = (y); the
open orbit U is the complement, with coordinate t = x/y of weight -2.

On the closed orbit the s-structure convention is FLIPPED relative to the
affine-line model: a representation lies in C_{<=w}(Z) when it contains no
summand V_n with n < -w, and in C_{>=w}(Z) when it contains none with
n > -w.  The flip is exercised by a round-trip test against the main
convention.

Supported module shapes are the ones the example actually computes with:
twists A(n), the ideal I, and twisted ideals I(n).  Everything here is
computed from monomials, not looked up: fibers at Z are monomial bases of
the degree-matched component of M/yM (localized in x when the twist makes
the naive component empty), the restriction to U is expanded in the basis
y^n t^k, and the dualizing module of Z comes from the Koszul resolution of
A/I by an explicit kernel/cokernel computation of multiplication by y.

One discrepancy is reported, not judged: the computed staggered
codimension of the closed orbit is cod + alt = 1 + 1 = 2, while the value
asserted alongside the example is 3.  The report prints both and confirms
the strictness hypotheses for the perversity (0, 1) under either reading.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .grmod import gm
from .sstruct import SConfig, member, site_z


# ---------------------------------------------------------------------------
# monomials and module shapes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Monomial:
    """x^a y^b with a, b >= 0ish (a may go negative only via localization)."""

    a: int
    b: int

    @property
    def degree(self) -> int:
        return self.a + self.b

    @property
    def weight(self) -> int:
        return self.b - self.a

    def times(self, other: "Monomial") -> "Monomial":
        return Monomial(self.a + other.a, self.b + other.b)

    def __str__(self) -> str:
        parts = []
        if self.a:
            parts.append("x" if self.a == 1 else "x^%d" % self.a)
        if self.b:
            parts.append("y" if self.b == 1 else "y^%d" % self.b)
        return "*".join(parts) if parts else "1"


DEG_X, DEG_Y = 1, 1
WT_X, WT_Y = -1, 1


def _check_bookkeeping(m: Monomial) -> bool:
    """Independent recomputation of degree and weight from the per-variable
    contributions (exponents may be negative after localization)."""
    deg = m.a * DEG_X + m.b * DEG_Y
    wt = m.a * WT_X + m.b * WT_Y
    return deg == m.degree and wt == m.weight


@dataclass(frozen=True)
class BiGradedModule:
    """A monomial module c * x^a y^b * gen, twisted by O(twist).

    gen is the generating monomial (1 for twists of the structure sheaf,
    y for the ideal I and its twists).
    """

    gen: Monomial
    twist: int
    name: str

    def __str__(self) -> str:
        return self.name


def O(n: int) -> BiGradedModule:
    return BiGradedModule(gen=Monomial(0, 0), twist=n, name="O(%d)" % n)


def ideal_I(n: int = 0) -> BiGradedModule:
    name = "I" if n == 0 else "I(%d)" % n
    return BiGradedModule(gen=Monomial(0, 1), twist=n, name=name)


# ---------------------------------------------------------------------------
# restriction to the closed orbit
# ---------------------------------------------------------------------------


def flag_restrict_Z(M: BiGradedModule) -> List[int]:
    """Torus weights of the fiber of M at the closed point.

    The fiber is the degree-matched component of M/yM, the matched degree
    being deg(gen) + twist.  When the twist is negative the naive
    component is empty and we compute in the x-localization: shift by a
    power of x, compute the honest monomial basis, then shift the weights
    back (x has weight -1, so dividing by x^s adds s to the weight).
    """
    if M.gen not in (Monomial(0, 0), Monomial(0, 1)):
        raise ValueError("unsupported module shape: %s" % M)
    d_star = M.gen.degree + M.twist
    shift = max(0, -(d_star - M.gen.degree))
    target = d_star + shift
    basis: List[Monomial] = []
    for a in range(0, target - M.gen.degree + 1):
        b = target - M.gen.degree - a
        mono = Monomial(a, b).times(M.gen)
        if not _check_bookkeeping(mono):
            raise AssertionError("degree/weight bookkeeping broke on %s" % mono)
        if mono.degree != target:
            continue
        # dividing by y * gen lands in yM; survivors have b-part = gen's
        if mono.b == M.gen.b:
            basis.append(mono)
    return sorted(m.weight + shift for m in basis)


def flag_restrict_U(M: BiGradedModule) -> Tuple[int, int]:
    """(rank, step) of the restriction of a twist O(n) to the open orbit.

    The restriction is the free module on y^n over k[t], t = x/y; the
    element y^n t^k = x^k y^{n-k} has weight n - 2k, so modulo (t) the
    fiber is V_n and the sheaf is pure of step n.  The weights are
    recomputed from monomials for every k < 6.
    """
    if M.gen != Monomial(0, 0):
        raise ValueError("unsupported shape for restriction to U: %s" % M)
    n = M.twist
    weights = []
    for k in range(6):
        mono = Monomial(k, n - k)  # y^n t^k, expanded
        if not _check_bookkeeping(mono):
            raise AssertionError("bookkeeping broke on %s" % mono)
        if mono.weight != n - 2 * k:
            raise AssertionError("t does not have weight -2 at k=%d" % k)
        weights.append(mono.weight)
    # the fiber modulo (t) is the k = 0 piece
    return 1, weights[0]


# ---------------------------------------------------------------------------
# the flipped s-structure on Z
# ---------------------------------------------------------------------------


def member_z_flag(direction: str, w: int, weights: List[int]) -> bool:
    """Membership under the flipped convention: C_{<=w} bans V_n with
    n < -w, C_{>=w} bans V_n with n > -w."""
    if direction == "le":
        return all(n >= -w for n in weights)
    if direction == "ge":
        return all(n <= -w for n in weights)
    raise ValueError("direction must be 'le' or 'ge'")


def _roundtrip_flip(w: int, weights: List[int]) -> bool:
    """The flipped convention is the negation image of the main one."""
    cfg = SConfig("weight")
    neg = gm([], [(-n, 1) for n in weights]) if weights else gm([])
    main = member(site_z(1), cfg, "le", w, neg)
    ge_main = member(site_z(1), cfg, "ge", -w, neg)
    return (member_z_flag("le", w, weights) == main
            and member_z_flag("ge", -w, weights) == ge_main)


# ---------------------------------------------------------------------------
# dualizing module of the closed orbit
# ---------------------------------------------------------------------------


def _dim_A(d: int) -> int:
    """Dimension of the degree-d component of k[x,y]."""
    return d + 1 if d >= 0 else 0


def _omega_z(window: int = 4) -> Tuple[bool, List[int]]:
    """(H^0 vanishes, weights of the fiber of H^1) for omega_Z.

    Apply Hom(-, A) to the Koszul resolution 0 -> A(-1) --y--> A -> A/I -> 0:
    H^0 is the kernel of y: A -> A(1) and H^1 its cokernel.  Injectivity of
    y is checked degreewise on monomial bases over the window; the cokernel
    is A(1)/yA = (A/y)(1), whose degree-matched fiber is computed the same
    way as any twist.
    """
    h0_zero = True
    for d in range(0, window + 1):
        # y: A_d -> A_{d+1} sends x^a y^b to x^a y^{b+1}: injective on the
        # monomial basis iff it is injective, and the image misses x^{d+1}
        src = [Monomial(a, d - a) for a in range(d + 1)]
        images = {Monomial(m.a, m.b + 1) for m in src}
        if len(images) != len(src):
            h0_zero = False
        coker_basis = [
            Monomial(a, d + 1 - a) for a in range(d + 2)
            if Monomial(a, d + 1 - a) not in images
        ]
        if len(coker_basis) != _dim_A(d + 1) - _dim_A(d):
            raise AssertionError("cokernel of y has wrong dimension")
        if [m.b for m in coker_basis] != [0]:
            raise AssertionError("cokernel of y not spanned by powers of x")
    # the cokernel is (A/y)(1); its fiber at Z
    h1 = flag_restrict_Z(O(1))
    return h0_zero, h1


# ---------------------------------------------------------------------------
# the verifier
# ---------------------------------------------------------------------------


@dataclass
class FlagCheck:
    label: str
    ok: bool
    detail: str = ""


@dataclass
class FlagReport:
    window: int
    checks: List[FlagCheck] = field(default_factory=list)
    alt_u: int = 0
    alt_z: Optional[int] = None
    cod_z: Optional[int] = None
    scod_z_computed: Optional[int] = None
    scod_z_asserted: int = 3
    simples: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, label: str, ok: bool, detail: str = "") -> None:
        self.checks.append(FlagCheck(label, ok, detail))

    def summary_lines(self) -> List[str]:
        out = []
        for c in self.checks:
            out.append("%-28s %s%s" % (c.label, "ok" if c.ok else "FAIL",
                                       ("  " + c.detail) if c.detail else ""))
        out.append("alt U = %d, alt Z = %s, cod Z = %s" %
                   (self.alt_u, self.alt_z, self.cod_z))
        out.append("scod Z computed = %s; asserted alongside the example = %d"
                   % (self.scod_z_computed, self.scod_z_asserted))
        out.append("simples: " + ", ".join(self.simples))
        return out

    def to_json(self) -> dict:
        return {
            "window": self.window,
            "ok": self.ok,
            "checks": [
                {"label": c.label, "ok": c.ok, "detail": c.detail}
                for c in self.checks
            ],
            "alt_u": self.alt_u,
            "alt_z": self.alt_z,
            "cod_z": self.cod_z,
            "scod_z_computed": self.scod_z_computed,
            "scod_z_asserted": self.scod_z_asserted,
            "simples": self.simples,
        }


def flag_verify(window: int = 4) -> FlagReport:
    """Run every computation the example states and report the results."""
    rep = FlagReport(window=window)

    # F1: the fiber of the ideal is V_1, sharply in C_{<=-1}
    fib_i = flag_restrict_Z(ideal_I())
    rep.add("F1_ideal_fiber", fib_i == [1], "i*I = %s" % fib_i)
    rep.add(
        "F1_membership",
        member_z_flag("le", -1, fib_i) and not member_z_flag("le", -2, fib_i),
        "V_1 in C_{<=-1}, not in C_{<=-2}",
    )

    # F2: twists restrict to V_{-n}, sharply in C_{<=n}
    ok2 = True
    det2 = []
    for n in range(-window, window + 1):
        fib = flag_restrict_Z(O(n))
        good = (fib == [-n]
                and member_z_flag("le", n, fib)
                and not member_z_flag("le", n - 1, fib))
        if not good:
            ok2 = False
            det2.append("n=%d gave %s" % (n, fib))
    rep.add("F2_twist_fibers", ok2, "; ".join(det2))

    # twisted ideal fibers are multiplicative: I(n) -> V_{1-n}
    ok_ = all(flag_restrict_Z(ideal_I(n)) == [1 - n]
              for n in range(-window, window + 1))
    rep.add("F1xF2_twisted_ideal", ok_, "i*I(n) = V_{1-n}")

    # purity on U, and multiplicativity of the step under tensor
    oku = True
    for n in range(-window, window + 1):
        rank, step = flag_restrict_U(O(n))
        if (rank, step) != (1, n):
            oku = False
    rep.add("U_purity", oku, "O(n)|_U pure of step n")
    okt = True
    for a in range(-2, 3):
        for b in range(-2, 3):
            _r, s = flag_restrict_U(O(a + b))
            # oracle: multiply the generating monomials directly
            prod = Monomial(0, a).times(Monomial(0, b))
            if s != a + b or prod.weight != a + b:
                okt = False
    rep.add("U_tensor_step", okt, "O(a)xO(b) has step a+b")

    # omega_Z from the Koszul resolution
    h0_zero, h1 = _omega_z(window)
    rep.add("omega_z_h0", h0_zero, "H^0(omega_Z) = 0")
    rep.add("omega_z_h1", h1 == [-1], "H^1(omega_Z) = V_{%s}"
            % ",".join(str(w) for w in h1))
    rep.cod_z = 1 if h0_zero and h1 else None

    # altitude: the largest w with the fiber of H^1 in C_{>=w}
    alt = max(
        (w for w in range(-2 * window, 2 * window + 1)
         if member_z_flag("ge", w, h1)),
        default=None,
    )
    rep.alt_z = alt
    rep.add("alt_z", alt == 1, "alt Z = %s" % alt)
    _ru = flag_restrict_U(O(0))
    rep.alt_u = _ru[1]
    rep.add("alt_u", _ru == (1, 0), "omega_X|_U pure of step 0")

    # staggered codimension: print the computed value and the asserted one
    rep.scod_z_computed = (rep.cod_z + alt) if (rep.cod_z is not None
                                                and alt is not None) else None
    for reading, scod_z in (("computed", rep.scod_z_computed),
                            ("asserted", rep.scod_z_asserted)):
        scod_u = 0
        pU, pZ = 0, 1
        strict = (pZ > pU) and (scod_z - pZ) > (scod_u - pU)
        rep.add("strict_perversity_%s" % reading, strict,
                "p=(0,1) strict with scod Z = %s" % scod_z)

    # the flip is the negation image of the main convention
    okr = all(
        _roundtrip_flip(w, [m])
        for w in range(-3, 4)
        for m in range(-3, 4)
    )
    rep.add("flip_roundtrip", okr, "flipped vs main convention")

    rep.simples = ["IC(X, O(n)|_U)", "IC(Z, V_n[-n-1])"]
    return rep
