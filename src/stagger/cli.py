"""Command-line front end.

Exit codes: 0 success, 1 input error (bad options or a malformed
expression, reported with its position), 2 when a suite reports at least
one violation or an --oracle diff fires.  All randomness flows from
--seed (falling back to the STAGGER_SEED environment variable, then 1)
and reports embed the seed, so output is deterministic.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .grmod import (
    canonical_decompose,
    fmt_module,
    internal_hom,
    present,
    tensor,
)
from .sstruct import (
    SConfig,
    SITE_U,
    SITE_X,
    Site,
    axiom_suite,
    member,
    sigma,
    site_z,
    step,
)
from .derived import (
    dualize,
    fmt_formal,
    li_star,
    r_gamma_z,
    ri_flat,
)
from .stag import (
    Perversity,
    aisle_member,
    geometry_report,
    ic,
    jh_factors,
    simples,
    stag_truncate,
    tstructure_suite,
    validate_perversity,
)
from .flag import flag_verify
from .oracle import (
    _shrink_module,
    agreement_suite,
    oracle_aisle,
    oracle_decompose,
    oracle_max_sub,
    oracle_member,
    oracle_step,
)
from .formats import (
    ParseError,
    formal_to_json,
    parse_formal,
    parse_module,
    presentation_from_json,
)


class _ArgError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2; we want input errors = 1
        raise _ArgError(message)


def _parse_site(s: str) -> Site:
    if s == "X":
        return SITE_X
    if s == "U":
        return SITE_U
    if s == "Z":
        return site_z(1)
    if s.startswith("Z") and s[1:].isdigit():
        n = int(s[1:])
        if n >= 1:
            return site_z(n)
    raise _ArgError("bad site %r (use X, U, Z, or Zn)" % s)


def _parse_perversity(s: str) -> Perversity:
    parts = s.split(",")
    if len(parts) != 2:
        raise _ArgError("perversity must be 'pU,pZ'")
    try:
        return Perversity(int(parts[0]), int(parts[1]))
    except ValueError:
        raise _ArgError("perversity must be 'pU,pZ' with integers")


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("STAGGER_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _ArgError("STAGGER_SEED must be an integer")
    return 1


def _emit(args, payload: dict, lines: Optional[List[str]] = None) -> None:
    if getattr(args, "json", False) or lines is None:
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = "\n".join(lines)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _direction(args) -> tuple:
    if args.le is not None and args.ge is not None:
        raise _ArgError("give exactly one of --le or --ge")
    if args.le is not None:
        return "le", args.le
    if args.ge is not None:
        return "ge", args.ge
    raise _ArgError("one of --le W or --ge W is required")


def _diff_payload(kind: str, expr_in: str, fast, slow, minimized) -> dict:
    return {
        "oracle_diff": kind,
        "input": expr_in,
        "fast": fast,
        "oracle": slow,
        "minimized": minimized,
    }


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------


def _cmd_decompose(args) -> int:
    text = args.expr.strip()
    if text.startswith("{"):
        p = presentation_from_json(json.loads(text))
    else:
        p = present(parse_module(text))
    M = canonical_decompose(p)
    if args.oracle:
        slow = oracle_decompose(p)
        if slow != M:
            _emit(args, _diff_payload("decompose", args.expr,
                                      fmt_module(M), fmt_module(slow),
                                      args.expr))
            return 2
    _emit(args, {"module": fmt_module(M)}, [fmt_module(M)])
    return 0


def _cmd_member(args) -> int:
    site = _parse_site(args.site)
    cfg = SConfig(args.z_mode)
    direction, w = _direction(args)
    M = parse_module(args.expr)
    val = member(site, cfg, direction, w, M)
    if args.oracle:
        slow = oracle_member(site, cfg, direction, w, M)
        if slow != val:
            small = _shrink_module(
                M,
                lambda m: member(site, cfg, direction, w, m)
                != oracle_member(site, cfg, direction, w, m),
            )
            _emit(args, _diff_payload("member", args.expr, val, slow,
                                      fmt_module(small)))
            return 2
    _emit(args, {"member": val, "site": str(site),
                 "direction": direction, "w": w},
          [str(val).lower()])
    return 0


def _cmd_sigma(args) -> int:
    site = _parse_site(args.site)
    cfg = SConfig(args.z_mode)
    direction, w = _direction(args)
    M = parse_module(args.expr)
    wit = sigma(site, cfg, direction, w, M)
    errs = wit.verify()
    if errs:
        _emit(args, {"violations": errs})
        return 2
    if args.oracle:
        slow = oracle_max_sub(site, cfg, wit.cut, M)
        if slow != wit.sub:
            small = _shrink_module(
                M,
                lambda m: sigma(site, cfg, direction, w, m).sub
                != oracle_max_sub(site, cfg, wit.cut, m),
            )
            _emit(args, _diff_payload("sigma", args.expr,
                                      fmt_module(wit.sub), fmt_module(slow),
                                      fmt_module(small)))
            return 2
    _emit(args, {"sub": fmt_module(wit.sub),
                 "quotient": fmt_module(wit.quotient)},
          ["sub: %s" % fmt_module(wit.sub),
           "quotient: %s" % fmt_module(wit.quotient)])
    return 0


def _cmd_step(args) -> int:
    site = _parse_site(args.site)
    cfg = SConfig(args.z_mode)
    M = parse_module(args.expr)
    val = step(site, cfg, M)
    if args.oracle:
        slow = oracle_step(site, cfg, M)
        if slow != val:
            small = _shrink_module(
                M,
                lambda m: step(site, cfg, m) != oracle_step(site, cfg, m),
            )
            _emit(args, _diff_payload("step", args.expr, val, slow,
                                      fmt_module(small)))
            return 2
    _emit(args, {"step": val}, [str(val)])
    return 0


def _cmd_tensor(args) -> int:
    M = parse_module(args.expr)
    N = parse_module(args.expr2)
    _emit(args, {"module": fmt_module(tensor(M, N))},
          [fmt_module(tensor(M, N))])
    return 0


def _cmd_chom(args) -> int:
    M = parse_module(args.expr)
    N = parse_module(args.expr2)
    _emit(args, {"module": fmt_module(internal_hom(M, N))},
          [fmt_module(internal_hom(M, N))])
    return 0


def _cmd_dual(args) -> int:
    F = parse_formal(args.expr, default_degree=args.shift)
    D = dualize(F)
    _emit(args, {"formal": formal_to_json(D)}, [fmt_formal(D)])
    return 0


def _cmd_li(args) -> int:
    F = parse_formal(args.expr, default_degree=args.shift)
    G = li_star(F, args.n)
    _emit(args, {"formal": formal_to_json(G)}, [fmt_formal(G)])
    return 0


def _cmd_riflat(args) -> int:
    F = parse_formal(args.expr, default_degree=args.shift)
    G = ri_flat(F, args.n)
    _emit(args, {"formal": formal_to_json(G)}, [fmt_formal(G)])
    return 0


def _cmd_gammaz(args) -> int:
    F = parse_formal(args.expr, default_degree=args.shift)
    G = r_gamma_z(F)
    _emit(args, {"gamma": str(G)}, [str(G)])
    return 0


def _cmd_trunc(args) -> int:
    cfg = SConfig(args.z_mode)
    p = _parse_perversity(args.perversity)
    F = parse_formal(args.expr, default_degree=args.shift)
    tr = stag_truncate(cfg, p, F, args.n)
    errs = tr.audit()
    if errs:
        _emit(args, {"violations": errs})
        return 2
    if args.oracle:
        ok = oracle_aisle(cfg, p.pU, p.pZ,
                          tr.below.shift(args.n).components, "le0") \
            and oracle_aisle(cfg, p.pU, p.pZ,
                             tr.above.shift(args.n + 1).components, "ge0")
        if not ok:
            _emit(args, _diff_payload("trunc", args.expr,
                                      fmt_formal(tr.below),
                                      "aisle membership refused",
                                      args.expr))
            return 2
    _emit(args, {"below": formal_to_json(tr.below),
                 "above": formal_to_json(tr.above), "level": args.n},
          ["below: %s" % fmt_formal(tr.below),
           "above: %s" % fmt_formal(tr.above)])
    return 0


def _cmd_heart(args) -> int:
    cfg = SConfig(args.z_mode)
    p = _parse_perversity(args.perversity)
    F = parse_formal(args.expr, default_degree=args.shift)
    le = aisle_member(cfg, p, F, "le0")
    ge = aisle_member(cfg, p, F, "ge0")
    _emit(args, {"le0": le, "ge0": ge, "in_heart": le and ge},
          ["in_heart: %s" % (le and ge)])
    return 0


def _cmd_jh(args) -> int:
    cfg = SConfig(args.z_mode)
    p = _parse_perversity(args.perversity)
    F = parse_formal(args.expr, default_degree=args.shift)
    rep = jh_factors(cfg, p, F)
    errs = rep.audit(cfg, p)
    if errs:
        _emit(args, {"violations": errs})
        return 2
    _emit(args, {"factors": rep.factors, "length": rep.length},
          ["factors: %s" % ", ".join(rep.factors)])
    return 0


def _cmd_simples(args) -> int:
    cfg = SConfig(args.z_mode)
    p = _parse_perversity(args.perversity)
    out = simples(cfg, p, args.n_lo, args.n_hi)
    payload = {lbl: fmt_formal(S) for lbl, S in out}
    _emit(args, {"simples": payload},
          ["%-8s %s" % (lbl, fmt_formal(S)) for lbl, S in out])
    return 0


def _cmd_ic(args) -> int:
    cfg = SConfig(args.z_mode)
    p = _parse_perversity(args.perversity)
    S = ic(cfg, p, args.orbit, args.param)
    _emit(args, {"ic": formal_to_json(S)}, [fmt_formal(S)])
    return 0


def _cmd_geometry(args) -> int:
    cfg = SConfig(args.z_mode)
    g = geometry_report(cfg)
    _emit(args, g.to_json(),
          ["U: cod=%d alt=%d scod=%d" % (g.cod_u, g.alt_u, g.scod_u),
           "Z: cod=%d alt=%d scod=%d" % (g.cod_z, g.alt_z, g.scod_z)])
    return 0


def _cmd_validate_p(args) -> int:
    cfg = SConfig(args.z_mode)
    p = _parse_perversity(args.perversity)
    rep = validate_perversity(cfg, p)
    _emit(args, rep.to_json(),
          ["valid: %s (strict: %s, middle: %s, dual: %s)"
           % (rep.valid, rep.strict, rep.middle, rep.dual)])
    return 0


def _suite_exit(args, rep) -> int:
    _emit(args, rep.to_json(), rep.summary_lines())
    return 0 if rep.ok else 2


def _cmd_axioms(args) -> int:
    cfg = SConfig(args.z_mode)
    return _suite_exit(args, axiom_suite(cfg, seed=_seed(args),
                                         samples=args.samples))


def _cmd_tsuite(args) -> int:
    cfg = SConfig(args.z_mode)
    return _suite_exit(args, tstructure_suite(cfg, seed=_seed(args),
                                              samples=args.samples))


def _cmd_oracle_suite(args) -> int:
    return _suite_exit(args, agreement_suite(seed=_seed(args),
                                             samples=args.samples))


def _cmd_flag_verify(args) -> int:
    rep = flag_verify(window=args.window)
    _emit(args, rep.to_json(), rep.summary_lines())
    return 0 if rep.ok else 2


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_common(sp, site=False, mode=True, perversity=False, expr=1,
                direction=False, n=None, shift=False, oracle=False,
                suite=False):
    if site:
        sp.add_argument("--site", default="X",
                        help="X, U, Z, or Zn (default X)")
    if mode:
        sp.add_argument("--z-mode", default="weight",
                        choices=["weight", "trivial"], dest="z_mode")
    if perversity:
        sp.add_argument("--perversity", default="0,1",
                        help="'pU,pZ' (default 0,1)")
    if direction:
        sp.add_argument("--le", type=int, default=None, metavar="W")
        sp.add_argument("--ge", type=int, default=None, metavar="W")
    if n is not None:
        sp.add_argument("--n", type=int, default=n[1], help=n[0])
    if shift:
        sp.add_argument("--shift", type=int, default=0,
                        help="degree for bare module expressions")
    if oracle:
        sp.add_argument("--oracle", action="store_true",
                        help="run the brute-force oracle and diff")
    if suite:
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--out", default=None, metavar="FILE")
    if expr >= 1:
        sp.add_argument("expr", help="module expression or formal object")
    if expr >= 2:
        sp.add_argument("expr2", help="second module expression")


def build_parser() -> _Parser:
    ap = _Parser(prog="stagger", description=__doc__)
    sub = ap.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("decompose"); _add_common(sp, oracle=True, mode=False)
    sp.set_defaults(fn=_cmd_decompose)
    sp = sub.add_parser("member")
    _add_common(sp, site=True, direction=True, oracle=True)
    sp.set_defaults(fn=_cmd_member)
    sp = sub.add_parser("sigma")
    _add_common(sp, site=True, direction=True, oracle=True)
    sp.set_defaults(fn=_cmd_sigma)
    sp = sub.add_parser("step"); _add_common(sp, site=True, oracle=True)
    sp.set_defaults(fn=_cmd_step)
    sp = sub.add_parser("tensor"); _add_common(sp, expr=2, mode=False)
    sp.set_defaults(fn=_cmd_tensor)
    sp = sub.add_parser("chom"); _add_common(sp, expr=2, mode=False)
    sp.set_defaults(fn=_cmd_chom)
    sp = sub.add_parser("dual"); _add_common(sp, shift=True, mode=False)
    sp.set_defaults(fn=_cmd_dual)
    sp = sub.add_parser("li")
    _add_common(sp, shift=True, mode=False, n=("thickening", 1))
    sp.set_defaults(fn=_cmd_li)
    sp = sub.add_parser("riflat")
    _add_common(sp, shift=True, mode=False, n=("thickening", 1))
    sp.set_defaults(fn=_cmd_riflat)
    sp = sub.add_parser("gammaz"); _add_common(sp, shift=True, mode=False)
    sp.set_defaults(fn=_cmd_gammaz)
    sp = sub.add_parser("trunc")
    _add_common(sp, perversity=True, shift=True, oracle=True,
                n=("truncation level", 0))
    sp.set_defaults(fn=_cmd_trunc)
    sp = sub.add_parser("heart"); _add_common(sp, perversity=True, shift=True)
    sp.set_defaults(fn=_cmd_heart)
    sp = sub.add_parser("jh"); _add_common(sp, perversity=True, shift=True)
    sp.set_defaults(fn=_cmd_jh)
    sp = sub.add_parser("simples")
    _add_common(sp, perversity=True, expr=0)
    sp.add_argument("--n-lo", type=int, default=-5, dest="n_lo")
    sp.add_argument("--n-hi", type=int, default=5, dest="n_hi")
    sp.set_defaults(fn=_cmd_simples)
    sp = sub.add_parser("ic")
    _add_common(sp, perversity=True, expr=0)
    sp.add_argument("--orbit", required=True, choices=["U", "Z"])
    sp.add_argument("--param", required=True, type=int,
                    help="rank for U, skyscraper weight for Z")
    sp.set_defaults(fn=_cmd_ic)
    sp = sub.add_parser("geometry"); _add_common(sp, expr=0)
    sp.set_defaults(fn=_cmd_geometry)
    sp = sub.add_parser("validate-p")
    _add_common(sp, perversity=True, expr=0)
    sp.set_defaults(fn=_cmd_validate_p)
    sp = sub.add_parser("axioms"); _add_common(sp, expr=0, suite=True)
    sp.set_defaults(fn=_cmd_axioms)
    sp = sub.add_parser("tsuite"); _add_common(sp, expr=0, suite=True)
    sp.set_defaults(fn=_cmd_tsuite)
    sp = sub.add_parser("oracle-suite")
    _add_common(sp, expr=0, suite=True, mode=False)
    sp.set_defaults(fn=_cmd_oracle_suite)
    sp = sub.add_parser("flag-verify"); _add_common(sp, expr=0, mode=False)
    sp.add_argument("--window", type=int, default=4)
    sp.set_defaults(fn=_cmd_flag_verify)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except _ArgError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except (ParseError, json.JSONDecodeError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
