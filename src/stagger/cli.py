"""Command-line front end.

Exit codes: 0 success, 1 input error (bad options or a malformed
expression, reported with its position), 2 when a suite reports at least
one violation or an --oracle diff fires.  All randomness flows from
--seed (falling back to the STAGGER_SEED environment variable, then 1)
and reports embed the seed, so output is deterministic.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import List, Optional, Tuple

from .grmod import (
    GradedModule,
    Presentation,
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
    FormalObject,
    dualize,
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
    _disagreement,
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
    json_int,
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
        try:
            n = int(s[1:])
        except ValueError:  # past sys.get_int_max_str_digits(), or a '²'
            n = 0
        if n >= 1:
            return site_z(n)
    raise _ArgError("bad site %.40r (use X, U, Z, or Zn)" % s)


def _parse_perversity(s: str) -> Perversity:
    parts = s.split(",")
    if len(parts) != 2:
        raise _ArgError("perversity must be 'pU,pZ'")
    try:
        return Perversity(int(parts[0]), int(parts[1]))
    except ValueError:
        raise _ArgError("perversity must be 'pU,pZ' with integers")


def _integer(text: str) -> int:
    """The type of every plain integer option.  int() past
    sys.get_int_max_str_digits() would echo the whole value in argparse's
    error, so the echo is cut at 40 characters, as the site's is."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %.40r" % text)


def _count(name: str, budget: int):
    """The type of --samples and --window: a positive integer, as none
    would check nothing and pass, and at most ``budget``, the constant
    ``name``, as the work grows with it."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = 0
        if n < 1:
            raise argparse.ArgumentTypeError(
                "must be a positive integer, got %.40s" % text)
        if n > budget:
            raise argparse.ArgumentTypeError(
                "%.40s is over the budget %s = %d" % (text, name, budget))
        return n
    return parse


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


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------


# Widest weight window that --oracle accepts: highest minus lowest of the
# subject's occupied weights and of the level (member, sigma) or weight 0
# (step), which the oracle's probe search also reaches.  A search reads
# probes over that span and ranks of x across it, so the oracles' cost grows
# with about the third power of the span.  On a 2-vCPU host (Python 3.11,
# best of 3), oracle_step on T(32,32)+T(0,1) takes 0.008-0.009 s in-process
# and `step --oracle` on it 0.10-0.11 s in a fresh process, about 0.1 s of
# it start-up; at span 64 oracle_step takes 0.057-0.060 s, and at span 200
# oracle_member 0.023-0.027 s.  `decompose --oracle` on a presentation of span 32 with
# dependent, non-diagonal relations takes 0.10-0.13 s in a fresh process.
ORACLE_WEIGHT_BUDGET = 32

# Most generators plus relations that --oracle accepts: those of a JSON
# presentation, or of a module's (a torsion summand is one of each), summed
# over the degrees of a formal object.  The oracles rank blocks of the
# relation matrix by Bareiss elimination, so their cost grows up to the third
# power of this size, and with the span; a module's relations are unit
# diagonal, and the elimination leaves their rows as they are.  On the same
# host, in fresh processes (3 runs each, about 0.13 s of each start-up), 66
# free plus 66 torsion summands (size 198) in weights 3..32 took 0.13-0.18 s
# under `trunc --oracle`, 0.24-0.26 s under `decompose --oracle` and
# 0.24-0.29 s under `step --oracle`.
ORACLE_SIZE_BUDGET = 200


def _oracle_extent(subject, reach: Tuple[int, ...] = ()) -> Tuple[int, int]:
    """The weight span and the size of an --oracle subject (a presentation,
    a module or a formal object): highest minus lowest of its occupied
    weights and the weights ``reach``, and its generators plus relations."""
    if isinstance(subject, Presentation):
        ws = list(subject.gens + subject.rel.col_weights)
        size = len(ws)
    else:
        mods = [m for m in (subject.components.values() if isinstance(
            subject, FormalObject) else [subject]) if not m.is_zero]
        ws = [w for m in mods for w in m.occupied_window()]
        size = sum(len(m.free) + 2 * len(m.torsion) for m in mods)
    ws.extend(reach)
    return (max(ws) - min(ws) if ws else 0), size


def _checked(args, kind: str, subject, fast, oracle, render,
             answer=lambda v: v, audit=None,
             reach: Tuple[int, ...] = ()) -> int:
    """Run a verb whose answer the brute-force oracle can cross-check.

    ``fast(subject)`` is the verb's result and ``audit(result)`` lists its
    own self-check failures (exit 2).  With --oracle, ``answer(result)``
    (the result itself by default) must equal ``oracle(subject, result)``;
    on a mismatch the diff is emitted with the subject shrunk to a minimal
    disagreement (``oracle._disagreement``; a presentation or a formal
    object has nothing smaller and is echoed back), and the exit code is 2.
    Otherwise ``render(result)`` gives the payload and the text lines.  An
    --oracle subject whose weights, with the weights ``reach`` its probe
    search also reaches (a level, or weight 0), span more than
    ``ORACLE_WEIGHT_BUDGET``, or that has more generators plus relations
    than ``ORACLE_SIZE_BUDGET``, is refused as an input error.
    """
    span, size = _oracle_extent(subject, reach) if args.oracle else (0, 0)
    if span > ORACLE_WEIGHT_BUDGET:
        raise _ArgError("--oracle window has weight span %d, over the oracle "
                        "budget ORACLE_WEIGHT_BUDGET = %d"
                        % (span, ORACLE_WEIGHT_BUDGET))
    if size > ORACLE_SIZE_BUDGET:
        raise _ArgError("--oracle subject has %d generators plus relations, "
                        "over the oracle budget ORACLE_SIZE_BUDGET = %d"
                        % (size, ORACLE_SIZE_BUDGET))
    val = fast(subject)
    errs = audit(val) if audit is not None else []
    if errs:
        _emit(args, {"violations": errs})
        return 2
    if args.oracle:
        got, ref = answer(val), oracle(subject, val)
        if got != ref:
            (small,) = _disagreement((subject,), lambda s: answer(fast(s)),
                                     lambda s: oracle(s, fast(s)))
            _emit(args, {"oracle_diff": kind, "input": args.expr, "fast": got,
                         "oracle": ref, "minimized": fmt_module(small)
                         if isinstance(small, GradedModule) else args.expr})
            return 2
    _emit(args, *render(val))
    return 0


def _cmd_decompose(args) -> int:
    text = args.expr.strip()
    if text.startswith("{"):
        p = presentation_from_json(json.loads(text, parse_int=json_int))
    else:
        p = present(parse_module(text))
    return _checked(
        args, "decompose", p, fast=canonical_decompose, answer=fmt_module,
        oracle=lambda q, _M: fmt_module(oracle_decompose(q)),
        render=lambda M: ({"module": fmt_module(M)}, [fmt_module(M)]),
    )


def _cmd_member(args) -> int:
    site = _parse_site(args.site)
    cfg = SConfig(args.z_mode)
    direction, w = _direction(args)
    return _checked(
        args, "member", parse_module(args.expr), reach=(w,),
        fast=lambda m: member(site, cfg, direction, w, m),
        oracle=lambda m, _v: oracle_member(site, cfg, direction, w, m),
        render=lambda v: ({"member": v, "site": str(site),
                           "direction": direction, "w": w},
                          [str(v).lower()]),
    )


def _cmd_sigma(args) -> int:
    site = _parse_site(args.site)
    cfg = SConfig(args.z_mode)
    direction, w = _direction(args)
    return _checked(
        args, "sigma", parse_module(args.expr), reach=(w,),
        fast=lambda m: sigma(site, cfg, direction, w, m),
        audit=lambda wit: wit.verify(),
        answer=lambda wit: fmt_module(wit.sub),
        oracle=lambda m, wit: fmt_module(oracle_max_sub(site, cfg, wit.cut,
                                                        m)),
        render=lambda wit: ({"sub": fmt_module(wit.sub),
                             "quotient": fmt_module(wit.quotient)},
                            ["sub: %s" % fmt_module(wit.sub),
                             "quotient: %s" % fmt_module(wit.quotient)]),
    )


def _cmd_step(args) -> int:
    site = _parse_site(args.site)
    cfg = SConfig(args.z_mode)
    return _checked(
        args, "step", parse_module(args.expr), reach=(0,),
        fast=lambda m: step(site, cfg, m),
        oracle=lambda m, _v: oracle_step(site, cfg, m),
        render=lambda v: ({"step": v}, [str(v)]),
    )


def _cmd_trunc(args) -> int:
    cfg = SConfig(args.z_mode)
    p = _parse_perversity(args.perversity)

    def oracle(_F, tr) -> str:
        # the oracle agrees by accepting both parts into their aisles
        ok = oracle_aisle(cfg, p.pU, p.pZ,
                          tr.below.shift(args.n).components, "le0") \
            and oracle_aisle(cfg, p.pU, p.pZ,
                             tr.above.shift(args.n + 1).components, "ge0")
        return str(tr.below) if ok else "aisle membership refused"

    return _checked(
        args, "trunc", parse_formal(args.expr, default_degree=args.shift),
        fast=lambda F: stag_truncate(cfg, p, F, args.n),
        audit=lambda tr: tr.audit(),
        answer=lambda tr: str(tr.below), oracle=oracle,
        render=lambda tr: ({"below": formal_to_json(tr.below),
                            "above": formal_to_json(tr.above),
                            "level": args.n},
                           ["below: %s" % tr.below,
                            "above: %s" % tr.above]),
    )


def _cmd_module_pair(args) -> int:
    """tensor and chom: a bifunctor applied to two modules."""
    M = parse_module(args.expr)
    N = parse_module(args.expr2)
    m, n = (len(X.free) + len(X.torsion) for X in (M, N))
    _check_output_budget("%s of %d by %d summands" % (args.verb, m, n), m * n)
    R = tensor(M, N) if args.verb == "tensor" else internal_hom(M, N)
    _emit(args, {"module": fmt_module(R)}, [fmt_module(R)])
    return 0


def _cmd_functor(args) -> int:
    """dual, li and riflat: a functor applied to a formal object."""
    F = parse_formal(args.expr, default_degree=args.shift)
    if args.verb == "dual":
        G = dualize(F)
    elif args.verb == "li":
        G = li_star(F, args.n)
    else:
        G = ri_flat(F, args.n)
    _emit(args, {"formal": formal_to_json(G)}, [str(G)])
    return 0


def _cmd_gammaz(args) -> int:
    F = parse_formal(args.expr, default_degree=args.shift)
    G = r_gamma_z(F)
    _emit(args, {"gamma": str(G)}, [str(G)])
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


# Most simples in --n-lo..--n-hi, largest ic --orbit U rank, and most
# summands |M|*|N| of a tensor or chom before merging, printed: output grows
# with each, 10^5 simples take over a second, and a tensor of 3,000 by 3,000
# summands once printed 107 MB in 14 s.
OUTPUT_BUDGET = 10000

# Largest --samples of a suite and --window of flag-verify.  A suite sample
# costs 1 to 2 ms and flag-verify grows faster than the square of its
# window; on a 2-vCPU host (Python 3.11), in fresh processes,
# `oracle-suite --samples 10000` took 19.6 s, `axioms --samples 10000`
# 13.8 s and `flag-verify --window 2048` 13.7 s.
SAMPLE_BUDGET = 10000
WINDOW_BUDGET = 2048


def _check_output_budget(what: str, count: int) -> None:
    if count > OUTPUT_BUDGET:
        raise _ArgError("%s is over the output budget OUTPUT_BUDGET = %d"
                        % (what, OUTPUT_BUDGET))


def _cmd_simples(args) -> int:
    _check_output_budget("the --n-lo..--n-hi range",
                         args.n_hi - args.n_lo + 1)
    cfg = SConfig(args.z_mode)
    p = _parse_perversity(args.perversity)
    out = simples(cfg, p, args.n_lo, args.n_hi)
    payload = {lbl: str(S) for lbl, S in out}
    _emit(args, {"simples": payload},
          ["%-8s %s" % (lbl, S) for lbl, S in out])
    return 0


def _cmd_ic(args) -> int:
    if args.orbit == "U":
        _check_output_budget("the --param rank", args.param)
    cfg = SConfig(args.z_mode)
    p = _parse_perversity(args.perversity)
    S = ic(cfg, p, args.orbit, args.param)
    _emit(args, {"ic": formal_to_json(S)}, [str(S)])
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


def _cmd_suite(args) -> int:
    """axioms, tsuite and oracle-suite: a seeded randomized suite."""
    seed = _seed(args)
    if args.verb == "oracle-suite":
        return _suite_exit(args, agreement_suite(seed=seed,
                                                 samples=args.samples))
    suite = axiom_suite if args.verb == "axioms" else tstructure_suite
    return _suite_exit(args, suite(SConfig(args.z_mode), seed=seed,
                                   samples=args.samples))


def _cmd_flag_verify(args) -> int:
    return _suite_exit(args, flag_verify(window=args.window))


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_common(sp, site=False, mode=True, perversity=False, expr=1,
                direction=False, n=None, shift=False, oracle=False,
                suite=False, extra=()):
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
        sp.add_argument("--le", type=_integer, default=None, metavar="W")
        sp.add_argument("--ge", type=_integer, default=None, metavar="W")
    if n is not None:
        sp.add_argument("--n", type=_integer, default=n[1], help=n[0])
    if shift:
        sp.add_argument("--shift", type=_integer, default=0,
                        help="degree for bare module expressions")
    if oracle:
        sp.add_argument("--oracle", action="store_true",
                        help="run the brute-force oracle and diff")
    if suite:
        sp.add_argument("--seed", type=_integer, default=None)
        sp.add_argument("--samples", default=200,
                        type=_count("SAMPLE_BUDGET", SAMPLE_BUDGET))
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--out", default=None, metavar="FILE")
    if expr >= 1:
        sp.add_argument("expr", help="module expression or formal object")
    if expr >= 2:
        sp.add_argument("expr2", help="second module expression")
    for flag, kw in extra:
        sp.add_argument(flag, **kw)


_THICKENING = ("thickening", 1)

# verb -> (handler, options of _add_common), in the order of --help
_VERBS = {
    "decompose": (_cmd_decompose, dict(oracle=True, mode=False)),
    "member": (_cmd_member, dict(site=True, direction=True, oracle=True)),
    "sigma": (_cmd_sigma, dict(site=True, direction=True, oracle=True)),
    "step": (_cmd_step, dict(site=True, oracle=True)),
    "tensor": (_cmd_module_pair, dict(expr=2, mode=False)),
    "chom": (_cmd_module_pair, dict(expr=2, mode=False)),
    "dual": (_cmd_functor, dict(shift=True, mode=False)),
    "li": (_cmd_functor, dict(shift=True, mode=False, n=_THICKENING)),
    "riflat": (_cmd_functor, dict(shift=True, mode=False, n=_THICKENING)),
    "gammaz": (_cmd_gammaz, dict(shift=True, mode=False)),
    "trunc": (_cmd_trunc, dict(perversity=True, shift=True, oracle=True,
                               n=("truncation level", 0))),
    "heart": (_cmd_heart, dict(perversity=True, shift=True)),
    "jh": (_cmd_jh, dict(perversity=True, shift=True)),
    "simples": (_cmd_simples, dict(perversity=True, expr=0, extra=[
        ("--n-lo", dict(type=_integer, default=-5, dest="n_lo")),
        ("--n-hi", dict(type=_integer, default=5, dest="n_hi")),
    ])),
    "ic": (_cmd_ic, dict(perversity=True, expr=0, extra=[
        ("--orbit", dict(required=True, choices=["U", "Z"])),
        ("--param", dict(required=True, type=_integer,
                         help="rank for U, skyscraper weight for Z")),
    ])),
    "geometry": (_cmd_geometry, dict(expr=0)),
    "validate-p": (_cmd_validate_p, dict(perversity=True, expr=0)),
    "axioms": (_cmd_suite, dict(expr=0, suite=True)),
    "tsuite": (_cmd_suite, dict(expr=0, suite=True)),
    "oracle-suite": (_cmd_suite, dict(expr=0, suite=True, mode=False)),
    "flag-verify": (_cmd_flag_verify, dict(expr=0, mode=False, extra=[
        ("--window", dict(type=_count("WINDOW_BUDGET", WINDOW_BUDGET),
                          default=4)),
    ])),
}


@functools.lru_cache(maxsize=None)
def build_parser() -> _Parser:
    ap = _Parser(prog="stagger", description=__doc__)
    sub = ap.add_subparsers(dest="verb", required=True)
    for verb, (fn, opts) in _VERBS.items():
        sp = sub.add_parser(verb)
        _add_common(sp, **opts)
        sp.set_defaults(fn=fn)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (_ArgError, ParseError, ValueError) as e:
        # malformed input; json.JSONDecodeError is a ValueError too
        print("error: %s" % e, file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the flush
        # at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
