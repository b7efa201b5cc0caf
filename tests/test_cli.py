"""Command-line interface: documented invocations, exit codes, JSON
output against golden files, and the oracle-diff failure path."""

import argparse
import json
import os
import subprocess
import sys
import time

import pytest

import stagger.cli as cli
from stagger.formats import parse_module
from stagger.grmod import fmt_module, internal_hom, tensor

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
# more digits than int() reads; INT_DIGITS is 0 where it has no limit
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG = "1" * (INT_DIGITS + 700)


def _past_int_limit(id, text, names):
    return pytest.param(text, names, id=id, marks=pytest.mark.skipif(
        not INT_DIGITS, reason="int() has no digit limit here"))


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def golden(name):
    with open(os.path.join(GOLDEN, name)) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# documented examples
# ---------------------------------------------------------------------------


def test_sigma_example(capsys):
    rc, out = run(capsys, "sigma", "--site", "X", "--le", "0", "F(1)")
    assert rc == 0
    assert "sub: F(0)" in out
    assert "quotient: T(1,1)" in out


def test_jh_example(capsys):
    rc, out = run(capsys, "jh", "--perversity", "0,1", "F(1)")
    assert rc == 0
    assert "OX" in out and "SZ(1)" in out


def test_jh_of_length_1001(capsys):
    rc, out = run(capsys, "jh", "--perversity", "0,1", "+".join(["F(0)"] * 1001))
    assert rc == 0
    assert out == "factors: %s\n" % ", ".join(["OX"] * 1001)


def test_axioms_example(capsys):
    rc, _ = run(capsys, "axioms", "--z-mode", "weight", "--seed", "1",
                "--samples", "40")
    assert rc == 0


# ---------------------------------------------------------------------------
# golden JSON outputs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "args,name",
    [
        (("sigma", "--site", "X", "--le", "0", "F(1)", "--json"),
         "sigma_le0_F1.json"),
        (("geometry", "--z-mode", "weight", "--json"),
         "geometry_weight.json"),
        (("trunc", "--perversity", "0,1", "--n", "0", "--json", "[0] F(2)"),
         "trunc_p01_n0_F2.json"),
        (("jh", "--perversity", "0,1", "--json", "F(1)"), "jh_F1.json"),
    ],
)
def test_golden_json(capsys, args, name):
    rc, out = run(capsys, *args)
    assert rc == 0
    assert json.loads(out) == golden(name)


def test_out_writes_file(tmp_path, capsys):
    path = tmp_path / "g.json"
    rc, _ = run(capsys, "geometry", "--json", "--out", str(path))
    assert rc == 0
    assert json.loads(path.read_text()) == golden("geometry_weight.json")


# ---------------------------------------------------------------------------
# assorted verbs
# ---------------------------------------------------------------------------


def test_decompose_expression(capsys):
    rc, out = run(capsys, "decompose", "T(0,2)+F(1)")
    assert rc == 0
    assert out.strip() == "F(1) + T(0,2)"


def test_decompose_presentation_json(capsys):
    pres = json.dumps({
        "generators": [0],
        "relations": [[{"c": "1", "k": 2}]],
    })
    rc, out = run(capsys, "decompose", "--oracle", pres)
    assert rc == 0
    assert out.strip() == "T(0,2)"


def test_member_and_step(capsys):
    rc, out = run(capsys, "member", "--site", "X", "--ge", "0", "F(-2)")
    assert rc == 0 and out.strip() == "true"
    rc, out = run(capsys, "member", "--site", "X", "--ge", "0", "T(-2,1)")
    assert rc == 0 and out.strip() == "false"
    rc, out = run(capsys, "step", "--site", "X", "F(0)")
    assert rc == 0 and out.strip() == "0"


def test_tensor_chom_dual(capsys):
    rc, out = run(capsys, "tensor", "F(1)", "T(0,2)")
    assert rc == 0 and out.strip() == "T(1,2)"
    rc, out = run(capsys, "chom", "F(1)", "T(0,2)")
    assert rc == 0 and out.strip() == "T(-1,2)"
    rc, out = run(capsys, "dual", "[0] T(0,1)")
    assert rc == 0 and "[1] T(1,1)" in out


def test_li_riflat(capsys):
    rc, out = run(capsys, "li", "--n", "1", "[0] F(-1)")
    assert rc == 0 and "T(-1,1)" in out
    rc, out = run(capsys, "riflat", "--n", "1", "[0] F(0)")
    assert rc == 0 and "[1] T(1,1)" in out


def test_simples_window(capsys):
    rc, out = run(capsys, "simples", "--n-lo", "-1", "--n-hi", "1")
    assert rc == 0
    assert "OX" in out and "SZ(-1)" in out and "SZ(1)" in out


def test_validate_p(capsys):
    rc, out = run(capsys, "validate-p", "--perversity", "0,1", "--json")
    assert rc == 0
    js = json.loads(out)
    assert js["strict"] is True


def test_suites_exit_zero(capsys):
    assert run(capsys, "tsuite", "--samples", "30")[0] == 0
    assert run(capsys, "oracle-suite", "--samples", "30")[0] == 0
    assert run(capsys, "flag-verify", "--window", "3")[0] == 0


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("verb, flag", [
    ("axioms", "--samples"), ("tsuite", "--samples"),
    ("oracle-suite", "--samples"), ("flag-verify", "--window"),
])
def test_empty_suite_or_window_exits_one(capsys, verb, flag, value):
    # no samples or no window checks nothing: refused before any work
    rc = cli.main([verb, flag, value])
    out, err = capsys.readouterr()
    assert (rc, out) == (1, "")
    assert err == "error: argument %s: must be a positive integer, got %s\n" \
        % (flag, value)


@pytest.mark.parametrize("verb, flag, budget", [
    ("axioms", "--samples", "SAMPLE_BUDGET"),
    ("tsuite", "--samples", "SAMPLE_BUDGET"),
    ("oracle-suite", "--samples", "SAMPLE_BUDGET"),
    ("flag-verify", "--window", "WINDOW_BUDGET"),
])
def test_oversized_suite_or_window_exits_one_at_once(verb, flag, budget):
    # 10^8 samples would run for days and a window of 10^8 longer still
    # (both were running at a 3 s timeout): refused before any work
    limit = getattr(cli, budget)
    proc, elapsed = _run_cli(verb, flag, "100000000", timeout=10)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: argument %s: 100000000 is over the " \
        "budget %s = %d\n" % (flag, budget, limit)
    assert elapsed < 5
    assert cli.main([verb, flag, str(limit + 1)]) == 1


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------


def test_parse_error_exit_one(capsys):
    rc = cli.main(["decompose", "F(oops)"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:")


def test_unknown_site_exit_one(capsys):
    rc = cli.main(["member", "--site", "Q", "--le", "0", "F(0)"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("site", ["Z" + "1" * 5000, "Z\u00b2"],
                         ids=["digits_5000", "superscript_two"])
def test_unreadable_thickening_is_a_bad_site(capsys, site):
    # int() would refuse these digits with its own message, naming no option;
    # the echo is cut at 40 characters, as the JSON readers cut theirs
    rc = cli.main(["member", "--site", site, "--le", "0", "F(0)"])
    assert rc == 1
    assert capsys.readouterr().err == \
        "error: bad site %.40r (use X, U, Z, or Zn)\n" % site


# one call per integer option, its value 5,000 digits long
DIGITS_5000 = "1" * 5000
INT_OPTION_CALLS = [
    ["member", "--site", "X", "--le", DIGITS_5000, "F(0)"],
    ["member", "--site", "X", "--ge", DIGITS_5000, "F(0)"],
    ["trunc", "--n", DIGITS_5000, "F(0)"],
    ["heart", "--shift", DIGITS_5000, "F(0)"],
    ["axioms", "--seed", DIGITS_5000],
    ["simples", "--n-lo", DIGITS_5000],
    ["simples", "--n-hi", DIGITS_5000],
    ["ic", "--orbit", "Z", "--param", DIGITS_5000],
]


def _option_of(argv):
    return argv[argv.index(DIGITS_5000) - 1]


@pytest.mark.skipif(not 0 < INT_DIGITS < 5000,
                    reason="int() reads 5,000 digits here")
@pytest.mark.parametrize("argv", INT_OPTION_CALLS,
                         ids=[_option_of(a) for a in INT_OPTION_CALLS])
def test_long_integer_option_error_is_one_short_line(capsys, argv):
    # argparse's own error echoed all 5,000 digits of the value
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    assert (rc, out) == (1, "")
    assert err.startswith("error: argument %s: invalid int value: '111"
                          % _option_of(argv))
    assert err.count("\n") == 1 and len(err.rstrip("\n")) <= 200


def test_every_integer_option_has_a_long_value_call():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {a.option_strings[0] for sp in sub.choices.values()
             for a in sp._actions if a.type in (int, cli._integer)}
    assert flags == {_option_of(a) for a in INT_OPTION_CALLS}


def test_short_bad_site_is_echoed_whole(capsys):
    rc = cli.main(["member", "--site", "Z0", "--le", "0", "F(0)"])
    assert rc == 1
    assert capsys.readouterr().err == \
        "error: bad site 'Z0' (use X, U, Z, or Zn)\n"


@pytest.mark.parametrize("expr", ["F(0)", "T(0,1%s)" % ("0" * 4000)],
                         ids=["free", "long_torsion"])
def test_long_thickening_error_is_one_short_line(expr):
    # the error once echoed the whole 4,000-digit thickening
    site = "Z" + "9" * 4000
    proc, _elapsed = _run_cli("member", "--site", site, "--le", "0", expr)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert len(proc.stderr.rstrip("\n")) <= 200
    assert "<4000 digits>" in proc.stderr


def test_both_directions_exit_one(capsys):
    rc = cli.main(["member", "--site", "X", "--le", "0", "--ge", "0", "F(0)"])
    assert rc == 1


def test_oracle_over_weight_budget_exits_one_fast(capsys):
    # the oracle would read probes across some 200 weights; the budget
    # refuses the input before any work is done
    member = ["member", "--site", "X", "--le", "0"]
    t0 = time.perf_counter()
    rc = cli.main(member + ["--oracle", "F(200)+T(0,2)"])
    elapsed = time.perf_counter() - t0
    err = capsys.readouterr().err
    assert rc == 1 and elapsed < 2
    assert err.startswith("error:") and "weight span 201" in err
    assert "ORACLE_WEIGHT_BUDGET = %d" % cli.ORACLE_WEIGHT_BUDGET in err
    # without --oracle it is answered, and a span at the budget is checked
    assert run(capsys, *member, "F(200)+T(0,2)") == (0, "false\n")
    at_budget = "F(%d)+T(0,2)" % (cli.ORACLE_WEIGHT_BUDGET - 1)
    assert run(capsys, *member, "--oracle", at_budget) == (0, "false\n")


@pytest.mark.parametrize("argv", [
    ("sigma", "--site", "X", "--le", "-100000000", "T(0,1)"),
    ("sigma", "--site", "Z1", "--le", "-100000000", "T(0,1)"),
    ("member", "--site", "X", "--le", "-100000000", "F(0)"),
    ("member", "--site", "X", "--le", "0", "T(100000000,1)"),
    ("sigma", "--site", "X", "--le", "0", "T(100000000,1)"),
    ("step", "--site", "X", "T(100000000,1)"),
    ("step", "--site", "Z1", "T(100000000,1)"),
], ids=["sigma_X_far_level", "sigma_Z1_far_level", "member_far_level",
        "member_far_module", "sigma_far_module", "step_X_far_module",
        "step_Z1_far_module"])
def test_oracle_window_past_the_budget_exits_one_at_once(argv):
    # the subject spans one weight, but the oracle's window also reaches
    # the level (member, sigma) or weight 0 (step): 10^8 weights, which
    # were still being walked at a 10 s timeout
    proc, elapsed = _run_cli(*argv, "--oracle", timeout=10)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: --oracle window has weight span " \
        "100000000, over the oracle budget ORACLE_WEIGHT_BUDGET = %d\n" \
        % cli.ORACLE_WEIGHT_BUDGET
    assert elapsed < 5


def _mixed(n_free, n_torsion):
    """n_free free and n_torsion torsion summands in weights 0..5."""
    return "+".join(["F(%d)" % (k % 6) for k in range(n_free)]
                    + ["T(%d,1)" % (k % 6) for k in range(n_torsion)])


@pytest.mark.parametrize("argv", [
    ("decompose",), ("step", "--site", "X"),
    ("trunc", "--perversity=0,1", "--n=0"),
], ids=["decompose", "step", "trunc"])
def test_oracle_over_size_budget_exits_one_at_once(argv):
    # 400 free plus 400 torsion summands span 5 weights, but the oracles
    # rank relation blocks of 1,200 generators plus relations: each verb
    # ran for more than 12 s
    proc, elapsed = _run_cli(*argv, "--oracle", _mixed(400, 400), timeout=10)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: --oracle subject has 1200 generators " \
        "plus relations, over the oracle budget ORACLE_SIZE_BUDGET = %d\n" \
        % cli.ORACLE_SIZE_BUDGET
    assert elapsed < 5


def test_oracle_at_size_budget_is_checked(capsys):
    budget = cli.ORACLE_SIZE_BUDGET
    at_budget = _mixed(budget % 2, budget // 2)
    step = ("step", "--site", "X")
    assert run(capsys, *step, "--oracle", at_budget) \
        == run(capsys, *step, at_budget) == (0, "None\n")
    over = _mixed(budget % 2 + 1, budget // 2)
    assert cli.main([*step, "--oracle", over]) == 1
    assert "ORACLE_SIZE_BUDGET" in capsys.readouterr().err
    # a JSON presentation counts its generators and relation columns: here
    # x on each of budget / 2 generators, then one more generator
    n = budget // 2
    rows = [[{"c": "1", "k": 1} if i == j else None for j in range(n)]
            for i in range(n)]
    pres = {"generators": [0] * n, "relations": rows}
    assert run(capsys, "decompose", "--oracle", json.dumps(pres)) \
        == (0, " + ".join(["T(0,1)"] * n) + "\n")
    pres = {"generators": [0] * (n + 1), "relations": rows + [[None] * n]}
    assert cli.main(["decompose", "--oracle", json.dumps(pres)]) == 1


@pytest.mark.parametrize("verb", ["tensor", "chom"])
def test_module_pair_over_output_budget_exits_one_at_once(verb):
    # 3,000 by 3,000 summands: 9*10^6 before merging; tensor printed 107 MB
    # in 14 s, and 12,000 by 12,000 ended in a MemoryError
    expr = "+".join(["F(0)", "T(1,2)", "F(-1)"] * 1000)
    proc, elapsed = _run_cli(verb, expr, expr, timeout=10)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: %s of 3000 by 3000 summands is over the " \
        "output budget OUTPUT_BUDGET = %d\n" % (verb, cli.OUTPUT_BUDGET)
    assert elapsed < 5


def test_module_pair_at_output_budget_is_answered(capsys):
    side = "+".join(["F(0)", "T(1,2)"] * 50)  # 100 by 100 summands
    assert cli.OUTPUT_BUDGET == 100 * 100
    M = parse_module(side)
    for verb, op in (("tensor", tensor), ("chom", internal_hom)):
        assert run(capsys, verb, side, side) == (0, fmt_module(op(M, M)) + "\n")


def test_bad_json_presentation_exit_one(capsys):
    rc = cli.main(["decompose", '{"generators": [0], "relations": [[null]]}'])
    assert rc == 1


@pytest.mark.parametrize("text, names", [
    ('{"relations": [[{"c": "1", "k": 2}]]}', "'generators'"),
    ('{"generators": [0], "relations": [[{"k": 2}]]}', "'c'"),
    ('{"generators": [0], "relations": [[{"c": "1"}]]}', "'k'"),
    ('{"generators": [0], "relations": [[5]]}', "entry (0,0)"),
    ('{"generators": [0], "relations": [[{"c": "1/0", "k": 2}]]}', '"c"'),
    ('{"generators": [0], "relations": [[{"c": 0.5, "k": 2}]]}', '"c"'),
    ('{"generators": [0], "relations": [[{"c": "1", "k": 1.5}]]}', '"k"'),
    ('{"generators": [0.5]}', "generators[0]"),
    ('{"generators": ["1"]}', "generators[0]"),
    ('{"generators": 3}', "generators"),
    ('{"generators": [0], "relations": [5]}', "relations"),
    # integers past sys.get_int_max_str_digits(), which int() refuses with
    # a message that names no field
    _past_int_limit(
        "long_c",
        '{"generators": [0], "relations": [[{"c": %s, "k": 2}]]}' % LONG,
        'entry (0,0): "c" must be a rational string'),
    _past_int_limit(
        "long_c_string",
        '{"generators": [0], "relations": [[{"c": "%s", "k": 2}]]}' % LONG,
        'entry (0,0): "c" must be a rational string'),
    _past_int_limit(
        "long_k",
        '{"generators": [0], "relations": [[{"c": 1, "k": %s}]]}' % LONG,
        'entry (0,0): "k" must be an integer'),
    _past_int_limit("long_generator", '{"generators": [%s]}' % LONG,
                    "generators[0] must be an integer"),
])
def test_malformed_json_presentation_exit_one(capsys, text, names):
    # every malformed field is a one-line input error, never a traceback
    rc = cli.main(["decompose", text])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and names in err
    assert "Traceback" not in err and err.count("\n") == 1


def _child_env():
    """The environment with the directory this ``stagger`` was imported
    from first on PYTHONPATH (the caller may have put it on ``sys.path``
    some other way)."""
    pkg_dir = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [pkg_dir] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def _run_cli(*argv, timeout=20):
    """``python -m stagger.cli *argv`` in a fresh process (``_child_env``);
    returns the finished process and its wall time."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "stagger.cli", *argv],
                          capture_output=True, text=True, timeout=timeout,
                          env=_child_env())
    return proc, time.perf_counter() - t0


@pytest.mark.parametrize("oracle", [[], ["--oracle"]], ids=["fast", "oracle"])
def test_exponent_coefficient_exits_one_at_once(oracle):
    # Fraction("1e100000000") would expand the exponent digit by digit
    text = '{"generators": [0], "relations": [[{"c": "1e100000000", "k": 2}]]}'
    proc, elapsed = _run_cli("decompose", *oracle, text)
    assert proc.returncode == 1 and elapsed < 5
    assert proc.stderr.startswith("error:")
    assert '"c" must be a rational string' in proc.stderr


def test_oracle_diff_exits_two_with_minimized(capsys, monkeypatch):
    # wound the fast path: claim every module with a weight >= 2 free
    # generator fails the membership test
    real = cli.member

    def broken(site, cfg, direction, w, M):
        if any(d >= 2 for d in M.free):
            return not real(site, cfg, direction, w, M)
        return real(site, cfg, direction, w, M)

    monkeypatch.setattr(cli, "member", broken)
    rc = cli.main(["member", "--site", "X", "--le", "5",
                   "F(2)+F(4)+T(0,2)", "--oracle"])
    out = capsys.readouterr().out
    assert rc == 2
    js = json.loads(out)
    assert js["oracle_diff"] == "member"
    # the witness is pared down to a single offending generator
    assert js["minimized"] in ("F(2)", "F(4)")


def test_oracle_diff_minimizes_through_the_suite_shrinker(capsys,
                                                         monkeypatch):
    # the --oracle diff is shrunk by the agreement suite's one
    # compare-and-shrink, oracle._disagreement, called once and only on a
    # disagreement; the fault flips membership wherever torsion is present
    real_member, real_disagreement = cli.member, cli._disagreement
    calls = []

    def broken(site, cfg, direction, w, M):
        return real_member(site, cfg, direction, w, M) != bool(M.torsion)

    def counted(*args):
        calls.append(real_disagreement(*args))
        return calls[-1]

    monkeypatch.setattr(cli, "_disagreement", counted)
    assert cli.main(["member", "--site", "X", "--le", "5", "F(2)+T(0,2)",
                     "--oracle"]) == 0
    assert calls == []
    capsys.readouterr()
    monkeypatch.setattr(cli, "member", broken)
    rc = cli.main(["member", "--site", "X", "--le", "5",
                   "F(2)+T(0,2)+T(3,1)", "--oracle"])
    js = json.loads(capsys.readouterr().out)
    assert rc == 2 and js["oracle_diff"] == "member"
    assert len(calls) == 1 and [fmt_module(m) for m in calls[0]] == ["T(3,1)"]
    assert js["minimized"] == "T(3,1)"


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("STAGGER_SEED", "3")
    rc, _ = run(capsys, "axioms", "--samples", "20")
    assert rc == 0


def test_entry_point_subprocess():
    proc, _elapsed = _run_cli("decompose", "F(0)")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "F(0)"


def test_closed_stdout_exits_one_without_traceback():
    # the reader leaves after one line, and the rest of the 270 KB of
    # output overflows the pipe
    proc = subprocess.Popen([sys.executable, "-m", "stagger.cli", "simples",
                             "--n-lo=-4999", "--n-hi=5000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_child_env())
    try:
        assert proc.stdout.readline().startswith(b"OX")
        proc.stdout.close()
        rc = proc.wait(timeout=20)
    finally:
        proc.kill()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert "Traceback" not in err and "Error" not in err
    assert rc == 1


@pytest.mark.parametrize("argv, what", [
    (("simples", "--n-lo", "0", "--n-hi", "100000000"),
     "the --n-lo..--n-hi range"),
    (("ic", "--orbit", "U", "--param", "30000000"), "the --param rank"),
], ids=["simples_range", "ic_rank"])
def test_output_over_budget_exits_one_at_once(argv, what):
    # output that grows with the range or rank is refused before any
    # object is built (ic --param 30000000 once took half a minute)
    proc, elapsed = _run_cli(*argv, timeout=10)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: %s is over the output budget " \
        "OUTPUT_BUDGET = %d\n" % (what, cli.OUTPUT_BUDGET)
    assert elapsed < 5


def test_output_at_budget_is_answered(capsys):
    rc, out = run(capsys, "ic", "--orbit", "U", "--param",
                  str(cli.OUTPUT_BUDGET))
    assert rc == 0 and out.count("F(0)") == cli.OUTPUT_BUDGET
    hi = str(cli.OUTPUT_BUDGET - 1)
    rc, out = run(capsys, "simples", "--n-lo", "0", "--n-hi", hi)
    assert rc == 0 and out.count("SZ(") == cli.OUTPUT_BUDGET


@pytest.mark.parametrize("argv, out", [
    # free_embed once walked every degree between the extremes
    (("trunc", "--perversity=0,1", "--n=0",
      "[-100000000] T(0,1); [100000000] T(0,1)"),
     "below: [-100000000] T(0,1)\nabove: [100000000] T(0,1)\n"),
    # the homology certificate once tabulated every weight in between
    (("trunc", "--perversity=0,1", "--n=0", "T(10000000,1)+T(-10000000,1)"),
     "below: [0] T(-10000000,1)\nabove: [0] T(10000000,1)\n"),
    (("jh", "--z-mode", "weight", "--perversity=0,1",
      "[-100000000] T(100000001,1); [100000000] T(-99999999,1)"),
     "factors: SZ(-99999999), SZ(100000001)\n"),
    # the sigma witness check once compared weight dims at every weight
    (("sigma", "--site", "X", "--le", "0", "T(0,100000000)"),
     "sub: T(0,100000000)\nquotient: 0\n"),
    (("sigma", "--site", "X", "--le", "0", "F(-100000000)+F(100000000)"),
     "sub: F(-100000000) + F(0)\nquotient: T(100000000,100000000)\n"),
], ids=["trunc_degrees", "trunc_weights", "jh_both", "sigma_length",
        "sigma_weights"])
def test_hostile_span_is_answered_at_once(argv, out):
    # the chain layer and the weight-dim checks visit only occupied degrees
    # and summand ends, so a span of 10^8 costs nothing
    proc, elapsed = _run_cli(*argv, timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")
    assert elapsed < 5

