"""Command-line interface: documented invocations, exit codes, JSON
output against golden files, and the oracle-diff failure path."""

import json
import os
import subprocess
import sys
import time

import pytest

import stagger.cli as cli

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
    # int() would refuse these digits with its own message, naming no option
    rc = cli.main(["member", "--site", site, "--le", "0", "F(0)"])
    assert rc == 1
    assert capsys.readouterr().err == \
        "error: bad site %r (use X, U, Z, or Zn)\n" % site


def test_both_directions_exit_one(capsys):
    rc = cli.main(["member", "--site", "X", "--le", "0", "--ge", "0", "F(0)"])
    assert rc == 1


def test_oracle_over_weight_budget_exits_one_fast(capsys):
    # the oracle would materialize this module at each of some 200
    # weights, seconds of work; the budget refuses it before any is done
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


def _run_cli(*argv, timeout=20):
    """``python -m stagger.cli *argv`` in a fresh process, with the
    directory this ``stagger`` was imported from first on the child's
    PYTHONPATH (the caller may have put it on ``sys.path`` some other
    way); returns the finished process and its wall time."""
    pkg_dir = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [pkg_dir] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "stagger.cli", *argv],
                          capture_output=True, text=True, timeout=timeout,
                          env=env)
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


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("STAGGER_SEED", "3")
    rc, _ = run(capsys, "axioms", "--samples", "20")
    assert rc == 0


def test_entry_point_subprocess():
    proc, _elapsed = _run_cli("decompose", "F(0)")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "F(0)"


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

