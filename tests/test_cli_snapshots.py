"""Byte-exact snapshots of the command line.

Every verb is run on fixed inputs, once as text and once with ``--json``,
and its stdout is compared with a stored snapshot in ``golden/cli``.  The
README's command-line examples are replayed the same way, and the
``--oracle`` diff path is exercised for every verb that has one by
wounding the fast path it compares against.
"""

import json
import os
import re
import shlex

import pytest

import stagger.cli as cli
from stagger.derived import FormalObject
from stagger.sstruct import SigmaWitness
from stagger.stag import TriangleDecomp

HERE = os.path.dirname(__file__)
SNAPSHOTS = os.path.join(HERE, "golden", "cli")
README = os.path.join(HERE, os.pardir, "README.md")

# (snapshot name, argv); each case runs as text and again with --json
CASES = [
    ("decompose", ["decompose", "T(0,2)+F(1)+T(3,1)"]),
    ("decompose_oracle", ["decompose", "--oracle", "F(2)+T(1,3)+V(0)"]),
    ("decompose_presentation",
     ["decompose", '{"generators": [0, 1], "relations": '
                   '[[{"c": "1", "k": 2}], [null]]}']),
    ("member_X_ge", ["member", "--site", "X", "--ge", "0", "F(-2)+T(1,2)"]),
    ("member_Z2_oracle",
     ["member", "--site", "Z2", "--le", "1", "--oracle", "T(1,2)+V(0)"]),
    ("member_trivial",
     ["member", "--z-mode", "trivial", "--le", "-1", "F(0)"]),
    ("sigma_X_le_oracle",
     ["sigma", "--site", "X", "--le", "0", "--oracle", "F(1)+F(-1)+T(2,3)"]),
    ("sigma_X_ge", ["sigma", "--site", "X", "--ge", "1", "F(3)+T(0,2)"]),
    ("sigma_Z3_oracle",
     ["sigma", "--site", "Z3", "--le", "-1", "--oracle", "T(1,3)+T(-2,1)"]),
    ("sigma_trivial",
     ["sigma", "--z-mode", "trivial", "--le", "-1", "F(2)+T(0,1)"]),
    ("step_oracle", ["step", "--site", "X", "--oracle", "F(0)+T(0,1)"]),
    ("step_impure", ["step", "--site", "Z2", "T(2,2)+T(0,1)"]),
    ("tensor", ["tensor", "F(1)+T(0,2)", "T(1,3)"]),
    ("chom", ["chom", "F(1)+T(0,2)", "T(1,3)+F(0)"]),
    ("dual", ["dual", "[0] T(0,1); [1] F(2)"]),
    ("dual_shift", ["dual", "--shift", "1", "F(1)+T(2,2)"]),
    ("li", ["li", "--n", "2", "[0] F(-1)+T(1,3)"]),
    ("riflat", ["riflat", "--n", "2", "[0] F(0)+T(2,3)"]),
    ("gammaz", ["gammaz", "[0] F(1)+T(0,2); [1] F(-1)"]),
    ("trunc_oracle",
     ["trunc", "--perversity", "0,1", "--n", "0", "--oracle",
      "[0] F(2)+T(3,2); [1] F(-1)"]),
    ("trunc_trivial",
     ["trunc", "--z-mode", "trivial", "--perversity", "0,0", "--n", "1",
      "[0] F(2); [2] T(0,1)+F(1)"]),
    ("heart", ["heart", "--perversity", "0,1", "[0] F(1); [1] T(0,1)"]),
    ("heart_not", ["heart", "--perversity", "0,1", "F(3)"]),
    ("jh", ["jh", "--perversity", "0,1", "[0] F(1)+F(-1); [1] T(0,1)"]),
    ("simples", ["simples", "--n-lo", "-1", "--n-hi", "1"]),
    ("ic_U", ["ic", "--orbit", "U", "--param", "2"]),
    ("ic_Z", ["ic", "--orbit", "Z", "--param", "3", "--perversity=-1,0"]),
    ("geometry", ["geometry", "--z-mode", "trivial"]),
    ("validate_p", ["validate-p", "--z-mode", "trivial",
                    "--perversity", "1,2"]),
    ("axioms", ["axioms", "--seed", "2", "--samples", "20"]),
    ("tsuite", ["tsuite", "--z-mode", "trivial", "--samples", "20"]),
    ("oracle_suite", ["oracle-suite", "--seed", "3", "--samples", "20"]),
    ("flag_verify", ["flag-verify", "--window", "2"]),
]

VERBS = {argv[0] for _name, argv in CASES}


def run(capsys, argv):
    rc = cli.main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def snapshot(name):
    with open(os.path.join(SNAPSHOTS, name + ".txt")) as fh:
        return fh.read()


def test_cases_cover_every_verb():
    sub = cli.build_parser()._subparsers._group_actions[0]
    assert VERBS == set(sub.choices)
    assert len(VERBS) == 21


@pytest.mark.parametrize("json_flag", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_cli_snapshot(capsys, name, argv, json_flag):
    if json_flag:
        argv, name = argv + ["--json"], name + ".json"
    rc, out, err = run(capsys, argv)
    assert (rc, err) == (0, "")
    assert out == snapshot(name)


# ---------------------------------------------------------------------------
# README examples
# ---------------------------------------------------------------------------


def readme_examples():
    """(command, expected stdout) for each ``$ stagger`` line of the
    README's "Command line" section; a trailing ``# ...`` comment is
    dropped."""
    with open(README) as fh:
        text = fh.read()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("```", 2)[1]
    out = []
    for chunk in re.split(r"\n(?=\$ )", block.strip("\n")):
        first, _, rest = chunk.partition("\n")
        cmd = first[len("$ stagger "):].split("  #", 1)[0]
        out.append((cmd, rest.strip("\n")))
    return out


def test_readme_examples_found():
    assert len(readme_examples()) == 7


@pytest.mark.parametrize("cmd,want", readme_examples(),
                         ids=[c for c, _w in readme_examples()])
def test_readme_example(capsys, cmd, want):
    rc, out, _err = run(capsys, shlex.split(cmd))
    assert rc == 0
    if want:  # the suite example shows no output, only its exit code
        assert out == want + "\n"


# ---------------------------------------------------------------------------
# oracle-diff path under fault injection
# ---------------------------------------------------------------------------


def _diff(capsys, argv):
    rc, out, _err = run(capsys, argv)
    assert rc == 2
    return json.loads(out)


def test_oracle_diff_sigma(capsys, monkeypatch):
    # drop the torsion part of the sub when a T(3, .) summand is present,
    # with the witness audit switched off so only the oracle can notice
    real = cli.sigma

    def broken(site, cfg, direction, w, M):
        wit = real(site, cfg, direction, w, M)
        if any(g == 3 for g, _n in M.torsion):
            wit.sub = wit.sub.free_part()
        return wit

    monkeypatch.setattr(cli, "sigma", broken)
    monkeypatch.setattr(SigmaWitness, "verify", lambda self: [])
    js = _diff(capsys, ["sigma", "--site", "X", "--le", "5", "--oracle",
                        "F(1)+T(3,2)+T(0,1)+F(7)"])
    assert js["oracle_diff"] == "sigma"
    assert js["fast"] == "F(1) + F(5)"
    assert js["minimized"] == "T(3,1)"


def test_oracle_diff_step(capsys, monkeypatch):
    # flip purity whenever a free summand sits in weight 2
    real = cli.step

    def broken(site, cfg, M):
        val = real(site, cfg, M)
        if 2 in M.free:
            return None if val is not None else 2
        return val

    monkeypatch.setattr(cli, "step", broken)
    js = _diff(capsys, ["step", "--site", "X", "--oracle",
                        "F(2)+F(2)+T(2,1)"])
    assert js["oracle_diff"] == "step"
    assert js["minimized"] == "F(2)"


def test_oracle_diff_decompose(capsys, monkeypatch):
    # forget every torsion summand
    real = cli.canonical_decompose
    monkeypatch.setattr(cli, "canonical_decompose",
                        lambda p: real(p).free_part())
    expr = "T(0,2)+F(1)"
    js = _diff(capsys, ["decompose", "--oracle", expr])
    assert js["oracle_diff"] == "decompose"
    assert (js["fast"], js["oracle"]) == ("F(1)", "F(1) + T(0,2)")
    # decompose does not shrink: the input is echoed back
    assert js["minimized"] == expr


def test_oracle_diff_trunc(capsys, monkeypatch):
    # put the whole object below the cut, with the triangle audit switched
    # off: the below-part then leaves the aisle and the oracle refuses it
    real = cli.stag_truncate

    def broken(cfg, p, Fo, n):
        tr = real(cfg, p, Fo, n)
        tr.below, tr.above = Fo, FormalObject({})
        return tr

    monkeypatch.setattr(cli, "stag_truncate", broken)
    monkeypatch.setattr(TriangleDecomp, "audit", lambda self: [])
    expr = "[0] F(2)"
    js = _diff(capsys, ["trunc", "--perversity", "0,1", "--n", "0",
                        "--oracle", expr])
    assert js["oracle_diff"] == "trunc"
    assert js["fast"] == "[0] F(2)"
    assert js["oracle"] == "aisle membership refused"
    # trunc does not shrink: the input is echoed back
    assert js["minimized"] == expr
