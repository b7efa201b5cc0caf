"""Tests of the benchmark's own machinery (not of stagger).

Run from the repository root:  python3 -m pytest -q perfbench
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import random  # noqa: E402

import pytest  # noqa: E402

import tracer  # noqa: E402
import workloads as W  # noqa: E402
from stagger import grmod, oracle, sstruct, stag  # noqa: E402


@pytest.mark.parametrize("n", [2, 5, 10, 20])
@pytest.mark.parametrize("seed", range(4))
def test_scrambler_presents_the_known_module(n, seed):
    M, rel, uinv = W.scrambled_presentation(random.Random(seed), n)
    p = grmod.Presentation(rel.row_weights, rel)
    assert oracle.oracle_decompose(p) == M
    assert grmod.GradedMap(p, grmod.present(M), uinv).is_well_defined()


def test_scrambler_makes_dense_matrices():
    M, rel, _uinv = W.scrambled_presentation(random.Random(1), 40)
    allowed = sum(1 for g in rel.row_weights for v in rel.col_weights
                  if g >= v)
    assert len(rel.entries) >= 0.5 * allowed > len(M.torsion)


def _fingerprint(item):
    def canon(v):
        if isinstance(v, grmod.Presentation):
            v = v.rel
        if isinstance(v, grmod.GradedMap):
            v = v.mat
        if isinstance(v, grmod.MonoMatrix):
            return (v.row_weights, v.col_weights, sorted(v.entries.items()))
        return repr(v)
    return item.sizes, {k: canon(v) for k, v in item.data.items()}


@pytest.mark.parametrize("name", sorted(W.MAKERS))
def test_same_seed_same_inputs(name):
    make = W.MAKERS[name]
    assert _fingerprint(make(7, 3)) == _fingerprint(make(7, 3))
    assert _fingerprint(make(7, 3)) != _fingerprint(make(8, 3))


@pytest.mark.parametrize("name", sorted(W.MAKERS))
def test_items_pass_their_checks(name):
    t = W.Tally()
    for i in range(3 if name == "certify-wide" else 11):
        t.run(W.MAKERS[name](2, i))
    assert (t.failed, t.first_errors) == (0, [])
    if name == "envelope":
        assert t.checks["cli"] == [3, 0]


@pytest.mark.parametrize("length", [1, 7, 20, 33])
def test_heart_objects_have_the_requested_length(length):
    cfg = sstruct.SConfig("weight")
    for p in stag._blessed_perversities(cfg):
        H = W.heart_object(random.Random(length), p, length)
        assert stag.jh_factors(cfg, p, H).length == length


def test_wrong_expected_answer_counts_as_failure():
    item = W.make_elim_scale(1, 0)
    item.data["module"] = grmod.direct_sum(item.data["module"], grmod.F(0))
    t = W.Tally()
    assert not t.run(item)
    assert (t.attempted, t.failed) == (1, 1)
    assert t.checks["known_answer"] == [1, 1]


def test_exception_counts_as_failure_not_raised():
    item = W.make_envelope(1, 1)
    item.data["p"] = stag.Perversity(3, 0)   # not a valid perversity
    t = W.Tally()
    assert not t.run(item)
    assert t.checks["raised"] == [1, 1]
    assert t.first_errors and "ValueError" in t.first_errors[0]


def test_wrong_cli_output_counts_as_failure(monkeypatch):
    item = W.make_envelope(1, 15)
    assert item.data["cli"]
    monkeypatch.setattr(W, "_cli", lambda argv: (0, "not the answer\n"))
    t = W.Tally()
    assert not t.run(item)
    assert t.checks["cli"] == [1, 1]


def test_tracer_counts_and_restores():
    originals = {name: tracer._resolve(name) for name in tracer.NAMES}
    stag_alias = stag.aisle_member
    tr = tracer.Tracer()
    tr.install()
    try:
        assert stag.aisle_member is not stag_alias
        t = W.Tally()
        t.run(W.make_envelope(3, 5))
        t.run(W.make_elim_scale(3, 1))
    finally:
        problems = tr.restore()
    assert problems == []
    assert {n: tracer._resolve(n) for n in tracer.NAMES} == originals
    assert stag.aisle_member is stag_alias
    summ = tr.summary()
    assert set(summ) == set(tracer.NAMES)
    for name in ("stag.aisle_member", "stag.TriangleDecomp.audit",
                 "derived.normal_form", "grmod.free_kernel",
                 "sstruct.SigmaWitness.verify", "cli.main",
                 "stag.geometry_report"):
        assert summ[name]["calls"] > 0, name
    assert sum(s["self_s"] for s in summ.values()) <= \
        sum(t1 - t0 for idx, t0, t1, parent in tr.spans if parent < 0) + 1e-9
    assert 0 < tr.repeat_share("stag.geometry_report") < 1


def test_self_time_excludes_children():
    tr = tracer.Tracer()
    tr.spans.extend([(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (1, 5.0, 6.0, 0),
                     (2, 2.0, 3.0, 1)])
    summ = tr.summary()
    a, b, c = tracer.NAMES[:3]
    assert summ[a] == {"calls": 1, "self_s": 6.0}
    assert summ[b] == {"calls": 2, "self_s": 3.0}
    assert summ[c] == {"calls": 1, "self_s": 1.0}
