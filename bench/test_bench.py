"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import sys

import pytest

import calibrate
import oracle
import run
import verify
import workloads

sys.path.insert(0, str(run.SRC))

# cheap classes of each in-process workload, for the traced runs below
SMALL = {
    "scan": {"full7", "early6", "catalog", "late8", "pastcap13"},
    "hajos": {"rank5", "none5", "chain9"},
    "structure": {"classify16", "stats16", "wu16", "reduce16", "dense16"},
}

EXACT = ("formats.parse.calls", "lattice.basis.calls", "lattice.hnf.calls",
         "obstructions.hajos.calls", "obstructions.bruteforce.calls",
         "obstructions.hajos.orders_tried", "obstructions.hajos.hit_ratio",
         "obstructions.bruteforce.cosets_scanned",
         "obstructions.bruteforce.vertex_bound",
         "obstructions.bruteforce.full_scan_frac", "transforms.reduce.steps",
         "route.det_gate", "route.hajos", "route.bruteforce",
         "route.cap_refused")


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def small_cases(workload, seed):
    return [c for c in workloads.plan(workload, seed)
            if c.label in SMALL[workload]]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    first = workloads.plan(workload, 7)
    again = workloads.plan(workload, 7)
    other = workloads.plan(workload, 8)
    assert [c.argv() for c in first] == [c.argv() for c in again]
    assert [c.truth for c in first] == [c.truth for c in again]
    assert [c.argv() for c in first] != [c.argv() for c in other]


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_exact_counts_repeat(cli, workload):
    cases = small_cases(workload, 3)
    argvs = [c.argv() for c in cases]
    runs = [run.per_layer(workload, 3, cases, argvs, 0)
            for _ in range(2)]
    for attempted, failed, _ in runs:
        assert failed == 0
    first, second = (m for _, _, m in runs)
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}


def answer(cli, case):
    _, code, out = run.in_process(case.argv())
    return code, out


def find(workload, label, seed=3):
    return next(c for c in workloads.plan(workload, seed) if c.label == label)


def test_verifier_accepts_real_answers(cli):
    for workload in SMALL:
        for case in small_cases(workload, 5):
            code, out = answer(cli, case)
            outcome = verify.verify(case, code, out)
            assert outcome.ok, (case.label, outcome.reason)


def test_verifier_flags_wrong_verdict(cli):
    case = find("scan", "full7")
    code, out = answer(cli, case)
    verdict = json.loads(out)
    assert verdict["status"] == "Cubiquitous"
    verdict["status"] = "NotCubiquitous"
    verdict["witness"] = [0] * len(case.rows)
    assert not verify.verify(case, 1, json.dumps(verdict)).ok


def test_verifier_flags_tampered_witness(cli):
    case = find("scan", "catalog")
    code, out = answer(cli, case)
    verdict = json.loads(out)
    witness = verdict["witness"]
    assert witness is not None
    lat = oracle.Lattice(case.rows)
    assert not lat.cube_covered(witness)
    # a base point whose cube does meet the lattice: the origin
    verdict["witness"] = [0] * len(witness)
    assert not verify.verify(case, code, json.dumps(verdict)).ok


def test_verifier_flags_mismatched_exit_code(cli):
    for workload, label in (("scan", "full7"), ("hajos", "rank5"),
                            ("structure", "wu16")):
        case = find(workload, label)
        code, out = answer(cli, case)
        assert verify.verify(case, code, out).ok
        assert not verify.verify(case, 1 - code if code < 2 else 1, out).ok


def test_verifier_flags_tampered_hajos_basis(cli):
    case = find("hajos", "rank6")
    if case.command != "hajos":
        case = workloads.Case("hajos", case.label, case.rows, (), case.truth)
    code, out = answer(cli, case)
    payload = json.loads(out)
    order = payload["row_order"]
    payload["row_order"] = order[1:] + order[:1]
    assert not verify.verify(case, code, json.dumps(payload)).ok


def test_tail_percentile_leaves_ten_inputs_beyond():
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(59) == 80
    assert run.tail_percentile(12) == 50


def test_speed_scale_follows_the_neighbouring_chunks():
    c = calibrate.NOMINAL_S
    # call i sits between chunks i and i + 1 and is set by chunks i-1..i+2
    scales = calibrate.scales([c, c, c, 2 * c, 2 * c, 2 * c, 2 * c])
    assert scales == pytest.approx([1, 1, 2 / 3, 0.5, 0.5, 0.5])
