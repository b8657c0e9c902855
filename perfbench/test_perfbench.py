"""Quick test of the benchmark itself (a few seconds per workload).

    python3 -m pytest -q perfbench/test_perfbench.py

Runs every workload on a tiny slice of its inputs, traced and untraced,
checks that the printed metrics are the ones BENCHMARK.json names, with their
units, and that the oracle rejects deliberately corrupted answers.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

assert run.use_checkout(), "run from a rotorlift checkout"

import bench  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from rotorlift import Multivector, Signature, classify_component, forward_matrix, random_versor  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(workload: str):
    """First well-conditioned, recoverable case of each kind in the first round."""
    cases = {}
    for case in workloads.build(workload, seed=5).rounds[0]:
        if (oracle.entry_peak(case.ref) <= workloads.BANDS["mild"][1]
                and oracle.central_share(case.ref) >= oracle.MUST_RECOVER):
            cases.setdefault(case.kind, case)
    return workloads.Workload([list(cases.values())], [])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload):
    result = bench.measure(workload, seed=5, seconds=1e-9, trace=False,
                           work=tiny(workload), setup_samples=1)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    report = "\n".join(bench.report_lines(result))
    for name, unit in dict(expected, **bench.CORRECTNESS_UNITS).items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in report.splitlines()), name
    assert result["correct"] and result["attempted"] >= 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run_writes_spans_and_layer_metrics(workload):
    result = bench.measure(workload, seed=5, seconds=1e-9, trace=True,
                           work=tiny(workload), setup_samples=1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    doc = json.loads(Path(result["trace_file"]).read_text())
    ids = {span["id"] for span in doc["spans"]}
    roots = [span for span in doc["spans"] if span["parent"] == 0]
    assert roots and all(span["id"] == span["op"] for span in roots)
    assert all(span["parent"] in ids for span in doc["spans"] if span["parent"])
    names = {span["name"] for span in doc["spans"]}
    assert {"recovery.forward_matrix" if workload == "forward-large" else "recovery.recover_spin",
            "recovery.twisted_adjoint_residual", "recovery.classify_spin"} <= names


def test_lift_small_times_no_failing_input_and_probes_the_known_defects():
    work = workloads.build("lift-small", seed=5)
    stats = bench.run_rounds(work.rounds, 1e-9, bench.REFERENCES["lift-small"])
    assert stats.failed == 0, bench.outcome_names(stats.outcomes)
    probe = bench.tally(bench.run_probe(
        [case for case in work.probe if case.label == "Cl(1,3) boost 12" and case.kind == "recover"]))
    assert probe[(oracle.FAILED, "NotPseudoOrthogonal")] >= 2


def test_oracle_accepts_the_true_answer_and_fails_a_flipped_blade():
    ref = oracle.random_versor(np.random.default_rng(3), 2, 2, 2)
    case = workloads._matrix_case("recover", ref, "Cl(2,2) k=2")
    text, _ = workloads.op_recover(case, bench.NULL_TRACER)
    assert oracle.check_rotor_result("recover", case.ref, text).status == oracle.CORRECT
    doc = json.loads(text)
    coefficients = doc["S"]["coefficients"]
    label = sorted(coefficients, key=lambda k: abs(coefficients[k]))[-2]
    coefficients[label] = -coefficients[label]
    outcome = oracle.check_rotor_result("recover", case.ref, json.dumps(doc))
    assert (outcome.status, outcome.label) == (oracle.FAILED, "WrongResult")


def test_oracle_fails_a_corrupted_forward_matrix():
    ref = oracle.random_versor(np.random.default_rng(4), 3, 2, 3)
    case = workloads._matrix_case("forward", ref, "Cl(3,2) k=3")
    text, _ = workloads.op_forward(case, bench.NULL_TRACER)
    assert oracle.check_forward_result(ref, text).status == oracle.CORRECT
    doc = json.loads(text)
    doc["matrix"]["entries"][0][0] *= -1.0
    assert oracle.check_forward_result(ref, json.dumps(doc)).status == oracle.FAILED


def test_oracle_fails_an_answer_to_an_input_outside_the_domain():
    # A half turn has no central part; only the documented rejection is correct.
    ref = oracle.boost_rotation(1, 3, 2.0, np.pi)
    assert oracle.central_share(ref) < oracle.MUST_REJECT
    doc = {"S": {"signature": {"p": 1, "q": 3}, "coefficients": {"34": 1.0}},
           "alpha": 1, "residual": 0.0, "groups": ["Pin", "Pin+", "Pin-", "Spin", "Spin+"]}
    outcome = oracle.check_rotor_result("recover", ref, json.dumps(doc))
    assert (outcome.status, outcome.label) == (oracle.FAILED, "AcceptedInvalid")


@pytest.mark.parametrize("p,q", [(2, 0), (1, 3), (3, 2), (2, 4), (0, 3)])
def test_oracle_agrees_with_the_library_on_easy_inputs(p, q):
    # Not used by the benchmark: keeps the oracle's conventions honest.
    sig = Signature(p, q)
    for k in range(5):
        ref = oracle.random_versor(np.random.default_rng(k), p, q, k)
        spin = random_versor(sig, k, seed=np.random.default_rng(k))
        assert np.max(np.abs(spin.coeffs - ref.spin)) < 1e-12
        matrix = forward_matrix(spin)
        assert np.max(np.abs(matrix.entries - ref.entries)) < 1e-9 * max(1.0, oracle.entry_peak(ref))
        component = classify_component(matrix)
        expected = oracle.components(ref)
        assert (component.det_sign, component.top_minor_sign, component.bottom_minor_sign) == (
            expected["det_sign"], expected["top_minor_sign"], expected["bottom_minor_sign"])
    if q >= 3 and p >= 1:
        ref = oracle.boost_rotation(p, q, 1.5, 0.7)
        matrix = forward_matrix(Multivector(sig, ref.spin))
        assert np.max(np.abs(matrix.entries - ref.entries)) < 1e-9 * oracle.entry_peak(ref)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("traces", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lift-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
