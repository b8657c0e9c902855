"""The timed loop, the set-up measurement and the metrics of one benchmark run.

Import after ``run.use_checkout()`` has put the checkout's ``src/`` on the path.
"""

from __future__ import annotations

import functools
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import oracle
import rotorlift
import workloads
from rotorlift import Multivector, Signature, geometric_product
from spans import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
# A shared 2-vCPU virtual machine changes speed by up to a factor of two
# over tens of seconds, as neighbours come and go, with CPU time equal to
# wall time.  A fixed reference block that resembles the workload's
# operations, run untimed after every REFERENCE_EVERY_S of operations, slows
# down in step with them: for lift-small, small-array oracle work driven
# from Python; for the large workloads, whose kernels also stream over MiB
# tables, the same work followed by one pass over a 16 MiB array.  Each
# operation's time is scaled by the workload's nominal block time in
# REFERENCES / (the block's time after it): the time it would take on a
# host where the block takes the nominal time.  Reports print the unscaled
# figures too.
REFERENCE_EVERY_S = 0.1
REFERENCE_SIGNATURES = ((2, 1), (2, 2), (3, 2), (3, 3), (1, 3))
PROBE_TIMEOUT_S = 120
NULL_TRACER = NullTracer()

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
# Printed with the end-to-end metrics but reported as per-layer values:
# they can be 0 and they move between seeds, so they carry no bound.  Both
# are taken over the run's distinct inputs, timed and probed, each judged once.
CORRECTNESS_UNITS = {"fail_share": "share", "max_rel_error": "rel"}
FAILURE_LABELS = (
    "VerificationFailed", "NotPseudoOrthogonal", "NotAFrame", "CenterProjectionVanishes",
    "NoRealRoot", "MinorIdentity", "Inaccurate", "WrongResult", "AcceptedInvalid", "other",
)
REJECTION_LABELS = ("CenterProjectionVanishes", "SpecialOrthogonalRequired", "HestenesCondition")
# Mean milliseconds per call of each span name.
SPAN_METRICS = {
    "recovery.spin_numerator_ms": "recovery.spin_numerator",
    "recovery.residual_ms": "recovery.twisted_adjoint_residual",
    "recovery.classify_spin_ms": "recovery.classify_spin",
    "recovery.recover_spin_ms": "recovery.recover_spin",
    "recovery.forward_matrix_ms": "recovery.forward_matrix",
    "recovery.recover_hestenes_ms": "recovery.recover_hestenes",
    "recovery.rotor_from_frames_ms": "recovery.rotor_from_frames",
    "matrices.validate_ms": "matrices.validate",
    "matrices.classify_component_ms": "matrices.classify_component",
}
# recover_spin minus these replayed stages is recovery.unattributed_ms.
REPLAYED_STAGES = (
    "recovery.spin_numerator", "recovery.central_sqrt_candidates",
    "recovery.twisted_adjoint_residual", "recovery.classify_spin",
)


def per_layer_units() -> dict:
    units = {name: "ms" for name in SPAN_METRICS}
    units.update({
        "recovery.unattributed_ms": "ms",
        "recovery.polish_share": "share",
        "io.result_doc_ms": "ms",
        "algebra.tables_s": "s",
        "algebra.tables_mib": "MiB",
        "trace.overhead_share": "share",
    })
    for n in workloads.PRODUCT_DIMENSIONS:
        units[f"algebra.product_ms.n{n}"] = "ms"
        units[f"algebra.product_rate.n{n}"] = "Mmadd/s"
    for label in FAILURE_LABELS:
        units[f"recovery.failed.{label}"] = "count"
    for label in REJECTION_LABELS:
        units[f"recovery.rejected.{label}"] = "count"
    units.update(CORRECTNESS_UNITS)
    return units


class RunStats:
    def __init__(self):
        self.busy = 0.0
        self.traced = 0.0
        self.rounds = 0
        self.latencies: list[float] = []
        self.scaled: list[float] = []  # latencies at the reference host speed
        self.references: list[float] = []  # reference block times
        self.outcomes: Counter = Counter()
        self.judged: dict[int, oracle.Outcome] = {}  # first outcome of each distinct input
        self.polish: Counter = Counter()

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(count for (status, _), count in self.outcomes.items() if status == oracle.FAILED)


def judge(case, text, error) -> oracle.Outcome:
    if error is not None:
        return oracle.judge_error(case.kind, case.ref, error)
    try:
        if case.kind == "forward":
            return oracle.check_forward_result(case.ref, text)
        return oracle.check_rotor_result(case.kind, case.ref, text)
    except (KeyError, TypeError, ValueError):
        return oracle.Outcome(oracle.FAILED, "WrongResult")


def run_case(case, stats: RunStats, tracer: Tracer | None) -> None:
    operation = workloads.OPERATIONS[case.kind]
    text = extra = error = None
    start = time.perf_counter()
    try:
        text, extra = operation(case, NULL_TRACER)
    except Exception as exc:  # every raise is an outcome the oracle classifies
        error = exc
    elapsed = time.perf_counter() - start
    stats.busy += elapsed
    stats.latencies.append(elapsed)
    outcome = judge(case, text, error)
    stats.outcomes[(outcome.status, outcome.label)] += 1
    stats.judged.setdefault(id(case), outcome)
    if tracer is None:
        return
    with tracer.operation(f"op.{case.kind}", case.label):
        start = time.perf_counter()
        try:
            operation(case, tracer)
        except Exception:
            pass  # the bare run above already judged this input
        stats.traced += time.perf_counter() - start
        if error is None and case.kind == "recover":
            matrix, result = extra
            stats.polish[workloads.replay_recovery(case, matrix, result, tracer)] += 1
        elif error is None and case.kind == "forward":
            workloads.replay_forward(case, extra, tracer)


def small_block() -> None:
    """Oracle work on small arrays; shares no code with rotorlift."""
    rng = np.random.default_rng(0)
    for p, q in REFERENCE_SIGNATURES:
        ref = oracle.random_versor(rng, p, q, 4)
        oracle.spinor_norms(ref.spin, p, q)
        oracle.components(ref)


@functools.cache
def _stream() -> np.ndarray:
    return np.ones(1 << 21)


def large_block() -> None:
    """small_block, then one read-write and one read pass over a 16 MiB array."""
    small_block()
    stream = _stream()
    np.negative(stream, out=stream)
    stream.sum()


# (block, seconds it is scaled to) per workload.
REFERENCES = {
    "lift-small": (small_block, 0.005),
    "lift-large": (large_block, 0.01),
    "forward-large": (large_block, 0.01),
}


def scale_since_reference(stats: RunStats, reference) -> None:
    """Time the reference block and scale the latencies recorded since the last one."""
    block, nominal = reference
    start = time.perf_counter()
    block()
    elapsed = time.perf_counter() - start
    factor = nominal / elapsed
    stats.scaled.extend(t * factor for t in stats.latencies[len(stats.scaled):])
    stats.references.append(elapsed)


def run_rounds(rounds, seconds: float, reference, tracer: Tracer | None = None) -> RunStats:
    """Closed loop over whole rounds until the time inside operations reaches `seconds`.

    The reference block runs after every REFERENCE_EVERY_S of operations,
    untimed, and scales the latencies since the previous one.  A traced run
    repeats and replays every operation, so it stops on the loop's wall
    time instead, to end in about the same time as an untraced run.
    """
    stats = RunStats()
    last_reference = 0.0
    loop_start = time.perf_counter()
    while True:
        for case in rounds[stats.rounds % len(rounds)]:
            run_case(case, stats, tracer)
            if stats.busy - last_reference >= REFERENCE_EVERY_S:
                scale_since_reference(stats, reference)
                last_reference = stats.busy
        stats.rounds += 1
        spent = stats.busy if tracer is None else time.perf_counter() - loop_start
        if spent >= seconds:
            if len(stats.scaled) < len(stats.latencies):
                scale_since_reference(stats, reference)
            return stats


def run_probe(cases) -> list[oracle.Outcome]:
    """Each known-defect input once, untimed, judged like a timed operation."""
    outcomes = []
    for case in cases:
        text = error = None
        try:
            text, _ = workloads.OPERATIONS[case.kind](case, NULL_TRACER)
        except Exception as exc:  # every raise is an outcome the oracle classifies
            error = exc
        outcomes.append(judge(case, text, error))
    return outcomes


def tally(outcomes) -> Counter:
    return Counter((outcome.status, outcome.label) for outcome in outcomes)


def measure_setup(cases, samples: int) -> tuple[float, float]:
    """Median (setup_s, tables_s) over fresh interpreters started one after another."""
    request = json.dumps({
        "src": str(Path(rotorlift.__file__).resolve().parent.parent),
        "calls": [workloads.first_call_request(case) for case in cases],
    })
    setups, tables = [], []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")],
            input=request, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        sample = json.loads(done.stdout.strip().splitlines()[-1])
        setups.append(sample["setup_s"])
        tables.append(sample["tables_s"])
    return statistics.median(setups), statistics.median(tables)


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0, count
    return ordered[count - 11], 100.0 * (count - 10) / count, count


def time_products(tracer: Tracer, seed: int) -> dict:
    """One dense product of two full random multivectors per dimension, median of repeats.

    A dense product does 4^n multiply-adds, so the rate is 4^n over the time.
    """
    rng = workloads.rng_for(len(workloads.WORKLOADS), seed)
    metrics = {}
    for n in workloads.PRODUCT_DIMENSIONS:
        sig = Signature((n + 1) // 2, n // 2)
        u = Multivector(sig, rng.uniform(-1.0, 1.0, 1 << n))
        v = Multivector(sig, rng.uniform(-1.0, 1.0, 1 << n))
        geometric_product(u, v)
        samples = []
        for _ in range(5 if n >= 9 else 50):
            with tracer.operation("op.product", str(sig)):
                with tracer.span(f"algebra.geometric_product.n{n}"):
                    start = time.perf_counter()
                    geometric_product(u, v)
                    samples.append(time.perf_counter() - start)
        seconds = statistics.median(samples)
        metrics[f"algebra.product_ms.n{n}"] = seconds * 1e3
        metrics[f"algebra.product_rate.n{n}"] = 4**n / seconds / 1e6
    return metrics


def layer_metrics(tracer: Tracer, stats: RunStats, judged: Counter) -> dict:
    """Per-layer numbers from the spans; 0 for a layer the workload never calls."""
    def mean_ms(values):
        return 1e3 * sum(values) / len(values) if values else 0.0

    metrics = {name: mean_ms(tracer.durations(span)) for name, span in SPAN_METRICS.items()}
    per_op = list(tracer.by_operation().values())
    unattributed = [
        spans["recovery.recover_spin"] - sum(spans.get(stage, 0.0) for stage in REPLAYED_STAGES)
        for spans in per_op
        if "recovery.recover_spin" in spans and "recovery.spin_numerator" in spans
    ]
    io_times = [
        sum(t for name, t in spans.items() if name.startswith("io."))
        for spans in per_op
        if any(name.startswith("io.") for name in spans)
    ]
    polished = stats.polish[True]
    metrics["recovery.unattributed_ms"] = mean_ms(unattributed)
    metrics["recovery.polish_share"] = polished / max(1, polished + stats.polish[False])
    metrics["io.result_doc_ms"] = mean_ms(io_times)
    metrics["trace.overhead_share"] = stats.traced / stats.busy - 1.0
    for label in FAILURE_LABELS:
        metrics[f"recovery.failed.{label}"] = 0
    for label in REJECTION_LABELS:
        metrics[f"recovery.rejected.{label}"] = 0
    for (status, label), count in judged.items():
        if status == oracle.FAILED:
            metrics[f"recovery.failed.{label if label in FAILURE_LABELS else 'other'}"] += count
        elif status == oracle.REJECTED:
            metrics[f"recovery.rejected.{label}"] += count
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool,
            work=None, setup_samples: int = SETUP_SAMPLES) -> dict:
    """One benchmark run: set-up, warm-up, timed rounds, defect probe, metrics."""
    if work is None:
        work = workloads.build(workload, seed)
    rounds = work.rounds
    firsts = workloads.first_cases(rounds)
    setup_s, tables_s = measure_setup(firsts, setup_samples)
    for case in firsts:
        workloads.first_call(case)
    REFERENCES[workload][0]()
    tracer = Tracer() if trace else None
    stats = run_rounds(rounds, seconds, REFERENCES[workload], tracer)
    probe = run_probe(work.probe)
    tail, percentile, samples = tail_latency(stats.scaled)
    inputs = list(stats.judged.values()) + probe
    judged = tally(inputs)
    inputs_failed = sum(count for (status, _), count in judged.items() if status == oracle.FAILED)
    wrong = sum(judged[(oracle.FAILED, label)] for label in ("WrongResult", "AcceptedInvalid"))
    summary = {
        "ops_per_s": (stats.attempted - stats.failed) / sum(stats.scaled),
        "latency_p50_ms": 1e3 * statistics.median(stats.scaled),
        "latency_tail_ms": 1e3 * tail,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_share": inputs_failed / len(inputs),
        "max_rel_error": max((o.rel_error for o in inputs if o.status == oracle.CORRECT), default=0.0),
    }
    result = {
        "workload": workload, "seed": seed, "rounds": stats.rounds, "busy_s": stats.busy,
        "unscaled": {
            "ops_per_s": (stats.attempted - stats.failed) / stats.busy,
            "latency_p50_ms": 1e3 * statistics.median(stats.latencies),
            "latency_tail_ms": 1e3 * tail_latency(stats.latencies)[0],
        },
        "references": len(stats.references),
        "reference_ms": 1e3 * statistics.median(stats.references),
        "tail_percentile": percentile, "tail_samples": samples, "setup_samples": setup_samples,
        "summary": summary,
        "outcomes": outcome_names(stats.outcomes),
        "inputs": len(inputs), "probe_inputs": len(probe),
        "probe_outcomes": outcome_names(tally(probe)),
        # `attempted` and `failed` count timed operations; the probe's known
        # failures show in fail_share and the recovery.failed counts.
        # `correct` is false when the program handed back another element
        # than +-S (or another matrix), or accepted an input outside the
        # domain, on any input, probed ones included.
        "correct": wrong == 0, "attempted": stats.attempted, "failed": stats.failed,
    }
    if not trace:
        result["metrics"] = {name: {"value": summary[name], "unit": unit}
                             for name, unit in END_TO_END_UNITS.items()}
        return result
    layers = layer_metrics(tracer, stats, judged)
    layers.update(time_products(tracer, seed))
    layers["algebra.tables_s"] = tables_s
    signatures = {(case.ref.p, case.ref.q) for case in firsts}
    layers["algebra.tables_mib"] = workloads.table_bytes(signatures) / 2**20
    layers["fail_share"] = summary["fail_share"]
    layers["max_rel_error"] = summary["max_rel_error"]
    result["metrics"] = {name: {"value": layers[name], "unit": unit}
                         for name, unit in per_layer_units().items()}
    traces = HERE / "traces"
    traces.mkdir(exist_ok=True)
    result["trace_file"] = str(traces / f"{workload}-seed{seed}.json")
    tracer.write(result["trace_file"], {"workload": workload, "seed": seed,
                                        "per_layer": result["metrics"]})
    return result


def outcome_names(counts: Counter) -> dict:
    return {f"{status}.{label or 'ok'}": count for (status, label), count in sorted(counts.items())}


def report_lines(result: dict) -> list[str]:
    lines = [
        f"workload {result['workload']} seed {result['seed']}: {result['rounds']} rounds, "
        f"{result['attempted']} operations, {result['busy_s']:.3f} s inside operations",
        "outcomes: " + ", ".join(f"{k} {v}" for k, v in result["outcomes"].items()),
        f"times scaled to a {1e3 * REFERENCES[result['workload']][1]:g} ms reference block, median "
        f"{result['reference_ms']:.4g} ms over {result['references']} blocks; unscaled: "
        + ", ".join(f"{k} {v:.6g}" for k, v in result["unscaled"].items()),
        f"defect probe, {result['probe_inputs']} inputs run once untimed: "
        + (", ".join(f"{k} {v}" for k, v in result["probe_outcomes"].items()) or "none"),
    ]
    for name, unit in dict(END_TO_END_UNITS, **CORRECTNESS_UNITS).items():
        line = f"  {name:<16} {result['summary'][name]:.6g} {unit}"
        if name == "latency_tail_ms":
            beyond = min(10, result["tail_samples"] - 1)
            line += (f"  (p{result['tail_percentile']:.2f} of {result['tail_samples']} samples, "
                     f"{beyond} beyond)")
        elif name == "setup_s":
            line += f"  (median of {result['setup_samples']} fresh interpreters)"
        elif name in CORRECTNESS_UNITS:
            line += f"  (over {result['inputs']} distinct inputs, timed and probed)"
        lines.append(line)
    if "trace_file" in result:
        overhead = result["metrics"]["trace.overhead_share"]["value"]
        lines.append(f"traced: spans in {result['trace_file']}, overhead {100 * overhead:+.1f} % "
                     "of the bare operation time")
        lines.extend(f"  {name} {m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items())
    return lines
