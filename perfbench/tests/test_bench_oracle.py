"""Tests of the benchmark's own checks.

The oracle test backs the gate on non-default seeds: there the benchmark
has no golden report and relies on the counter and workload identities,
so the vectorized replay must agree with the scalar reference in the
eviction regime the churn-dynamic workload runs.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import gate  # noqa: E402
from gdpipe.pipeline import Pipeline, PipelineConfig, run_pipeline  # noqa: E402
from gdpipe.traces import TraceSpec, gen_synthetic  # noqa: E402

WORKLOADS = tuple(json.loads((HERE.parent / "workloads.json").read_text())["workloads"])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_eviction_regime_matches_scalar_oracle(seed):
    # churn-dynamic shrunk: twice as many bases as a 16-entry ID space
    trace = gen_synthetic(TraceSpec(seed=seed, chunk_count=3000, chunk_bits=256,
                                    distinct_bases=32))
    config = PipelineConfig(m=8, id_width=4, learning_delay=1.77e-5)
    holder = []
    restored, counters, sizes = run_pipeline(trace, config, 1e-6, state_out=holder)
    oracle = Pipeline(config)
    o_restored, o_counters, o_sizes = oracle.replay(trace, 1e-6)

    assert counters.evictions > 0 and counters.out_syn_id > 0
    assert counters.as_dict() == o_counters.as_dict()
    assert sizes == o_sizes
    assert restored.payload == o_restored.payload == trace.payload
    assert holder[0].items() == oracle.state.items()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_golden_reports_pass_the_gate(workload):
    text = gate.golden_report(workload)
    assert gate.report_problems(text, workload, golden=text) == []


@pytest.mark.parametrize("workload, old, new", [
    ("paper-static", "DECODE_MISS=0", "DECODE_MISS=1"),
    ("paper-static", "OUT_SYN_ID=3124000", "OUT_SYN_ID=3123999"),
    ("paper-static", "ratio=0.09375", "ratio=0.09376"),
    ("churn-dynamic", "EVICTIONS=171513", "EVICTIONS=0"),
    ("churn-dynamic", "encoded_bytes=7310938", "encoded_bytes=7310939"),
    ("wide-notable", "RESTORED_RAW=4000", "RESTORED_RAW=3999"),
    ("wide-notable", "chunks=4000", "chunks=x"),
])
def test_gate_rejects_broken_reports(workload, old, new):
    golden = gate.golden_report(workload)
    broken = golden.replace(old, new)
    assert broken != golden
    assert gate.report_problems(broken, workload)
    assert gate.report_problems(broken, workload, golden=golden)


def test_gate_holds_static_identity_without_golden():
    # keeps every counter identity, but a static run never sends SYN_BASIS
    text = gate.golden_report("wide-notable")
    problems = gate.report_problems(text, "paper-static")
    assert "static ratio is not exactly 3/32" in problems
    assert "static run sent SYN_BASIS frames" in problems


def test_benchmark_json_matches_workloads():
    bench = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    workloads = json.loads((HERE.parent / "workloads.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads["workloads"])
    assert [m["name"] for m in bench["per_layer"]] == list(workloads["layer_to_end_to_end"])
