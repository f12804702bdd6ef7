"""Smoke test of the benchmark: a few ops per workload.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run  # puts the checkout's src/ on sys.path before ddsim is imported
import ddsim
import gen
import spans
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, seed=3, seconds=0.2):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=HERE.parent, check=True, capture_output=True,
                         text=True, timeout=170).stdout
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported_with_its_unit(workload, trace):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_linalg_call_counts_repeat_for_a_seed():
    counts = [{k: v["value"] for k, v in bench("separated", 1)["metrics"].items()
               if k.endswith("_calls_per_op")} for _ in range(2)]
    assert counts[0] == counts[1]
    assert counts[0]["linalg.svd_calls_per_op"] > 0


def _built(seed=5):
    item = gen.separated_item(np.random.default_rng(seed), 4, strict=True)
    return item, workloads.call_build(item)


def test_program_certificate_passes_the_check():
    item, out = _built()
    assert workloads.check_build(item, out) is None


@pytest.mark.parametrize("tamper", [
    lambda c: dataclasses.replace(c, B=c.B + 1e-3 * np.eye(len(c.B), k=1)),
    lambda c: dataclasses.replace(c, P=c.P * 0.0, B=c.B * 0.0),
    lambda c: dataclasses.replace(c, P=np.eye(len(c.P)),
                                  B=np.ones_like(c.B)),
    lambda c: dataclasses.replace(c, P=c.P * 1e-9, B=np.eye(len(c.B))),
])
def test_tampered_certificate_counts_as_a_failure(tamper):
    item, out = _built()
    bad = dict(out, real=tamper(out["real"]))
    results = run.run_pass([item], lambda _: bad, workloads.check_build)
    assert results[0][1].startswith("wrong:")


def test_wrong_verdict_and_exit_code_count_as_failures():
    item, out = _built()
    assert workloads.check_build(item, dict(out, verdict=gen.IMPOSSIBLE)) \
        .startswith("wrong:")
    cli_item = {"exit": 0, "expect": "classify", "verdict": gen.STRICT}
    assert workloads.check_cli(cli_item, {"exit": 3, "stdout": ""}).startswith("wrong:")
    assert workloads.check_cli(cli_item, {"exit": 0, "stdout": "not json"}) \
        .startswith("wrong:")


def test_typed_numerical_error_is_a_failure_not_a_wrong_output():
    def raising(_):
        raise ddsim.errors.IllConditionedJordan("chain top")
    item, _ = _built()
    assert run.run_pass([item], raising, workloads.check_build)[0][1] == \
        "numerical:IllConditionedJordan"


def test_refusal_lowers_verified_ratio_but_is_not_a_program_error():
    passes = [[(1e-3, None), (1e-3, "numerical:IllConditionedJordan"),
               (1e-3, "wrong:verdict Impossible"), (1e-3, "exception:KeyError")]]
    assert run.end_to_end(passes)["verified_ratio"] == (0.25, "ratio")
    assert [run.is_error(f) for _, f in passes[0]] == [False, False, True, True]


def test_untraced_run_has_no_wrappers_and_tracing_restores_names():
    original = ddsim.construct.classify
    assert spans.installed_wrappers() == []
    tracer = spans.Tracer()
    with tracer.installed():
        assert "ddsim.construct.classify" in spans.installed_wrappers()
        assert "numpy.linalg.svd" in spans.installed_wrappers()
        item, _ = _built()
        with tracer.op():
            workloads.call_build(item)
        ddsim.classify(item["a"])  # outside an op: not recorded
    assert spans.installed_wrappers() == []
    assert ddsim.construct.classify is original
    stats = tracer.stats
    assert len(stats["construct.build_real_dd_transform"].durations) == 1
    # once from the op, once inside build_real_dd_transform
    assert len(stats["classify.classify"].durations) == 2
    assert len(stats["spectral.eigen_structure"].durations) == 2
    assert stats["linalg.svd"].durations
