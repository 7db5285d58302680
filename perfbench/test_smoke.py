"""Scaled-down smoke test of the benchmark itself.

Run from the repository root with either of::

    python3 perfbench/test_smoke.py
    python3 -m pytest -q perfbench/test_smoke.py

It runs tiny variants of the workloads in-process (under a minute in
total) and checks that every declared metric prints by name with its
unit, that the layer self times plus the unattributed remainder add up
to the traced host time, and that tracing leaves simulated outputs
unchanged.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import cell  # noqa: E402
import run  # noqa: E402
from layertrace import LAYERS, LayerTracer  # noqa: E402
from workloads import WORKLOADS, spec_for  # noqa: E402

#: per-workload overrides shrinking each cell to about a second of host time
TINY = {
    "udp-closed": dict(clients=20, warmup_us=20_000.0, measure_us=20_000.0),
    "tcp-churn": dict(clients=20, idle_timeout_us=40_000.0,
                      ops_per_conn_override=10,
                      warmup_us=90_000.0, measure_us=20_000.0),
    "udp-overload-open": dict(clients=100, offered_cps=2_000.0,
                              warmup_us=20_000.0, measure_us=20_000.0),
}


def tiny_spec(name: str, seed: int = 1):
    spec = spec_for(name, seed)
    for key, value in TINY[name].items():
        setattr(spec, key, value)
    return spec


def tiny_run_cell(workload: str, seed: int, mode: str) -> dict:
    """Stand-in for :func:`run.run_cell`, in-process on the tiny spec."""
    import time
    return json.loads(json.dumps(
        cell.execute(tiny_spec(workload, seed), mode, time.monotonic())))


def run_benchmark(workload: str, trace: int):
    """``run.main`` on the tiny cells; returns (exit code, stdout lines)."""
    saved = run.run_cell, run.load_expected
    run.run_cell, run.load_expected = tiny_run_cell, dict
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", workload, "--seed", "1",
                             "--seconds", "0", "--trace", str(trace)])
    finally:
        run.run_cell, run.load_expected = saved
    return code, out.getvalue().splitlines()


def test_every_metric_prints_with_its_unit():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, lines = run_benchmark("tcp-churn", trace)
        assert code == 0, lines
        result = json.loads(lines[-1])
        assert result["correct"]
        assert 0 <= result["failed"] <= result["attempted"]
        declared = {m["name"]: m["unit"] for m in bench[key]}
        assert set(result["metrics"]) == set(declared)
        for name, unit in declared.items():
            assert result["metrics"][name]["unit"] == unit
            assert isinstance(result["metrics"][name]["value"], (int, float))
            assert any(line.split()[:1] == [name] and f" {unit}" in line
                       for line in lines[:-1]), name


def test_layer_self_times_sum_to_traced_host_time():
    for name in WORKLOADS:
        out = cell.execute(tiny_spec(name), "traced", 0.0)
        counters, run_s = out["counters"], out["run_s"]
        self_times = [counters[f"{layer}.self_s"] for layer in LAYERS]
        assert all(t >= 0.0 for t in self_times)
        assert counters["trace.unattributed_s"] >= 0.0
        total = sum(self_times) + counters["trace.unattributed_s"]
        assert abs(total - run_s) <= 1e-9 * run_s
        for layer in LAYERS:
            assert counters[f"{layer}.spans"] > 0, (name, layer)


def test_tracing_leaves_outputs_unchanged():
    from repro.analysis.experiments import run_cell
    from repro.sim.engine import Engine

    original_schedule = Engine.schedule
    for name in WORKLOADS:
        plain = cell.execute(tiny_spec(name), "plain", 0.0)
        traced = cell.execute(tiny_spec(name), "traced", 0.0)
        assert traced["sim"] == plain["sim"], name
        # the benchmark's own cell builder matches the library's runner
        result = run_cell(tiny_spec(name))
        assert result.throughput_ops_s == plain["sim"]["sim_throughput_ops_s"]
        assert result.proxy_totals == plain["sim"]["proxy"]
    assert Engine.schedule is original_schedule  # uninstall restored it


def test_wrapped_bodies_forward_close_to_the_generator():
    from repro.sim.engine import Engine
    from repro.sim.primitives import Sleep
    from repro.sim.process import SimProcess

    cleaned = []

    def body():
        try:
            while True:
                yield Sleep(10.0)
        finally:
            cleaned.append(True)

    tracer = LayerTracer().install()
    try:
        engine = Engine()
        proc = SimProcess(engine, tracer.wrap_body(body())).start()
        engine.run(until=25.0)
        proc.kill()
    finally:
        tracer.uninstall()
    assert cleaned == [True]
    assert tracer.spans[LAYERS.index("sim")] > 0


if __name__ == "__main__":
    failures = 0
    for test_name, test in sorted(globals().items()):
        if test_name.startswith("test_") and callable(test):
            try:
                test()
                print(f"ok    {test_name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL  {test_name}: {exc!r}")
    sys.exit(1 if failures else 0)
