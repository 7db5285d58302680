"""Host-time benchmark of the simulator: how much simulated work a host
second buys, what set-up and memory cost, and that results stay exact.

Usage (from the repository root)::

    python3 perfbench/run.py --workload udp-closed --seed 1 --seconds 30 --trace 0

Every cell runs in a fresh single-threaded interpreter
(``perfbench/cell.py``), never through the result cache or the process
pool.  ``--trace 0`` repeats the cell while the next repetition still fits
in ``--seconds`` (at least once), takes extra set-up-only samples, and
reports the end-to-end metrics as medians; ``sim_calls_per_host_s`` uses
the CPU time of ``run()`` rescaled to the host's nominal speed by
:mod:`refkernel`, sampled while the cell runs.  ``--trace 1`` runs the cell
once untraced and once under the layer tracer and reports the per-layer
metrics.  Metric names and units come from ``BENCHMARK.json``; names
starting ``sim_`` are simulated quantities, all others host quantities.

Human-readable lines go first; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit status is 0
only when every correctness check passed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED_PATH = os.path.join(HERE, "expected.json")
sys.path.insert(0, os.path.join(ROOT, "src"))

#: set-up samples per untraced run (full repetitions count towards it)
SETUP_SAMPLES = 9
#: one cell must finish well inside the 180 s a run may take
CELL_TIMEOUT_S = 150


class CellError(RuntimeError):
    """A cell process failed, timed out or printed no result."""


def run_cell(workload: str, seed: int, mode: str) -> dict:
    """Run one cell in a fresh interpreter; returns its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "cell.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=CELL_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise CellError(f"{mode} cell timed out after {exc.timeout} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise CellError(f"{mode} cell exited with {proc.returncode}")
    return json.loads(lines[-1])


def load_expected() -> dict:
    """Recorded simulated statistics: {workload: {seed: stats}}."""
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def check_sim(workload: str, seed: int, sim: dict, expected: dict) -> list:
    """Correctness problems with one cell's simulated statistics."""
    from workloads import DEFAULT_SEED

    problems = []
    if sim["registration_failures"] != 0:
        problems.append(f"{sim['registration_failures']} registration "
                        "failures")
    if sim["calls_completed"] <= 0:
        problems.append("no call completed")
    proxy = sim["proxy"]
    if proxy["transactions_completed"] > proxy["transactions_created"]:
        problems.append("proxy completed more transactions than it created")
    recorded = expected.get(workload, {}).get(str(seed))
    if recorded is not None and recorded != sim:
        diff = sorted(k for k in set(recorded) | set(sim)
                      if recorded.get(k) != sim.get(k))
        problems.append(f"simulated statistics differ from the recorded "
                        f"seed-{seed} values: {', '.join(diff)}")
    # Per-message cost vs connection management (paper §5.1-5.2): the
    # UDP closed loop must out-run TCP churn; the side not run here is
    # taken from its recording at this seed (else the default seed).
    pair = {"udp-closed": "tcp-churn", "tcp-churn": "udp-closed"}
    if workload in pair:
        other = expected.get(pair[workload], {})
        ref = other.get(str(seed)) or other.get(str(DEFAULT_SEED))
        if ref is not None:
            mine = sim["sim_throughput_ops_s"]
            theirs = ref["sim_throughput_ops_s"]
            udp, tcp = (mine, theirs) if workload == "udp-closed" \
                else (theirs, mine)
            if not udp > tcp:
                problems.append(f"udp-closed throughput {udp:.0f} ops/s is "
                                f"not above tcp-churn's {tcp:.0f} ops/s")
    return problems


def measure_untraced(workload: str, seed: int, seconds: float):
    """Repeat the cell within ``seconds``; medians of the end-to-end
    metrics plus the (identical) simulated statistics.

    A repetition's CPU time of ``run()`` is rescaled to the host's
    nominal speed by the mean of the reference-kernel samples the cell
    took while it ran (see :class:`cell.SpeedSampler`).
    """
    from refkernel import NOMINAL_S

    reps, setups, rates, unscaled = [], [], [], []
    start = time.monotonic()
    while True:
        rep = run_cell(workload, seed, "plain")
        refs = rep["reference_s"]
        slowdown = statistics.mean(refs) / NOMINAL_S if refs else 1.0
        rate = rep["sim"]["calls_completed"] / rep["run_cpu_s"]
        reps.append(rep)
        setups.append(rep["setup_s"])
        rates.append(rate * slowdown)
        unscaled.append(rate)
        elapsed = time.monotonic() - start
        if elapsed / len(reps) * (len(reps) + 1) > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_cell(workload, seed, "setup")["setup_s"])
    sim = reps[0]["sim"]
    problems = [f"repetition {i} simulated differently from repetition 0"
                for i, rep in enumerate(reps) if rep["sim"] != sim]
    values = {
        "sim_calls_per_host_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "sim_throughput_ops_s": sim["sim_throughput_ops_s"],
        "sim_goodput_cps": sim["sim_goodput_cps"],
        "sim_setup_p50_ms": sim["sim_setup_p50_ms"],
        "sim_setup_p99_ms": sim["sim_setup_p99_ms"],
    }
    notes = {"repetitions": len(reps), "setup_samples": len(setups),
             "run_cpu_s": [round(rep["run_cpu_s"], 4) for rep in reps],
             "mean_reference_s": [
                 round(statistics.mean(rep["reference_s"]), 4)
                 if rep["reference_s"] else None for rep in reps],
             "unscaled_calls_per_cpu_s": round(statistics.median(unscaled),
                                               3)}
    return values, sim, problems, notes


def measure_traced(workload: str, seed: int):
    """One untraced and one traced cell; the per-layer metrics."""
    plain = run_cell(workload, seed, "plain")
    traced = run_cell(workload, seed, "traced")
    sim = plain["sim"]
    problems = []
    if traced["sim"] != sim:
        diff = sorted(k for k in sim if traced["sim"].get(k) != sim[k])
        problems.append("tracing perturbed the simulation: "
                        + ", ".join(diff))
    values = dict(traced["counters"])
    if values["trace.unattributed_s"] < -1e-6 * traced["run_s"]:
        problems.append("layer self times exceed the traced host time")
    fired = sim["sim.events_fired"]
    values.update({
        "sim.events_fired": fired,
        "sim.events_scheduled": sim["sim.events_scheduled"],
        "sim.fired_ratio": fired / sim["sim.events_scheduled"],
        "sim.host_us_per_event": plain["run_cpu_s"] / fired * 1e6,
        "trace.overhead_ratio": traced["run_cpu_s"] / plain["run_cpu_s"],
    })
    notes = {"untraced_run_cpu_s": plain["run_cpu_s"],
             "traced_run_cpu_s": traced["run_cpu_s"]}
    return values, sim, problems, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the SIP proxy simulator.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: simulator source src/repro not found next to "
              "perfbench/; run from a full checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    from workloads import DEFAULT_SEED, PAPER_OPS_S, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    expected = load_expected()
    declared = bench["per_layer" if args.trace else "end_to_end"]

    try:
        if args.trace:
            values, sim, problems, notes = measure_traced(args.workload, seed)
        else:
            values, sim, problems, notes = measure_untraced(
                args.workload, seed, args.seconds)
    except CellError as exc:
        recorded = expected.get(args.workload, {}).get(str(seed), {})
        attempted = max(1, recorded.get("calls_attempted", 1))
        print(f"FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": attempted, "metrics": {}}))
        return 1
    problems += check_sim(args.workload, seed, sim, expected)

    print(f"workload {args.workload} seed {seed} trace {args.trace}  "
          f"{json.dumps(notes)}")
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        extra = ""
        if name.startswith("sim_setup_p"):
            extra = f"  (n={sim['sim_setup_samples']})"
        elif name == "sim_throughput_ops_s" and args.workload in PAPER_OPS_S:
            extra = f"  (paper Fig. 3: {PAPER_OPS_S[args.workload]:.0f})"
        print(f"  {name:28s} {values[name]:>16.6g} {unit}{extra}")
    attempted = sim["calls_attempted"]
    failed = sim["calls_failed"] + sim["registration_failures"]
    correct = not problems
    if not correct:
        failed = attempted
        for problem in problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"  calls attempted {attempted}, failed {failed}, "
          f"checks {'passed' if correct else 'FAILED'}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
