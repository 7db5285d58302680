"""Run one benchmark cell in this (fresh) interpreter; print JSON.

Usage::

    python3 perfbench/cell.py --workload udp-closed --seed 1 \\
        --mode plain --spawned-at "$(python3 -c 'import time; print(time.monotonic())')"

``--spawned-at`` is the ``time.monotonic()`` reading (a system-wide
clock on Linux) taken by the parent just before it started this process,
so ``setup_s`` covers interpreter start, imports, the testbed, the
started proxy and the created phones — everything before the first
simulated event.  Modes:

- ``setup``: stop after set-up (for extra ``setup_s`` samples);
- ``plain``: set up, then time ``BenchmarkManager.run()`` untraced,
  timing the reference kernel between engine steps (:class:`SpeedSampler`);
- ``traced``: the same under :class:`layertrace.LayerTracer`.

The last stdout line is one JSON object: ``setup_s``, ``peak_rss_mb``
and, unless in ``setup`` mode, ``run_s`` and ``run_cpu_s`` (wall-clock
and CPU host seconds of ``run()``; in ``plain`` mode ``run_cpu_s``
leaves out the ``reference_s`` samples), ``sim`` (:func:`workloads.sim_stats`) and ``counters`` (per-layer counts,
plus host-time attribution when traced).
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def layer_counters(bed, proxy, manager) -> dict:
    """Simulated per-layer counts over the whole run (deterministic)."""
    stats = proxy.stats
    lookups = stats.fd_cache_hits + stats.fd_cache_misses
    phones = manager.callers + manager.callees
    return {
        "net.packets": bed.fabric.packets_sent,
        "net.bytes": bed.fabric.bytes_sent,
        "proxy.messages_received": stats.messages_received,
        "proxy.fd_requests": stats.fd_requests,
        "proxy.fd_cache_hit_ratio": (stats.fd_cache_hits / lookups
                                     if lookups else 0.0),
        "proxy.idle_scan_entries": stats.idle_scan_entries_examined,
        "proxy.txn_timed_out": stats.transactions_timed_out,
        "proxy.rtx_absorbed": stats.retransmissions_absorbed,
        "clients.phones": len(phones),
        "clients.calls_attempted": sum(p.calls_attempted
                                       for p in manager.callers),
        "clients.retransmissions": sum(p.retransmissions for p in phones),
    }


def traced_layers(tracer, run_s: float) -> dict:
    """Host-time attribution of a traced run (see :mod:`layertrace`)."""
    from layertrace import LAYERS

    out = {}
    times = tracer.layer_times()
    for layer in LAYERS:
        self_s, spans = times[layer]
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.share"] = self_s / run_s
        out[f"{layer}.spans"] = spans
    out["trace.unattributed_s"] = run_s - sum(times[l][0] for l in LAYERS)
    parses, parse_s = tracer.entries["parse_message"]
    out["sip.parses"] = parses
    out["sip.renders"] = tracer.entries["SipMessage.render"][0]
    out["sip.host_us_per_parse"] = parse_s / parses * 1e6 if parses else 0.0
    locks = tracer.instances["SpinLock"] + tracer.instances["KMutex"]
    out["kernel.lock_acquisitions"] = sum(lk.acquisitions for lk in locks)
    out["kernel.lock_contentions"] = sum(lk.contentions for lk in locks)
    out["kernel.sock_drops"] = sum(
        buf.drops for buf in tracer.instances["DatagramBuffer"])
    return out


#: simulated microseconds per engine step while sampling host speed
SLICE_US = 1000.0
#: CPU seconds of simulation between two reference-kernel samples
SAMPLE_EVERY_S = 1.0


class SpeedSampler:
    """Times :func:`refkernel.reference_s` about every ``SAMPLE_EVERY_S``
    CPU seconds while the engine runs, so that the samples see the same
    spells of host speed as the simulation does.

    ``Engine.run(until)`` is split into ``SLICE_US`` steps, which fires
    the same events in the same order; samples run between steps.
    """

    def __init__(self):
        self.samples = []
        self._original = None

    def install(self) -> "SpeedSampler":
        from refkernel import reference_s
        from repro.sim.engine import Engine

        original = self._original = Engine.run
        samples = self.samples
        due = [time.process_time() + SAMPLE_EVERY_S]

        def run(engine, until=None):
            if until is None:
                return original(engine, until)
            while True:
                step = min(engine.now + SLICE_US, until)
                original(engine, step)
                if time.process_time() >= due[0]:
                    samples.append(reference_s())
                    due[0] = time.process_time() + SAMPLE_EVERY_S
                if engine._stopped or step >= until:
                    return engine.now

        Engine.run = run
        return self

    def uninstall(self) -> None:
        from repro.sim.engine import Engine

        Engine.run = self._original


def execute(spec, mode: str, spawned_at: float) -> dict:
    """Build and (unless ``mode == "setup"``) run one cell in-process."""
    from workloads import build_cell, sim_stats

    tracer = sampler = None
    if mode == "traced":
        from layertrace import LayerTracer
        tracer = LayerTracer().install()
    try:
        bed, proxy, manager = build_cell(spec)
        out = {"setup_s": time.monotonic() - spawned_at}
        if mode != "setup":
            if mode == "plain":
                sampler = SpeedSampler().install()
            start, start_cpu = time.perf_counter(), time.process_time()
            result = manager.run()
            out["run_cpu_s"] = time.process_time() - start_cpu
            out["run_s"] = time.perf_counter() - start
            if sampler is not None:
                out["reference_s"] = sampler.samples
                out["run_cpu_s"] -= sum(sampler.samples)
            out["sim"] = sim_stats(result, bed, manager)
            out["counters"] = layer_counters(bed, proxy, manager)
            if tracer is not None:
                out["counters"].update(traced_layers(tracer, out["run_s"]))
    finally:
        if tracer is not None:
            tracer.uninstall()
        if sampler is not None:
            sampler.uninstall()
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"),
                        default="plain")
    parser.add_argument("--spawned-at", type=float, default=None)
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None \
        else time.monotonic()

    from workloads import spec_for

    out = execute(spec_for(args.workload, args.seed), args.mode, spawned_at)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
