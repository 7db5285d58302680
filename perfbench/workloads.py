"""The benchmark's workloads and the in-process cell builder.

Each workload is one seeded simulator cell, described through the
public :class:`repro.analysis.experiments.ExperimentSpec` and built here
with the same public constructors :func:`repro.analysis.experiments.run_cell`
uses (``Testbed``, ``build_proxy``, ``Workload``, ``BenchmarkManager``).
The build is split so that set-up (everything before the first simulated
event) and the simulation itself (``BenchmarkManager.run()``) can be
timed separately.  The result cache and the process-pool runner are never
involved.
"""

from repro.analysis.experiments import ExperimentSpec
from repro.analysis.overload import OVERLOAD_T1_US
from repro.clients import BenchmarkManager, Workload
from repro.proxy import ProxyConfig, build_proxy
from repro.sip.transaction import TransactionTimers
from repro.testbed import Testbed

#: seed used when none is given; its simulated statistics are recorded
DEFAULT_SEED = 1
#: a second recorded seed, kept out of tuning so claims can be rechecked
HELD_OUT_SEED = 97

#: name -> (ExperimentSpec keyword arguments, why the workload exists)
WORKLOADS = {
    "udp-closed": (
        dict(series="udp", clients=500,
             warmup_us=50_000.0, measure_us=60_000.0),
        "per-message path (sip parse/render, scheduler, engine, net.udp) "
        "with no connection management; paper Fig. 3 udp@500"),
    "tcp-churn": (
        dict(series="tcp-50", clients=100, fd_cache=False,
             idle_strategy="scan", idle_timeout_us=350_000.0,
             ops_per_conn_override=10,
             warmup_us=200_000.0, measure_us=50_000.0),
        "connection management: fd passing over IPC, fd tables, conn "
        "table locks and the idle scan over a growing abandoned population"),
    "udp-overload-open": (
        dict(series="udp", clients=5000, offered_cps=30_000.0,
             sip_t1_us=OVERLOAD_T1_US, controller="none",
             warmup_us=100_000.0, measure_us=150_000.0),
        "open-loop Poisson at ~2x capacity over 10k phones: client layer at "
        "scale and retransmission timers starting, cancelling, restarting"),
}

#: paper Fig. 3 value beside which ``udp-closed`` throughput is printed
#: (information only; not a gated metric)
PAPER_OPS_S = {"udp-closed": 33_350.0}


def spec_for(name: str, seed: int) -> ExperimentSpec:
    """The :class:`ExperimentSpec` of workload ``name`` at ``seed``."""
    kwargs, _why = WORKLOADS[name]
    return ExperimentSpec(seed=seed, **kwargs)


def build_cell(spec: ExperimentSpec):
    """Construct and start everything a cell needs, short of simulating.

    Returns ``(testbed, proxy, manager)`` with the phones created and
    started, so the next simulated event belongs to ``manager.run()``.
    Mirrors :func:`repro.analysis.experiments.run_cell` for the options
    these workloads use, without ``REPRO_SCALE`` (the windows are fixed).
    """
    bed = Testbed(seed=spec.seed, server_fd_limit=spec.server_fd_limit)
    overload_kw = {}
    timers = None
    if spec.sip_t1_us is not None:
        overload_kw = dict(sip_t1_us=spec.sip_t1_us,
                           sip_t2_us=8.0 * spec.sip_t1_us,
                           timer_tick_us=spec.sip_t1_us / 4.0)
        timers = TransactionTimers(t1_us=spec.sip_t1_us,
                                   t2_us=8.0 * spec.sip_t1_us,
                                   t4_us=10.0 * spec.sip_t1_us)
    config = ProxyConfig(
        transport=spec.transport(),
        workers=spec.workers or spec.default_workers(),
        fd_cache=spec.fd_cache,
        idle_strategy=spec.idle_strategy,
        supervisor_nice=spec.supervisor_nice,
        idle_timeout_us=spec.idle_timeout_us,
        stateful=spec.stateful,
        overload_controller=spec.controller,
        overload_params=dict(spec.controller_params),
        **overload_kw,
    )
    proxy = build_proxy(bed.server, config, spec.costs).start()
    warmup_us, measure_us = spec.windows()
    workload = Workload(
        clients=spec.clients,
        ops_per_conn=spec.ops_per_conn(),
        warmup_us=warmup_us,
        measure_us=measure_us,
        mode="open" if spec.offered_cps is not None else "closed",
        offered_cps=spec.offered_cps or 0.0,
    )
    manager = BenchmarkManager(bed, proxy, workload, timers=timers)
    manager.setup_phones()
    return bed, proxy, manager


def sim_stats(result, bed, manager) -> dict:
    """Every simulated number of a finished cell, for exact comparison.

    All values are simulated (never host) quantities, so for a given
    (workload, seed) they must repeat bit-for-bit on any host and with
    tracing on or off.
    """
    phones = manager.callers + manager.callees
    return {
        "sim_throughput_ops_s": result.throughput_ops_s,
        "sim_goodput_cps": result.goodput_cps,
        "sim_setup_p50_ms": result.setup_latency_us["p50"] / 1000.0,
        "sim_setup_p99_ms": result.setup_latency_us["p99"] / 1000.0,
        "sim_setup_samples": sum(p.setup_hist.count for p in manager.callers),
        "sim.events_fired": bed.engine.events_fired,
        "sim.events_scheduled": bed.engine.events_scheduled,
        "calls_attempted": sum(p.calls_attempted for p in manager.callers),
        "calls_completed": result.calls_completed,
        "calls_failed": result.calls_failed,
        "registration_failures": result.registration_failures,
        "client_retransmissions": sum(p.retransmissions for p in phones),
        "proxy": dict(result.proxy_totals),
    }
