"""Run one workload of the repository benchmark and print its metrics.

Usage::

    python3 perfbench/run.py --workload cold_batch --seed 1 --seconds 10 --trace 0

Workloads: ``cold_batch``, ``all_pairs``, ``serve_warm``, ``replica_store``
(see ``BENCHMARK.json`` and ``perfbench/README.md``).  The program is the
default configuration: no kernel argument, no store except where the
workload mounts one, verdict inference off, and every ``REPRO_*``
environment variable removed.

``--trace 0`` measures end to end with tracing off and reports the
``end_to_end`` metrics of ``BENCHMARK.json``.  ``--trace 1`` alternates
untraced and traced iterations (time slices for ``serve_warm``) and
reports the ``per_layer`` metrics from the traced spans
(``perfbench/spans.py``).  Every verdict is checked against the truncated
power series outside the timed region; any mismatch fails the run.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("cold_batch", "all_pairs", "serve_warm", "replica_store")
SETUP_PROBES = 5
REQUIRED = ("src/repro/engine/core.py", "tests/gen.py", "benchmarks/bench_engine_throughput.py")


def clean_environment():
    """Drop every ``REPRO_*`` variable so the default configuration runs."""
    removed = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in removed:
        del os.environ[name]
    return removed


def percentile(ordered, quantile):
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(quantile * len(ordered)) - 1)]


def max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_setups(name, seed, tiny, workdir):
    """Median set-up seconds over ``SETUP_PROBES`` fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), name, str(seed), workdir,
             "tiny" if tiny else "full"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples), samples


def counters(engine):
    """Monotone counters of one engine plus the process-wide memos."""
    from repro.linalg.kernels import kernel_stats
    from repro.util.cache import lookup_cache

    stats = engine.stats()
    caches = {name.rsplit(".", 1)[-1]: value for name, value in stats["caches"].items()}
    fragments = lookup_cache("wfa.fragments").stats()
    ops = kernel_stats()["ops"].values()
    store = stats["store"] or {}
    return {
        "wfa_hits": caches["wfa"]["hits"],
        "wfa_misses": caches["wfa"]["misses"],
        "verdict_hits": caches["results"]["hits"],
        "verdict_misses": caches["results"]["misses"],
        "fragment_hits": fragments.hits,
        "fragment_misses": fragments.misses,
        "vectorized": sum(op["vectorized"] for op in ops),
        "fallbacks": sum(op["fallback_total"] for op in ops),
        "store_hits": store.get("hits", 0),
        "store_misses": store.get("misses", 0),
        "store_verdict_hits": store.get("verdict_hits", 0),
        "store_corrupt": store.get("corrupt_skipped", 0),
        "restarts": stats["executor"]["worker_restarts"],
    }


def add_delta(total, before, after):
    for key, value in after.items():
        total[key] = total.get(key, 0) + value - before[key]


class Run:
    """What one invocation measured."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.pairs = {False: 0, True: 0}  # answered, by traced
        self.wall = {False: 0.0, True: 0.0}
        self.latencies = []
        self.latency_kind = "batch calls"
        self.peak_rss_mb = 0.0
        self.deltas = {}
        self.rejected = 0
        self.notes = []
        self.spans = []

    def check(self, oracle, pairs, results, counts=None):
        """Oracle-check each verdict; ``counts`` weighs a verdict by the
        number of requests that received it."""
        for index, ((left, right), result) in enumerate(zip(pairs, results)):
            why = oracle.mismatch(left, right, result)
            if why is not None:
                self.wrong += 1 if counts is None else counts[index]
                if len(self.notes) < 5:
                    self.notes.append(f"WRONG VERDICT {left} = {right}: {why}")


def run_batches(workload, seconds, trace, run, oracle):
    from spans import Tracer, analyse

    tracer, replay_tracer = Tracer(), Tracer()
    if trace:
        tracer.install_pool_start()
    try:
        workload.setup()
    finally:
        tracer.restore()
    pool_start = sum(span[4] - span[3] for span in tracer.spans) / 1e9
    tracer.spans.clear()
    replay_pairs = 0
    iteration = 0
    while True:
        traced = trace and iteration % 2 == 1
        engine, pairs = workload.prepare(iteration)
        run.attempted += len(pairs)
        if traced:
            before = counters(engine)
            tracer.install()
        started = time.perf_counter()
        try:
            results = engine.equal_many_detailed(pairs)
        except Exception:
            results = None
            run.notes.append(traceback.format_exc())
        elapsed = time.perf_counter() - started
        if traced:
            tracer.restore()
            add_delta(run.deltas, before, counters(engine))
        if results is None:
            run.failed += len(pairs)
        else:
            run.pairs[traced] += len(pairs)
            run.wall[traced] += elapsed
            if not traced:
                run.latencies.append(elapsed)
            run.check(oracle, pairs, results)
            run.wrong += workload.check_by_construction(results)
            if traced and engine.stats()["last_batch"]["executor"]["mode"] == "pool":
                replay_pairs += replay_in_process(replay_tracer, pairs)
        workload.finish(engine)
        if not workload.repeats_expressions:
            oracle.forget()
        iteration += 1
        if run.wall[False] + run.wall[True] >= seconds and (
            not trace or (run.pairs[False] and run.pairs[True])
        ):
            break
    run.peak_rss_mb = max_rss_mb()
    workload.close()
    if not trace:
        return None
    run.spans = tracer.spans
    main = analyse(tracer.spans)
    replay = analyse(replay_tracer.spans) if replay_pairs else None
    return layer_metrics(run, main, replay, replay_pairs, pool_start=pool_start)


def replay_in_process(tracer, pairs):
    """Traced in-process run of a batch the pool answered.

    Spans inside forked pool workers are invisible, so the pool's
    compile/decide split is measured on the same pairs with ``workers=1``
    on a fresh engine with cold memos.
    """
    from repro.core.decision import clear_caches
    from repro.engine import NKAEngine

    clear_caches()
    engine = NKAEngine(workers=1)
    tracer.install()
    try:
        engine.equal_many_detailed(pairs)
    finally:
        tracer.restore()
    return len(pairs)


def run_serve(workload, seconds, trace, run, oracle):
    import asyncio

    from spans import ServingProbe, Tracer, analyse
    from workloads import TENANT

    tracer = Tracer()
    probe = ServingProbe(tracer)
    verdicts = {}
    run.latency_kind = "requests"

    async def drive():
        service = await workload.ready()
        engine = service.engine(TENANT)
        slices = [False] if not trace else [False, True, False, True]
        for traced in slices:
            if traced:
                before = counters(engine)
                probe.install(service, TENANT)
                tracer.install()
            failed, wall, latencies = await workload.drive(
                service, seconds / len(slices), verdicts, tracer if traced else None
            )
            answered = len(latencies)
            if traced:
                tracer.restore()
                add_delta(run.deltas, before, counters(engine))
            run.attempted += answered + failed
            run.failed += failed
            run.pairs[traced] += answered
            run.wall[traced] += wall
            if not traced:
                run.latencies.extend(latencies)
        run.peak_rss_mb = max_rss_mb()
        run.rejected = service.stats()["service"]["rejected"]
        await service.close()

    asyncio.run(drive())
    keys = list(verdicts)
    run.check(oracle, [key[:2] for key in keys], [verdicts[key][0] for key in keys],
              counts=[verdicts[key][1] for key in keys])
    if not trace:
        return None
    run.spans = tracer.spans
    return layer_metrics(run, analyse(tracer.spans), None, 0, serving=probe)


def layer_metrics(run, main, replay, replay_pairs, pool_start=0.0, serving=None):
    """The ``per_layer`` metrics of ``BENCHMARK.json`` from one traced run.

    Times are seconds per 1000 answered pairs (``s/kpair``), counts per
    answered pair, sizes per call.  On a pooled ``all_pairs`` run the
    compile/decide metrics come from the in-process replay.
    """
    pairs, wall = run.pairs[True], run.wall[True]
    stages = replay or main
    stage_pairs = replay_pairs or pairs
    deltas = run.deltas

    def seconds(spans):
        return sum(span[4] - span[3] for span in spans) / 1e9

    def per_kpair(value, count=pairs):
        return 1000.0 * value / count if count else 0.0

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def named(analysis, name, parents=None):
        spans = analysis["by_name"].get(name, [])
        if parents is None:
            return spans
        return [span for span in spans if span[1] in parents]

    compiles = named(stages, "compile")
    compile_ids = {span[0] for span in compiles}
    stars = named(stages, "star", compile_ids)
    decides = named(stages, "decide")
    decide_ids = {span[0] for span in decides}
    dfa_spans = named(stages, "decide.support_dfa", decide_ids)
    children = stages["children"]
    plans = named(main, "planner.plan")
    executes = named(main, "executor.execute")
    reports = [span[6] for span in executes]
    pooled = [report for report in reports if report.chunks]
    publish_ids = {span[0] for span in named(main, "store.publish")}
    queries = sum(span[6][0] for span in plans)
    tasks = sum(span[6][1] for span in plans)
    metrics = {
        "planner.plan_s": (per_kpair(seconds(plans)), "s/kpair"),
        "planner.estimate_s": (per_kpair(seconds(named(main, "planner.estimate"))), "s/kpair"),
        "planner.tasks_per_query": (ratio(tasks, queries), "ratio"),
        "planner.dedupe_ratio": (1.0 - ratio(tasks, queries) if queries else 0.0, "ratio"),
        "compile.calls": (ratio(len(compiles), stage_pairs), "1/pair"),
        "compile.s": (per_kpair(seconds(compiles), stage_pairs), "s/kpair"),
        "compile.epsilon_s": (per_kpair(seconds(stars), stage_pairs), "s/kpair"),
        "compile.trim_s": (
            per_kpair(seconds(named(stages, "trim", compile_ids)), stage_pairs), "s/kpair"),
        "compile.thompson_s": (per_kpair(sum(
            span[4] - span[3] - sum(c[4] - c[3] for c in children.get(span[0], ()))
            for span in compiles) / 1e9, stage_pairs), "s/kpair"),
        "compile.states_in": (ratio(sum(span[6] for span in stars), len(stars)), "states"),
        "compile.states_out": (
            ratio(sum(span[6] for span in compiles), len(compiles)), "states"),
        "decide.calls": (ratio(len(decides), stage_pairs), "1/pair"),
        "decide.s": (per_kpair(seconds(decides), stage_pairs), "s/kpair"),
        "decide.tzeng_s": (
            per_kpair(seconds(named(stages, "decide.tzeng", decide_ids)), stage_pairs),
            "s/kpair"),
        "decide.support_dfa_s": (per_kpair(seconds(dfa_spans), stage_pairs), "s/kpair"),
        "decide.infinite_frac": (
            ratio(len({span[1] for span in dfa_spans}), len(decides)), "fraction"),
        "decide.equal_frac": (ratio(sum(span[6] for span in decides), len(decides)), "fraction"),
        "executor.s": (per_kpair(seconds(executes)), "s/kpair"),
        "executor.worker_busy_frac": (ratio(
            sum(report.worker_seconds for report in reports),
            sum(report.wall_seconds * report.workers for report in reports)), "fraction"),
        "executor.straggler_s": (ratio(sum(
            report.max_chunk_seconds - report.worker_seconds / report.chunks
            for report in pooled), len(pooled)), "s/batch"),
        "pool.start_s": (pool_start, "s"),
        "pool.restarts": (deltas.get("restarts", 0), "count"),
        "store.get_s": (per_kpair(seconds(named(main, "store.get"))), "s/kpair"),
        "store.verdict_get_s": (per_kpair(seconds(named(main, "store.verdict_get"))), "s/kpair"),
        "store.probe_s": (per_kpair(seconds(named(main, "store.probe"))), "s/kpair"),
        "store.publish_s": (per_kpair(seconds(
            [span for span in named(main, "store.publish") if span[1] not in publish_ids]
        )), "s/kpair"),
        "store.hits": (ratio(deltas.get("store_hits", 0), pairs), "1/pair"),
        "store.misses": (ratio(deltas.get("store_misses", 0), pairs), "1/pair"),
        "store.verdict_hits": (ratio(deltas.get("store_verdict_hits", 0), pairs), "1/pair"),
        "store.bytes_read": (
            ratio(sum(span[6] for span in named(main, "store.decode")), pairs), "B/pair"),
        "store.corrupt_skipped": (deltas.get("store_corrupt", 0), "count"),
        "cache.wfa_hit_ratio": (ratio(
            deltas.get("wfa_hits", 0), deltas.get("wfa_hits", 0) + deltas.get("wfa_misses", 0)),
            "ratio"),
        "cache.verdict_hit_ratio": (ratio(
            deltas.get("verdict_hits", 0),
            deltas.get("verdict_hits", 0) + deltas.get("verdict_misses", 0)), "ratio"),
        "cache.fragment_hit_ratio": (ratio(
            deltas.get("fragment_hits", 0),
            deltas.get("fragment_hits", 0) + deltas.get("fragment_misses", 0)), "ratio"),
        "kernel.vectorized_ops": (ratio(deltas.get("vectorized", 0), pairs), "1/pair"),
        "kernel.fallback_ops": (ratio(deltas.get("fallbacks", 0), pairs), "1/pair"),
    }
    waits = serving.waits if serving else []
    batches = serving.engine_seconds if serving else []
    engine_share = ratio(sum(s * n for s, n in batches), sum(n for _s, n in batches))
    request_spans = named(main, "serving.request")
    metrics.update({
        "serving.queue_wait_ms": (1000.0 * ratio(sum(waits), len(waits)), "ms"),
        "serving.batch_size": (
            ratio(sum(serving.batch_sizes), len(serving.batch_sizes)) if serving else 0.0,
            "requests"),
        "serving.engine_ms_per_batch": (
            1000.0 * ratio(sum(s for s, _n in batches), len(batches)), "ms"),
        "serving.self_ms": (
            1000.0 * (seconds(request_spans) / len(request_spans) - engine_share)
            if request_spans else 0.0, "ms"),
        "serving.rejected": (run.rejected, "count"),
        "trace.overhead_frac": (
            ratio(wall * run.pairs[False], run.wall[False] * pairs) - 1.0, "fraction"),
        "trace.unattributed_frac": (max(0.0, 1.0 - main["covered_s"] / wall), "fraction"),
    })
    run.notes.append(attribution("traced", main, wall))
    if replay is not None:
        replay_wall = seconds(named(replay, "planner.plan") + named(replay, "executor.execute"))
        run.notes.append(attribution("in-process replay", replay, replay_wall))
    return metrics


def attribution(label, analysis, wall):
    """One line: each layer's exclusive share of the traced wall time."""
    shares = sorted(analysis["self_by_layer"].items(), key=lambda item: -item[1])
    parts = [f"{layer} {seconds / wall:.3f}" for layer, seconds in shares if wall]
    return f"attribution ({label}, self time / wall {wall:.3f} s): " + ", ".join(parts)


def end_to_end_metrics(run, setup):
    ordered = sorted(run.latencies)
    p99 = percentile(ordered, 0.99)
    beyond = sum(1 for value in ordered if value > p99)
    run.notes.append(
        f"latency: {len(ordered)} samples ({run.latency_kind}), p99 {1000.0 * p99:.6g} ms"
        f" with {beyond} samples beyond it; set-up samples"
        f" {', '.join(f'{s:.4f}' for s in setup[1])} s"
    )
    return {
        "setup_s": (setup[0], "s"),
        "pairs_per_s": (run.pairs[False] / run.wall[False], "pairs/s"),
        "latency_p50_ms": (1000.0 * statistics.median(ordered), "ms"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


def provenance(seed, removed):
    from repro.linalg.kernels import backend_name

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel": backend_name(),
        "seed": seed,
        "cleared_env": removed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)

    removed = clean_environment()
    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"run.py: the program is not here (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT)]

    import workloads
    from oracle import SeriesOracle

    if workloads.WORKLOADS[args.workload].one_cpu and hasattr(os, "sched_setaffinity"):
        # Set-up probes inherit the affinity.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.parent.mkdir(exist_ok=True)
    workloads.spread_directories(workdir.parent)
    workdir.mkdir()
    run, oracle = Run(), SeriesOracle()
    try:
        setup = None
        if not args.trace:
            setup = probe_setups(args.workload, args.seed, args.tiny, str(workdir))
        workload = workloads.make(args.workload, args.seed, args.tiny, str(workdir))
        runner = run_serve if args.workload == "serve_warm" else run_batches
        metrics = runner(workload, args.seconds, bool(args.trace), run, oracle)
        if not args.trace:
            metrics = end_to_end_metrics(run, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it

    failed = run.failed + run.wrong
    error_rate = failed / run.attempted if run.attempted else 1.0
    print(f"provenance: {json.dumps(provenance(args.seed, removed), sort_keys=True)}")
    for note in run.notes:
        print(note)
    print(f"error_rate: {error_rate:.6f} fraction ({failed} of {run.attempted};"
          f" {oracle.checked} verdicts checked by the series oracle)")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name}: {value:.6g} {unit}")
    if run.spans:
        from spans import write_spans

        spans_path = HERE / ".spans" / f"{args.workload}-seed{args.seed}.jsonl"
        spans_path.parent.mkdir(exist_ok=True)
        write_spans(run.spans, spans_path)
        print(f"spans: {len(run.spans)} written to {spans_path.relative_to(ROOT)}")
    correct = failed == 0 and run.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
