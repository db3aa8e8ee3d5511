"""Command-line entry point: run simulations and paper experiments.

Examples::

    python -m repro run deepsjeng swque --instructions 60000
    python -m repro run exchange2 swque --verify        # golden-model lockstep
    python -m repro compare exchange2 --policies shift age swque
    python -m repro experiment fig8 fig11 --instructions 40000
    python -m repro trace --workload int --policy swque --out-dir telemetry/
    python -m repro sweep --policies age swque --timeout 600 --retries 2 \\
        --cache-dir .sweep-cache
    python -m repro replay '{"workload": "mcf", "policy": "swque"}' --from-cycle 12000
    python -m repro serve --port 8642 --workers 4 --cache-dir .repro-cache
    python -m repro list
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from repro.config import LARGE, MEDIUM
from repro.core.factory import IQ_POLICIES
from repro.sim.experiments import EXPERIMENTS, regenerate
from repro.sim.harness import make_grid, run_sweep
from repro.sim.runner import format_table, run_policies
from repro.sim.simulator import simulate
from repro.workloads.spec2017 import SPEC2017_PROFILES

#: ``trace --workload`` suite shortcuts: a representative MLP-class
#: profile from each suite, chosen because its phase behaviour actually
#: exercises SWQUE mode switching (the thing worth tracing).
_SUITE_SHORTCUTS = {"int": "xz", "fp": "fotonik3d"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="SWQUE (MICRO 2019) reproduction: simulations and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one workload under one IQ policy")
    run.add_argument("workload", choices=sorted(SPEC2017_PROFILES))
    run.add_argument("policy", choices=IQ_POLICIES)
    run.add_argument("--instructions", type=int, default=60_000)
    run.add_argument("--large", action="store_true", help="use the large model")
    run.add_argument("--verify", action="store_true",
                     help="cross-check every commit against the golden "
                          "reference model (lockstep architectural oracle)")
    run.add_argument("--profile", action="store_true",
                     help="measure host-side throughput and print the "
                          "per-stage wall-time shares instead of a plain run")

    compare = sub.add_parser("compare", help="compare IQ policies on one workload")
    compare.add_argument("workload", choices=sorted(SPEC2017_PROFILES))
    compare.add_argument("--policies", nargs="+", default=["shift", "age", "swque"],
                         choices=IQ_POLICIES)
    compare.add_argument("--instructions", type=int, default=60_000)
    compare.add_argument("--large", action="store_true")

    experiment = sub.add_parser("experiment",
                                help="regenerate paper figures/tables as one grid")
    experiment.add_argument("names", nargs="+", choices=list(EXPERIMENTS))
    experiment.add_argument("--instructions", type=int, default=None,
                            help="default: each experiment's own budget")

    trace = sub.add_parser(
        "trace",
        help="run one cell with telemetry and export the interval "
             "timeline, event log, and a Chrome/Perfetto trace",
    )
    trace.add_argument("--workload", default="int",
                       choices=sorted(SPEC2017_PROFILES) + sorted(_SUITE_SHORTCUTS),
                       help="profile name, or a suite shortcut "
                            "(int/fp -> a representative mode-switching "
                            "profile)")
    trace.add_argument("--policy", default="swque", choices=IQ_POLICIES)
    trace.add_argument("--instructions", type=int, default=60_000)
    trace.add_argument("--interval", type=int, default=2_000,
                       help="telemetry sampling interval in cycles "
                            "(default 2000; the simulate() default is "
                            "10000)")
    trace.add_argument("--seed", type=int, default=None)
    trace.add_argument("--warmup", type=int, default=None, metavar="N",
                       help="warmup instructions (default: a quarter of "
                            "the trace); 0 samples the cold machine too")
    trace.add_argument("--large", action="store_true")
    trace.add_argument("--out-dir", default="telemetry", metavar="DIR",
                       help="directory for the exported artifacts "
                            "(default: ./telemetry)")

    sweep = sub.add_parser(
        "sweep",
        help="fault-tolerant workload x policy sweep (supervised workers, "
             "lost-worker retries, resume from a result cache)",
    )
    sweep.add_argument("--workloads", nargs="+", default=None,
                       choices=sorted(SPEC2017_PROFILES),
                       help="default: every SPEC2017 profile")
    sweep.add_argument("--policies", nargs="+",
                       default=["shift", "age", "circ", "circ-pc", "swque"],
                       choices=IQ_POLICIES)
    sweep.add_argument("--instructions", type=int, default=60_000)
    sweep.add_argument("--seed", type=int, default=None,
                       help="trace seed (default: each profile's own seed, "
                            "deterministic)")
    sweep.add_argument("--large", action="store_true")
    sweep.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="supervised worker processes (default: CPU "
                            "count - 1); 0 = run inline in this process")
    sweep.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                       help="per-job wall-clock budget; an overrunning "
                            "worker is killed and its cell fails as "
                            "JobTimeout, never re-run (ignored with --jobs 0)")
    sweep.add_argument("--retries", type=int, default=1,
                       help="extra attempts for a cell whose worker was "
                            "lost (crash, hang); a cell that fails or times "
                            "out is deterministic and never re-run (default "
                            "1; ignored with --jobs 0)")
    sweep.add_argument("--backoff", type=float, default=0.5, metavar="SECONDS",
                       help="base delay before re-running a lost worker's "
                            "cell, doubled per attempt (default 0.5)")
    sweep.add_argument("--max-cycles", type=int, default=None,
                       help="per-run cycle budget (divergence watchdog)")
    sweep.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="result cache: cells cached there are restored, "
                            "not run, and each success is stored as it "
                            "finishes, so re-running a killed sweep resumes "
                            "it; failed cells run again (same store as "
                            "'serve --cache-dir'; default: no cache)")
    sweep.add_argument("--telemetry-dir", default=None, metavar="DIR",
                       help="run every cell with interval telemetry and "
                            "export per-cell timeline/events/Chrome-trace "
                            "artifacts into DIR")

    replay = sub.add_parser(
        "replay",
        help="rerun a job spec (a failed sweep cell prints its own) from "
             "cycle 0 with the golden model and per-cycle tracing",
    )
    replay.add_argument("spec",
                        help="job spec: inline JSON or a path to a JSON file "
                             "(job fields plus an optional \"fault\" object)")
    replay.add_argument("--from-cycle", type=int, default=0, metavar="CYCLE",
                        help="run silently up to this cycle, then trace "
                             "(default 0)")
    replay.add_argument("--cycles", type=int, default=None,
                        help="stop after this many traced cycles "
                             "(default: run to completion or failure)")
    replay.add_argument("--no-trace", action="store_true",
                        help="suppress the per-cycle trace, print only the "
                             "outcome")
    replay.add_argument("--export-trace", default=None, metavar="DIR",
                        help="export the rerun's telemetry "
                             "(timeline/events JSONL + Chrome trace) into DIR")
    replay.add_argument("--telemetry-interval", type=int, default=None,
                        metavar="CYCLES",
                        help="replay telemetry sampling interval "
                             "(default 500: full-resolution for short windows)")

    # Flags of a worker node: 'repro work', and the in-process node of
    # 'repro serve' (a fleet of one).
    node = argparse.ArgumentParser(add_help=False)
    node.add_argument("--cache-dir", default=".repro-cache", metavar="DIR",
                      help="content-addressed result store (default "
                           "./.repro-cache); 'none' disables caching")
    node.add_argument("--workers", type=int, default=2,
                      help="supervised worker processes, restarted on "
                           "crash/hang (default 2)")
    node.add_argument("--lease", type=float, default=10.0, metavar="SECONDS",
                      help="lease duration; a node silent this long is "
                           "presumed dead and its jobs are reclaimed at "
                           "the next fencing epoch (default 10)")
    node.add_argument("--max-job-crashes", type=int, default=2, metavar="K",
                      help="worker losses one job may cause before it is "
                           "quarantined as poison (default 2)")
    node.add_argument("--timeout", type=float, default=None,
                      metavar="SECONDS",
                      help="per-job wall-clock budget; an overrunning "
                           "worker is killed and the job fails as "
                           "JobTimeout, with no crash charge or re-run")
    node.add_argument("--heartbeat-timeout", type=float, default=10.0,
                      metavar="SECONDS",
                      help="heartbeat staleness before a worker is "
                           "declared hung and killed (default 10)")
    node.add_argument("--drain-timeout", type=float, default=30.0,
                      metavar="SECONDS",
                      help="on SIGINT/SIGTERM, keep working for up to this "
                           "long, then release unfinished leases to the "
                           "durable queue with no crash charge (default 30)")

    serve = sub.add_parser(
        "serve", parents=[node],
        help="simulation-as-a-service: HTTP API with a content-addressed "
             "result cache over a durable job queue, run by an in-process "
             "worker node (or by 'repro work' nodes with --queue-dir)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642,
                       help="listen port (default 8642; 0 = ephemeral)")
    serve.add_argument("--cache-max-mb", type=int, default=64,
                       help="cache size bound in MiB; least-recently-used "
                            "entries are evicted beyond it (default 64)")
    serve.add_argument("--backlog", type=int, default=64,
                       help="max unclaimed jobs before submissions are "
                            "rejected with 429 (default 64)")
    serve.add_argument("--quota-rate", type=float, default=None,
                       metavar="PER_SEC",
                       help="per-tenant admission quota in jobs/second "
                            "(token bucket; default: unlimited)")
    serve.add_argument("--quota-burst", type=float, default=10.0,
                       help="per-tenant token-bucket burst size "
                            "(default 10; used with --quota-rate)")
    serve.add_argument("--queue-dir", default=None, metavar="DIR",
                       help="fleet mode: run as a *stateless* frontend "
                            "over this shared durable queue directory; "
                            "execution happens on 'repro work' nodes "
                            "sharing it (default: an in-process node over "
                            "the private queue <cache-dir>/queue)")

    work = sub.add_parser(
        "work", parents=[node],
        help="run one fleet worker node: pulls jobs from a shared "
             "--queue-dir under leases with fencing epochs and commits "
             "results exactly once",
    )
    work.add_argument("--queue-dir", required=True, metavar="DIR",
                      help="the shared durable queue directory "
                           "(same one the 'serve --queue-dir' "
                           "frontends append to)")
    work.add_argument("--node-id", default=None,
                      help="stable node name in the registry "
                           "(default: a random worker-<hex> id)")

    sub.add_parser("list", help="list workloads and policies")
    return parser


def _sigterm_as_interrupt() -> None:
    """Make SIGTERM end a foreground ``serve``/``work`` like Ctrl-C."""
    def _term(signum, frame):
        raise KeyboardInterrupt(f"signal {signum}")

    signal.signal(signal.SIGTERM, _term)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        rows = [
            [name, p.suite, p.classification, p.description]
            for name, p in sorted(SPEC2017_PROFILES.items())
        ]
        print(format_table(["workload", "suite", "class", "description"], rows))
        print("\npolicies:", ", ".join(IQ_POLICIES))
        return 0
    if args.command == "run":
        config = LARGE if args.large else MEDIUM
        if args.profile:
            from repro.telemetry.profile import measure_throughput

            profiled = measure_throughput(
                args.workload,
                args.policy,
                config=config,
                num_instructions=args.instructions,
                profile_stages=True,
            )
            print(f"{args.workload}/{args.policy}/{config.name}: "
                  f"{profiled.cycles_per_sec:,.0f} cycles/sec, "
                  f"{profiled.instructions_per_sec:,.0f} insts/sec "
                  f"({profiled.cycles:,} cycles in {profiled.seconds:.2f}s)")
            shares = profiled.stage_shares
            if shares:
                print("per-stage wall-time shares:")
                for stage, share in sorted(
                    shares.items(), key=lambda kv: -kv[1]
                ):
                    print(f"  {stage:>10}: {share:6.1%}")
            return 0
        result = simulate(args.workload, args.policy, config=config,
                          num_instructions=args.instructions,
                          verify=args.verify)
        print(result.summary())
        if args.verify:
            print(f"verified: golden model matched all "
                  f"{result.stats.committed} commits "
                  f"(digest {result.commit_digest})")
        return 0
    if args.command == "trace":
        from repro.telemetry import (
            EV_MODE_SWITCH,
            TelemetryConfig,
            export_run,
        )

        workload = _SUITE_SHORTCUTS.get(args.workload, args.workload)
        config = LARGE if args.large else MEDIUM
        result = simulate(
            workload,
            args.policy,
            config=config,
            num_instructions=args.instructions,
            seed=args.seed,
            warmup_instructions=args.warmup,
            telemetry=TelemetryConfig(interval=args.interval),
        )
        tel = result.telemetry
        print(result.summary())
        print(tel.summary())
        switches = tel.events_named(EV_MODE_SWITCH)
        if switches:
            print(f"mode switches ({len(switches)}):")
            for event in switches:
                print(f"  cycle {event.cycle:>8}: "
                      f"{event.args['from_mode']} -> {event.args['to_mode']}")
        paths = export_run(
            tel,
            args.out_dir,
            f"{workload}-{args.policy}-{config.name}",
            meta={
                "workload": workload,
                "policy": args.policy,
                "config": config.name,
                "num_instructions": args.instructions,
                "seed": result.seed,
                "config_hash": result.config_hash,
                "commit_digest": result.commit_digest,
            },
        )
        for kind, path in paths.items():
            print(f"  {kind:>8}: {path}")
        return 0
    if args.command == "replay":
        from pathlib import Path

        from repro.sim.harness import job_from_spec
        from repro.verify.replay import (
            DEFAULT_REPLAY_TELEMETRY_INTERVAL,
            replay as run_replay,
        )

        try:
            text = args.spec
            if not text.lstrip().startswith("{"):
                text = Path(text).read_text()
            job = job_from_spec(json.loads(text))
        except KeyError as exc:
            print(f"error: job spec is missing field {exc}", file=sys.stderr)
            return 2
        except (OSError, ValueError) as exc:  # JSONDecodeError included
            print(f"error: bad job spec: {exc}", file=sys.stderr)
            return 2
        try:
            outcome = run_replay(
                job,
                cycles=args.cycles,
                from_cycle=args.from_cycle,
                trace=not args.no_trace,
                telemetry_interval=(
                    args.telemetry_interval
                    if args.telemetry_interval is not None
                    else DEFAULT_REPLAY_TELEMETRY_INTERVAL
                ),
            )
        except ValueError as exc:  # a bad budget in the spec or the flags
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(outcome.summary())
        if args.export_trace and outcome.telemetry is not None:
            from repro.telemetry import export_run

            paths = export_run(
                outcome.telemetry,
                args.export_trace,
                f"{job.workload_name}-{job.policy}-{job.config.name}-replay",
                meta={
                    "key": job.key,
                    "workload": job.workload_name,
                    "policy": job.policy,
                    "config": job.config.name,
                    "status": outcome.status,
                },
            )
            for kind, path in paths.items():
                print(f"  {kind:>8}: {path}")
        return 0 if outcome.ok else 1
    if args.command == "compare":
        config = LARGE if args.large else MEDIUM
        results = run_policies([args.workload], args.policies, config=config,
                               num_instructions=args.instructions)
        rows = [[p, r.ipc, r.mpki, r.stats.branch_mpki]
                for p, r in results[args.workload].items()]
        print(format_table(["policy", "IPC", "MPKI", "branch MPKI"], rows))
        return 0
    if args.command == "sweep":
        config = LARGE if args.large else MEDIUM
        workloads = args.workloads or sorted(SPEC2017_PROFILES)
        jobs = make_grid(
            workloads,
            args.policies,
            configs=(config,),
            num_instructions=args.instructions,
            seed=args.seed,
            max_cycles=args.max_cycles,
        )
        total = len(jobs)
        progress = {"done": 0, "failed": 0, "retried": 0}

        def on_result(job, result):  # restored cells included
            progress["done"] += 1
            if not result.ok:
                progress["failed"] += 1
            print(
                f"[{progress['done']}/{total}] {result.summary()}",
                flush=True,
            )
            print(
                f"  progress: {progress['done']}/{total} done, "
                f"{progress['failed']} failed, "
                f"{progress['retried']} retried",
                file=sys.stderr,
                flush=True,
            )

        def on_retry(job, next_attempt, error_type):
            progress["retried"] += 1
            print(
                f"  retry: {job.workload_name}/{job.policy} "
                f"[{error_type}] -> attempt {next_attempt}",
                file=sys.stderr,
                flush=True,
            )

        try:
            report = run_sweep(
                jobs,
                max_workers=args.jobs,
                timeout=args.timeout,
                retries=args.retries,
                backoff=args.backoff,
                cache_dir=args.cache_dir,
                telemetry_dir=args.telemetry_dir,
                on_result=on_result,
                on_retry=on_retry,
            )
        except ValueError as exc:  # a bad --jobs/--retries/--timeout/...
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print()
        print(report.summary())
        if report.interrupted:
            return 130  # conventional fatal-signal exit for SIGINT
        return 0 if report.all_ok else 1
    if args.command == "serve":
        from repro.service import ReproService

        cache_dir = None if args.cache_dir == "none" else args.cache_dir
        try:
            service = ReproService(
                host=args.host,
                port=args.port,
                cache_dir=cache_dir,
                cache_max_bytes=args.cache_max_mb * 1024 * 1024,
                workers=args.workers,
                max_backlog=args.backlog,
                timeout=args.timeout,
                max_job_crashes=args.max_job_crashes,
                heartbeat_timeout=args.heartbeat_timeout,
                quota_rate=args.quota_rate,
                quota_burst=args.quota_burst,
                queue_dir=args.queue_dir,
                lease_seconds=args.lease,
            )
        except RuntimeError as exc:  # queue in use, or an earlier format
            print(f"repro serve: {exc}", file=sys.stderr)
            return 1
        host, port = service.address
        print(f"repro serve: listening on http://{host}:{port}", flush=True)
        if service.recovered:
            print(f"  recovered {service.recovered} unfinished job(s) of a "
                  f"previous run", flush=True)
        quota = (f"{args.quota_rate:g}/s" if args.quota_rate is not None
                 else "unlimited")
        where = (f"fleet frontend on {args.queue_dir}"
                 if args.queue_dir is not None
                 else f"local node, {args.workers} workers, on "
                      f"{service.queue.root}")
        print(f"  {where}  cache: {cache_dir or 'disabled'}  "
              f"backlog: {args.backlog}  quota: {quota}", flush=True)
        _sigterm_as_interrupt()
        try:
            service.serve_forever()
        except KeyboardInterrupt:
            pass
        print("repro serve: draining...", flush=True)
        outcome = service.stop(drain=True, timeout=args.drain_timeout)
        if outcome["requeued"]:
            print(f"repro serve: {outcome['requeued']} unfinished job(s) "
                  f"stay queued for the next start", flush=True)
        print("repro serve: bye", flush=True)
        return 0
    if args.command == "work":
        from repro.service.node import WorkerNode

        cache_dir = None if args.cache_dir == "none" else args.cache_dir
        try:
            node = WorkerNode(
                args.queue_dir,
                cache_dir=cache_dir,
                workers=args.workers,
                node_id=args.node_id,
                lease_seconds=args.lease,
                max_job_crashes=args.max_job_crashes,
                job_timeout=args.timeout,
                heartbeat_timeout=args.heartbeat_timeout,
            )
        except RuntimeError as exc:  # a queue of an earlier format
            print(f"repro work: {exc}", file=sys.stderr)
            return 1
        node.start()
        print(f"repro work: node {node.node_id} pulling from "
              f"{args.queue_dir} ({args.workers} workers, "
              f"{args.lease:g}s leases)", flush=True)
        _sigterm_as_interrupt()
        interrupted = False
        try:
            node.run_forever()
        except KeyboardInterrupt:
            interrupted = True
        print("repro work: draining...", flush=True)
        summary = node.drain(timeout=args.drain_timeout)
        if summary["requeued"]:
            print(f"repro work: released {summary['requeued']} in-flight "
                  f"lease(s) for requeue on another node", flush=True)
        print("repro work: bye", flush=True)
        # Mirror the sweep/serve convention: fatal-signal exit on drain.
        return 130 if interrupted else 0
    if args.command == "experiment":
        out = regenerate(args.names, num_instructions=args.instructions)
        print(json.dumps(out, indent=2, default=str))
        return 0
    return 1  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":
    sys.exit(main())
