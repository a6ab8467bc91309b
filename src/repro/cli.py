"""Command-line interface: ``python -m repro <command>``.

Commands mirror the Privagic toolchain of Figure 5:

``analyze``
    Run the secure type analysis on a MiniC file and report the
    inferred color sets or the typing errors.

``compile``
    Analyze and partition; print the per-color modules (optionally to
    a directory, one ``.ir`` file per partition).

``run``
    Compile, partition and execute an entry point on the simulated
    SGX machine, reporting the result and the message traffic.

All three drive the :mod:`repro.pipeline` pass manager and accept
``--passes PIPELINE`` (comma-separated pass names),
``--print-after-each`` and ``--time-passes``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.core.colors import HARDENED, RELAXED
from repro.core.compiler import PrivagicCompiler
from repro.errors import PrivagicError
from repro.ir.interp import ENGINES
from repro.ir.printer import print_module
from repro.pipeline import ANALYZE_PIPELINE, PassManager


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file", help="source file (MiniC or MiniPy)")
    parser.add_argument("--mode", choices=[HARDENED, RELAXED],
                        default=HARDENED,
                        help="analysis mode (default: hardened)")
    parser.add_argument("--frontend", metavar="LANG", default=None,
                        help="source language: minic or minipy "
                             "(default: by file extension; .c/.mc/"
                             ".minic is MiniC, .mpy/.minipy is MiniPy)")
    parser.add_argument("--passes", metavar="PIPELINE", default=None,
                        help="comma-separated pass pipeline (default: "
                             "the full Figure-5 pipeline)")
    parser.add_argument("--print-after-each", action="store_true",
                        help="print the IR after every pass (stderr)")
    parser.add_argument("--time-passes", action="store_true",
                        help="print a per-pass wall-time table (stderr)")
    parser.add_argument("--optimize", metavar="POLICY", default=None,
                        help="placement policy for the "
                             "optimize-placement pass: none (default) "
                             "or kl (exempt effect-free chunks from "
                             "barrier tokens)")
    parser.add_argument("--partition-stats", action="store_true",
                        help="print the per-color partition table "
                             "(chunks, instructions, TCB, boundary "
                             "call sites) and, with --optimize, the "
                             "placement quality report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Privagic reproduction toolchain (MIDDLEWARE'24)")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze",
                             help="type-check and infer colors")
    _add_common(analyze)

    compile_cmd = sub.add_parser("compile",
                                 help="partition into per-color modules")
    _add_common(compile_cmd)
    compile_cmd.add_argument("-o", "--output",
                             help="directory for per-partition .ir files")
    compile_cmd.add_argument("--stats", action="store_true",
                             help="print the compilation metrics "
                                  "(per-pass timings, cache hits)")

    run = sub.add_parser("run", help="compile and execute")
    _add_common(run)
    run.add_argument("--entry", default="main",
                     help="entry point (default: main)")
    run.add_argument("--engine", choices=list(ENGINES), default=None,
                     help="interpreter engine (default: decoded, or "
                          "REPRO_ENGINE)")
    run.add_argument("--max-steps", type=int, default=None,
                     metavar="N",
                     help="abort the run after N scheduler steps")
    run.add_argument("--inject", metavar="SPEC", default=None,
                     help="fault-injection schedule, e.g. "
                          "'channel-drop:U->green:spawn:2,"
                          "iago-retval:malloc:1:replay' "
                          "(see repro.faults.plan)")
    run.add_argument("--chaos-seed", type=int, default=None,
                     metavar="SEED",
                     help="draw a random fault plan from SEED "
                          "instead of an explicit --inject spec")
    run.add_argument("--watchdog-steps", type=int, default=None,
                     metavar="N",
                     help="per-context step budget; exceeding it "
                          "raises WatchdogTimeout with stall "
                          "diagnostics")
    run.add_argument("--trace", metavar="OUT.json", default=None,
                     help="write a Chrome trace_event JSON of the run "
                          "(load in chrome://tracing or Perfetto)")
    run.add_argument("--stats", action="store_true",
                     help="print the full metrics dump after the run")
    run.add_argument("args", nargs="*", type=int,
                     help="integer arguments for the entry point")

    serve = sub.add_parser(
        "serve",
        help="host the partitioned KV application behind TCP "
             "(memcached text protocol)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=11311,
                       help="listening port; 0 picks an ephemeral "
                            "port, printed on startup (default: "
                            "11311)")
    serve.add_argument("--shards", type=int, default=None,
                       metavar="N",
                       help="serve through N shard-worker processes "
                            "behind a consistent-hash router "
                            "(default: single-process)")
    serve.add_argument("--batch", type=int, default=16,
                       help="max requests per interpreter drive "
                            "(1 disables batching; default: 16)")
    serve.add_argument("--batch-window", type=float, default=0.002,
                       metavar="SECONDS",
                       help="adaptive batch-coalescing cap "
                            "(default: 0.002)")
    serve.add_argument("--queue-depth", type=int, default=128,
                       help="pending-request bound; beyond it "
                            "requests are shed with SERVER_BUSY "
                            "(default: 128)")
    serve.add_argument("--capacity-bytes", type=int,
                       default=64 * 1024 * 1024,
                       help="untrusted cache LRU capacity")
    serve.add_argument("--engine", choices=list(ENGINES),
                       default=None,
                       help="interpreter engine (default: decoded, "
                            "or REPRO_ENGINE)")
    serve.add_argument("--max-steps", type=int,
                       default=50_000_000, metavar="N",
                       help="per-drive scheduler step budget")
    serve.add_argument("--watchdog-steps", type=int, default=None,
                       metavar="N",
                       help="per-context step budget (raises "
                            "WatchdogTimeout)")
    serve.add_argument("--max-requests", type=int, default=None,
                       metavar="N",
                       help="drain and exit after accepting N "
                            "requests (tests/smoke)")
    serve.add_argument("--inject", metavar="SPEC", default=None,
                       help="fault-injection schedule (see "
                            "repro.faults.plan)")
    serve.add_argument("--chaos-seed", type=int, default=None,
                       metavar="SEED",
                       help="random fault plan from SEED")
    serve.add_argument("--kill-shard", metavar="K:N", default=None,
                       help="chaos: shard K simulates an AEX (hard "
                            "process exit) after N operations "
                            "(requires --shards)")
    serve.add_argument("--on-death", default="restart",
                       choices=["restart", "rebalance", "degrade",
                                "fault"],
                       help="confirmed-shard-death policy (requires "
                            "--shards; default: restart)")
    serve.add_argument("--max-restarts", type=int, default=3,
                       metavar="N",
                       help="consecutive recoveries per shard before "
                            "its circuit breaker opens (default: 3)")
    serve.add_argument("--spawn-timeout", type=float, default=60.0,
                       metavar="SECONDS",
                       help="shard-worker ready-line deadline "
                            "(default: 60)")
    serve.add_argument("--connect-timeout", type=float, default=10.0,
                       metavar="SECONDS",
                       help="per-attempt shard connect cap "
                            "(default: 10)")
    serve.add_argument("--connect-retries", type=int, default=3,
                       metavar="N",
                       help="extra shard connect attempts with "
                            "exponential backoff (default: 3)")
    serve.add_argument("--probe-interval", type=float, default=None,
                       metavar="SECONDS",
                       help="probe an idle shard after this many "
                            "reply-free seconds (default: off)")
    serve.add_argument("--probe-timeout", type=float, default=5.0,
                       metavar="SECONDS",
                       help="an unanswered probe older than this is "
                            "a confirmed shard death (default: 5)")
    serve.add_argument("--forward-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="a busy shard whose oldest in-flight "
                            "request is older than this is dead "
                            "(default: off)")
    serve.add_argument("--orphan-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="shard workers self-terminate after "
                            "this many connection-free seconds "
                            "(default: off)")
    serve.add_argument("--net-inject", metavar="SPEC", default=None,
                       help="socket-chaos schedule for the shard "
                            "links (net-reset/-slow/-short/-garble; "
                            "see repro.faults.netchaos)")
    serve.add_argument("--net-chaos-seed", type=int, default=None,
                       metavar="SEED",
                       help="seed for the socket-chaos RNG")
    serve.add_argument("--trace", metavar="OUT.json", default=None,
                       help="write a Chrome trace_event JSON of the "
                            "serving run")
    serve.add_argument("--stats", action="store_true",
                       help="print the full metrics dump on "
                            "shutdown")

    loadgen = sub.add_parser(
        "loadgen",
        help="replay a YCSB workload against a running server")
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=11311)
    loadgen.add_argument("--workload", default="C",
                         help="YCSB workload: A/B/C/D/F or "
                              "'ycsb-a' aliases (default: C)")
    loadgen.add_argument("--clients", type=int, default=4,
                         help="concurrent client threads")
    loadgen.add_argument("--ops", type=int, default=1000,
                         help="total operations across all clients")
    loadgen.add_argument("--records", type=int, default=256,
                         help="preloaded keyspace size")
    loadgen.add_argument("--seed", type=int, default=42)
    loadgen.add_argument("--value-bytes", type=int, default=None,
                         help="value size (default: the workload's "
                              "record_bytes)")
    loadgen.add_argument("--max-retries", type=int, default=500,
                         help="SERVER_BUSY retries per operation "
                              "before abandoning it (default: 500)")
    loadgen.add_argument("--no-preload", action="store_true",
                         help="skip preloading the keyspace")
    loadgen.add_argument("--lockstep", action="store_true",
                         help="serialize client turns into a seeded "
                              "global order (fully deterministic "
                              "interleaving)")
    loadgen.add_argument("--json", action="store_true",
                         help="print the report as JSON")
    return parser


def _frontend_for(options):
    """The registered frontend the options select: an explicit
    --frontend name wins (unknown names get a did-you-mean error),
    otherwise the file extension decides."""
    from repro.secval import resolve_frontend
    return resolve_frontend(options.frontend, options.file)


def _compiler_for(options, **kwargs) -> PrivagicCompiler:
    return PrivagicCompiler(
        mode=options.mode, passes=options.passes,
        time_passes=options.time_passes,
        print_after_each=options.print_after_each,
        optimize=options.optimize, **kwargs)


def _print_partition_stats(ctx, program) -> None:
    """The --partition-stats tail: per-color table plus the placement
    quality report when the optimizer ran."""
    from repro.core.placement import (format_partition_stats,
                                      partition_stats)
    print(format_partition_stats(partition_stats(program)))
    if ctx is not None and ctx.placement_report is not None:
        import json as json_module
        print("placement report:")
        print(json_module.dumps(ctx.placement_report, indent=2,
                                sort_keys=True))


def cmd_analyze(options) -> int:
    module = _frontend_for(options).compile_source(
        _read(options.file), os.path.basename(options.file))
    manager = PassManager(options.passes or ANALYZE_PIPELINE,
                          time_passes=options.time_passes,
                          print_after_each=options.print_after_each)
    ctx = manager.run(module, mode=options.mode,
                      optimize=options.optimize)
    result = ctx.analysis
    if result is None:
        print("pipeline ran no 'secure-types' pass; nothing to report",
              file=sys.stderr)
        return 1
    if result.errors:
        for error in result.errors:
            print(f"error: {error}", file=sys.stderr)
        return 1
    print(f"analysis OK in {result.passes} pass(es); "
          f"colors: {sorted(result.named_colors()) or '(none)'}")
    for name in sorted(result.functions):
        fa = result.functions[name]
        print(f"  {name}: colorset={sorted(fa.color_set) or ['F']} "
              f"returns={fa.return_color}")
    if options.partition_stats:
        # The analyze pipeline stops before materialization; partition
        # quietly (sharing the planner and any placement decisions) so
        # the per-color table reflects what compile would emit.
        from repro.core.partition import partition
        program = ctx.program
        if program is None:
            program = partition(result, cache=ctx.cache,
                                planner=ctx.planner,
                                placement=ctx.placement)
        _print_partition_stats(ctx, program)
    return 0


def cmd_compile(options) -> int:
    compiler = _compiler_for(options)
    program = compiler.compile_source(_read(options.file),
                                      os.path.basename(options.file),
                                      frontend=_frontend_for(options).name)
    if program is not None:
        for color in program.colors:
            module = program.modules[color]
            text = print_module(module)
            if options.output:
                os.makedirs(options.output, exist_ok=True)
                path = os.path.join(options.output, f"{color}.ir")
                with open(path, "w") as handle:
                    handle.write(text)
                print(f"wrote {path} "
                      f"({module.instruction_count()} instructions)")
            else:
                print(text)
    else:
        # The pipeline stopped before partitioning: emit the
        # (optimized) single module instead.
        text = print_module(compiler.context.module)
        if options.output:
            os.makedirs(options.output, exist_ok=True)
            path = os.path.join(options.output, "module.ir")
            with open(path, "w") as handle:
                handle.write(text)
            print(f"wrote {path}")
        else:
            print(text)
    if options.partition_stats and program is not None:
        _print_partition_stats(compiler.context, program)
    if options.stats:
        from repro.obs.export import metrics_to_text
        print(metrics_to_text(compiler.context.metrics))
    return 0


def cmd_run(options) -> int:
    from repro.runtime import PrivagicRuntime
    from repro.sgx import SGXAccessPolicy

    obs = None
    metrics = tracer = None
    if options.trace or options.stats:
        from repro.obs import Observability
        obs = Observability(trace=options.trace is not None)
        # Compile through the same registry/tracer so the pipeline's
        # per-pass metrics and spans land next to the runtime's.
        metrics, tracer = obs.registry, obs.tracer
    compiler = _compiler_for(options, metrics=metrics, tracer=tracer)
    program = compiler.compile_source(_read(options.file),
                                      os.path.basename(options.file),
                                      frontend=_frontend_for(options).name)
    if program is None:
        raise PrivagicError(
            "the pass pipeline did not produce a partitioned program "
            "(add 'partition' to --passes)")
    kwargs = {}
    if options.max_steps is not None:
        kwargs["max_steps"] = options.max_steps
    if options.watchdog_steps is not None:
        kwargs["watchdog_steps"] = options.watchdog_steps
    runtime = PrivagicRuntime(program, engine=options.engine, **kwargs)
    SGXAccessPolicy().attach(runtime.machine)
    if obs is not None:
        obs.attach(runtime)
    injector = _build_injector(options, program)
    if injector is not None:
        # After obs, so injection/detection events reach the tracer.
        injector.attach(runtime)
        print(f"chaos: injecting [{injector.plan.spec()}]",
              file=sys.stderr)
    try:
        result = runtime.run(options.entry, options.args)
    finally:
        if obs is not None:
            obs.detach()
        # The trace is most valuable when the run died with a typed
        # fault, so write it on the failure path too (stderr there,
        # to keep stdout clean for the fault-free contract).
        if obs is not None and options.trace:
            obs.write_trace(options.trace)
            print(f"trace: wrote {options.trace} "
                  f"({len(obs.tracer.events)} events)",
                  file=sys.stdout if sys.exc_info()[0] is None
                  else sys.stderr)
    if runtime.machine.stdout:
        sys.stdout.write(runtime.machine.stdout)
    print(f"{options.entry}({', '.join(map(str, options.args))}) "
          f"= {result}")
    print(f"messages: {runtime.stats.as_dict()}")
    if options.partition_stats:
        _print_partition_stats(compiler.context, program)
    if injector is not None:
        print(f"faults: injected={injector.injected_total()} "
              f"detected={injector.detected_total()} "
              f"of {injector.armed} armed")
    if obs is not None and options.stats:
        print(obs.metrics_text())
    return 0


def cmd_serve(options) -> int:
    """``repro serve``: the single-process server, or with
    ``--shards N`` the router over N shard workers — one path, two
    loops."""
    import dataclasses
    import signal
    import threading

    from repro.serve.router import RouterConfig, ShardRouter
    from repro.serve.server import PrivagicServer, ServeConfig

    sharded = options.shards is not None
    if sharded and options.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 1
    if not sharded and options.kill_shard is not None:
        print("error: --kill-shard requires --shards",
              file=sys.stderr)
        return 1
    obs = None
    if options.trace or options.stats:
        from repro.obs import Observability
        obs = Observability(trace=options.trace is not None)
    config = (RouterConfig if sharded else ServeConfig)(
        host=options.host, port=options.port, batch=options.batch,
        batch_window=options.batch_window,
        queue_depth=options.queue_depth,
        capacity_bytes=options.capacity_bytes,
        engine=options.engine, max_steps=options.max_steps,
        watchdog_steps=options.watchdog_steps,
        max_requests=options.max_requests)
    observe = dict(registry=obs.registry if obs is not None else None,
                   tracer=obs.tracer if obs is not None else None)
    injector = None
    if sharded:
        loop = ShardRouter(dataclasses.replace(
            config,
            shards=options.shards,
            on_death=options.on_death,
            max_restarts=options.max_restarts,
            spawn_timeout=options.spawn_timeout,
            connect_timeout=options.connect_timeout,
            connect_retries=options.connect_retries,
            probe_interval=options.probe_interval,
            probe_timeout=options.probe_timeout,
            forward_timeout=options.forward_timeout,
            orphan_timeout=options.orphan_timeout,
            net_inject=options.net_inject,
            net_chaos_seed=options.net_chaos_seed,
            crash_after=_parse_kill_shard(options.kill_shard,
                                          options.shards)
            if options.kill_shard is not None else {},
            inject=options.inject, chaos_seed=options.chaos_seed),
            **observe)
        where = f"routing {{}} over {options.shards} shard(s)"
    else:
        loop = PrivagicServer(config, **observe)
        if obs is not None:
            obs.attach(loop.engine.runtime)
        injector = _build_injector(options, loop.engine.program)
        if injector is not None:
            injector.attach(loop.engine.runtime)
            print(f"chaos: injecting [{injector.plan.spec()}]",
                  file=sys.stderr)
        where = "listening on {}"
    port = loop.bind()
    print(f"serve: {where.format(f'{options.host}:{port}')} "
          f"(batch={options.batch}, "
          f"queue-depth={options.queue_depth})", flush=True)
    previous_handler = None
    in_main = threading.current_thread() is threading.main_thread()
    if in_main:
        previous_handler = signal.signal(
            signal.SIGINT, lambda *_args: loop.request_stop())
    try:
        loop.serve_forever()
    finally:
        if in_main and previous_handler is not None:
            signal.signal(signal.SIGINT, previous_handler)
        if obs is not None:
            obs.detach()
            if options.trace:
                obs.write_trace(options.trace)
                print(f"trace: wrote {options.trace} "
                      f"({len(obs.tracer.events)} events)",
                      file=sys.stdout if sys.exc_info()[0] is None
                      else sys.stderr)
    registry = loop.registry
    if sharded:
        stats = loop.stats()
        summary = (f"{stats['routed']} request(s) over "
                   f"{stats['shards']} shard(s), "
                   f"ledger={stats['ledger_keys']} key(s), "
                   f"restarts={stats['restarts']}, "
                   f"shed={registry.counter('router.shed').get()}")
    else:
        summary = (f"{registry.counter('serve.requests').get()} "
                   f"request(s) over "
                   f"{registry.counter('serve.drives').get()} drive(s) "
                   f"(mean batch "
                   f"{registry.histogram('serve.batch_size').mean:.2f}), "
                   f"shed={registry.counter('serve.shed').get()}")
    print(f"serve: {'drained cleanly' if loop.drained else 'stopped'}: "
          f"{summary}")
    if injector is not None:
        print(f"faults: injected={injector.injected_total()} "
              f"detected={injector.detected_total()} "
              f"of {injector.armed} armed")
    if obs is not None and options.stats:
        print(obs.metrics_text())
    return 0


def _parse_kill_shard(spec: str, shards: int):
    """``K:N`` — shard K hard-exits after N operations."""
    try:
        index_text, after_text = spec.split(":", 1)
        index, after = int(index_text), int(after_text)
    except ValueError:
        raise PrivagicError(
            f"--kill-shard wants K:N (shard index, op count), "
            f"got {spec!r}")
    if not 0 <= index < shards:
        raise PrivagicError(
            f"--kill-shard index {index} out of range for "
            f"{shards} shard(s)")
    if after < 1:
        raise PrivagicError(
            f"--kill-shard op count must be >= 1, got {after}")
    return {index: after}


def cmd_loadgen(options) -> int:
    import json as json_module

    from repro.serve.loadgen import LoadError, format_report, run_load

    try:
        report = run_load(
            options.host, options.port, workload=options.workload,
            clients=options.clients, ops=options.ops,
            records=options.records, seed=options.seed,
            value_bytes=options.value_bytes,
            preload=not options.no_preload,
            lockstep=options.lockstep,
            max_retries=options.max_retries)
    except (ValueError, LoadError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if options.json:
        print(json_module.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_report(report))
    failed = report["dropped_connections"] or report["errors"] \
        or report["abandoned"]
    return 1 if failed else 0


def _build_injector(options, program):
    """The fault injector requested by --inject / --chaos-seed, or
    ``None`` for an honest run."""
    from repro.faults import FaultInjector, FaultPlan

    plan = FaultPlan.requested(options.inject, options.chaos_seed,
                               program)
    return None if plan is None else FaultInjector(plan)


def main(argv: Optional[List[str]] = None) -> int:
    from repro.errors import RuntimeFault, fault_exit_code

    options = build_parser().parse_args(argv)
    handler = {"analyze": cmd_analyze, "compile": cmd_compile,
               "run": cmd_run, "serve": cmd_serve,
               "loadgen": cmd_loadgen}[options.command]
    try:
        return handler(options)
    except RuntimeFault as error:
        # One structured line per fault, then the diagnostic detail;
        # the exit code identifies the fault class (errors.py).
        code = fault_exit_code(error)
        lines = str(error).splitlines() or [""]
        print(f"fault[{type(error).__name__}] exit={code}: {lines[0]}",
              file=sys.stderr)
        for line in lines[1:]:
            print(line, file=sys.stderr)
        return code
    except PrivagicError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
