"""Command-line interface: ``python -m repro`` or ``loopsim``.

Subcommands::

    loopsim run swim --dra --rf 5          one simulation, full stats
    loopsim run swim --trace-out t.json    ... plus a Perfetto/JSONL trace
    loopsim attribute swim                 measured per-loop cost breakdown
    loopsim fig4 [--workloads a,b] ...     regenerate a paper figure
    loopsim fig5 / fig6 / fig8 / fig9
    loopsim ablations                      all ten prose-claim studies
    loopsim loops [--dra|--machine NAME]   the §1 loop inventory
    loopsim trace swim -n 24               pipeview-style timeline
    loopsim trace capture swim -o t.gz     capture a replayable uop trace
    loopsim run trace:t.gz                 ... and simulate from it
    loopsim workloads [--json]             list every workload + scenario
    loopsim verify                         self-checking preset sweep
    loopsim verify --differential          cross-config consistency laws
    loopsim verify --fuzz --budget 60      fuzz random configs/workloads
    loopsim verify --replay case.json      re-run a fuzz reproducer
    loopsim explore                        search the DRA design space
    loopsim explore --space mechanisms     DRA vs read ports vs SSR
    loopsim explore --space smoke ...      tiny CI-sized exploration
    loopsim serve --journal j.jsonl        run the campaign service
    loopsim serve --resume ...             ... replaying unfinished jobs
    loopsim submit swim --dra --rf 5       run a cell through the service
    loopsim submit --ping / --stats        service health / metrics

Figure and ablation campaigns run on the fault-tolerant harness
(:mod:`repro.harness`): ``--jobs N`` runs cells in parallel worker
subprocesses, ``--cell-timeout S`` arms the hang watchdog, and
``--cache-dir DIR`` persists finished cells so an interrupted campaign
re-run with the same ``DIR`` re-executes only what is missing.  Failed
cells render as ``n/a`` plus a failure report instead of aborting the
figure.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro import CoreConfig, LoadRecovery, simulate
from repro.core.backend import DEFAULT_BACKEND
from repro.errors import (
    ReproError,
    SimulationHangError,
    WorkloadError,
)
from repro.harness import HarnessSettings, default_cache_dir
from repro.experiments import (
    ABLATIONS,
    ExperimentSettings,
    render_failure_report,
    render_loop_inventory,
    run_ablations,
    run_figure4,
    run_figure5,
    run_figure6,
    run_figure8,
    run_figure9,
)
from repro.workloads import ALL_WORKLOADS, SMOKE_WORKLOADS

#: Names suggested in help text for single-run subcommands: the paper's
#: 13 workloads plus the CI smoke workloads.  Not an argparse ``choices``
#: list — scenario names (``trace:<path>``, scenario families) are
#: open-ended syntax resolved by
#: :func:`repro.workloads.workload_profiles`, which raises a
#: :class:`~repro.errors.WorkloadError` (exit 2) for unknown names.
RUNNABLE_WORKLOADS = ALL_WORKLOADS + SMOKE_WORKLOADS

_WORKLOAD_HELP = (
    "workload name: a paper/smoke workload, a scenario family, "
    "or trace:<path> (see `loopsim workloads`)"
)


def _settings(args: argparse.Namespace) -> ExperimentSettings:
    return ExperimentSettings(
        instructions=args.instructions,
        seeds=tuple(range(args.seeds)),
        backend=getattr(args, "backend", DEFAULT_BACKEND),
    )


def _harness(args: argparse.Namespace) -> HarnessSettings:
    """Fault-tolerance settings for campaign subcommands."""
    return HarnessSettings(
        jobs=getattr(args, "jobs", 1),
        cell_timeout=getattr(args, "cell_timeout", None),
        cache_dir=getattr(args, "cache_dir", None),
        verify=getattr(args, "verify", False),
    )


def _workloads(args: argparse.Namespace) -> Sequence[str]:
    if not args.workloads:
        return ALL_WORKLOADS
    names = tuple(args.workloads.split(","))
    unknown = [name for name in names if name not in ALL_WORKLOADS]
    if unknown:
        raise WorkloadError(f"unknown workload(s): {', '.join(unknown)}")
    return names


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--instructions", type=int, default=10_000,
        help="measured instructions per run (default 10000)",
    )
    parser.add_argument(
        "--seeds", type=int, default=1,
        help="number of seeds to average (default 1)",
    )
    parser.add_argument(
        "--workloads", default="",
        help="comma-separated workload subset (default: all 13)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="concurrent simulation workers (default 1; >1 forces "
             "subprocess isolation)",
    )
    parser.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per simulation cell; hung cells are "
             "killed, retried, and reported",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent result cache: cells found in DIR are reused, "
             "so re-running an interrupted campaign with the same DIR "
             "executes only the missing cells",
    )
    parser.add_argument(
        "--verify", action="store_true",
        help="run every cell under the differential verifier (golden "
             "retire model + invariant checkers); violations fail the "
             "cell",
    )
    parser.add_argument(
        "--backend", default=DEFAULT_BACKEND, metavar="SPEC",
        help="kernel backend: reference, optimized, sampled, or "
             "sampled:<windows>x<measure>[+<warmup>] "
             "(default %(default)s; reference is the ground-truth loop)",
    )


def _run_config(args: argparse.Namespace) -> CoreConfig:
    if args.dra:
        config = CoreConfig.with_dra(args.rf)
    else:
        config = CoreConfig.base(args.rf)
    if getattr(args, "recovery", ""):
        config = config.replace(load_recovery=LoadRecovery(args.recovery))
    return config


def _cmd_run(args: argparse.Namespace) -> int:
    config = _run_config(args)
    bus = None
    jsonl = None
    chrome = None
    if args.trace_out:
        from repro.obs import EventBus
        from repro.obs.export import ChromeTraceExporter, JsonlExporter

        bus = EventBus()
        if args.trace_out.endswith(".jsonl"):
            jsonl = JsonlExporter(bus, args.trace_out)
        else:
            chrome = ChromeTraceExporter(bus)
    result = simulate(
        args.workload, config, instructions=args.instructions,
        seed=args.seed, obs=bus,
        backend=getattr(args, "backend", DEFAULT_BACKEND),
    )
    stats = result.stats
    print(result.describe())
    if result.sampling is not None:
        print(f"  {result.sampling.describe()}")
    print()
    for key, value in stats.summary().items():
        print(f"  {key:26s} {value:12.4f}")
    if config.dra is not None:
        print()
        for source, fraction in stats.operand_source_fractions().items():
            print(f"  operand {source.value:18s} {fraction:12.4%}")
    if jsonl is not None:
        jsonl.close()
        print(f"\nwrote {jsonl.events_written} events to {args.trace_out}")
    elif chrome is not None:
        count = chrome.write(args.trace_out)
        print(
            f"\nwrote {count} trace events to {args.trace_out} "
            "(open in https://ui.perfetto.dev)"
        )
    return 0


def _cmd_attribute(args: argparse.Namespace) -> int:
    from repro.obs import EventBus, MetricsCollector
    from repro.obs.attribution import LoopAttribution

    config = _run_config(args)
    bus = EventBus()
    collector = MetricsCollector(bus)
    attribution = LoopAttribution(bus, config)
    result = simulate(
        args.workload, config, instructions=args.instructions,
        seed=args.seed, obs=bus,
    )
    collector.snapshot_into(result.stats)
    report = attribution.report(
        result.stats, workload=result.workload,
        config_label=config.label,
    )
    print(report.render())
    if args.verify:
        mismatches = collector.verify_against(result.stats)
        if mismatches:
            print("\nevent/CoreStats mismatches:")
            for line in mismatches:
                print(f"  {line}")
            return 1
        print("\nevent stream reconciles with CoreStats counters")
    return 0


def _cmd_fig(args: argparse.Namespace) -> int:
    settings = _settings(args)
    harness = _harness(args)
    name = args.figure
    if name == "fig4":
        result = run_figure4(settings, workloads=_workloads(args),
                             harness=harness)
    elif name == "fig5":
        result = run_figure5(settings, workloads=_workloads(args),
                             harness=harness)
    elif name == "fig6":
        # Figure 6 is a single-workload CDF; honour --workloads by taking
        # the first requested workload rather than silently ignoring it.
        kwargs = {"harness": harness}
        if args.workloads:
            kwargs["workload"] = _workloads(args)[0]
        result = run_figure6(settings, **kwargs)
    elif name == "fig8":
        result = run_figure8(settings, workloads=_workloads(args),
                             harness=harness)
    elif name == "fig9":
        result = run_figure9(settings, workloads=_workloads(args),
                             harness=harness)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(name)
    print(result.render())
    # Partial figures still render, but the exit code must tell CI (and
    # a resuming user) that cells are missing.
    return 1 if getattr(result, "failures", None) else 0


def _cmd_ablations(args: argparse.Namespace) -> int:
    kwargs = {"workloads": _workloads(args)} if args.workloads else {}
    results, failures = run_ablations(
        [build(**kwargs) for build in ABLATIONS], _settings(args), _harness(args)
    )
    for result in results:
        print(result.render())
        print()
    if failures:
        print(render_failure_report(failures))
    return 1 if failures else 0


def _cmd_loops(args: argparse.Namespace) -> int:
    if getattr(args, "machine", ""):
        from repro.presets import preset

        config = preset(args.machine)
    elif args.dra:
        config = CoreConfig.with_dra(args.rf)
    else:
        config = CoreConfig.base(args.rf)
    print(render_loop_inventory(config))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.workload == "capture":
        from repro.scenarios import capture_trace

        if not args.target:
            print("error: trace capture needs a workload "
                  "(loopsim trace capture <workload> -o out.trace.gz)",
                  file=sys.stderr)
            return 2
        if not args.out:
            print("error: trace capture needs -o/--out", file=sys.stderr)
            return 2
        count = capture_trace(
            args.target, args.out, args.count,
            seed=args.seed, thread=args.thread,
        )
        print(f"captured {count} ops of {args.target} "
              f"(seed {args.seed}, thread {args.thread}) to {args.out}")
        print(f"replay with: loopsim run trace:{args.out}")
        return 0

    from repro.analysis.pipetrace import collect_trace, render_pipetrace

    if args.dra:
        config = CoreConfig.with_dra(args.rf)
    else:
        config = CoreConfig.base(args.rf)
    rows = collect_trace(
        args.workload, config, instructions=args.instructions, skip=args.skip
    )
    print(render_pipetrace(rows))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify import (
        fuzz,
        replay,
        run_differential_checks,
        verify_presets,
    )

    if args.replay:
        failure = replay(args.replay)
        if failure is None:
            print(f"{args.replay}: the recorded failure no longer occurs")
            return 0
        print(f"{args.replay}: still failing ({failure.kind})")
        print(f"  {failure.detail}")
        for violation in failure.violations[1:6]:
            print(f"  [{violation['checker']}] {violation['message']}")
        return 1

    if args.fuzz:
        result = fuzz(
            budget=args.budget,
            seed=args.seed,
            inject=args.inject or None,
            out_path=args.out or None,
            log=lambda message: print(f"fuzz: {message}"),
        )
        print(result.describe())
        if result.found:
            # a planted bug being found is the expected (passing) outcome
            return 0 if args.inject else 1
        return 1 if args.inject else 0

    failed = False
    print(
        f"verification sweep: workload={args.workload} "
        f"instructions={args.instructions} seed={args.seed}"
    )
    for entry in verify_presets(
        workload=args.workload,
        instructions=args.instructions,
        seed=args.seed,
    ):
        print(entry.describe())
        failed = failed or not entry.ok
    if args.differential:
        print("\ndifferential checks:")
        for check in run_differential_checks(
            workload=args.workload, seed=args.seed
        ):
            print(check.describe())
            failed = failed or not check.passed
    return 1 if failed else 0


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.explore import (
        DEFAULT_WORKLOADS,
        HalvingSettings,
        PruneSettings,
        named_space,
        run_exploration,
    )

    space = named_space(args.space)
    workloads = (
        tuple(args.workloads.split(",")) if args.workloads
        else DEFAULT_WORKLOADS
    )
    halving = HalvingSettings(
        rungs=args.rungs,
        eta=args.eta,
        base_instructions=args.base_instructions,
        growth=args.growth,
        seeds=tuple(range(args.seeds)),
        warmup=args.warmup,
        detailed_warmup=args.detailed_warmup,
        budget=args.budget,
        backend=args.backend,
    )
    result = run_exploration(
        space,
        workloads=workloads,
        halving=halving,
        harness=_harness(args),
        prune=(
            PruneSettings(margin=args.prune_margin)
            if not args.no_prune else False
        ),
        sample=args.sample,
        seed=args.seed,
        store_dir=args.store,
        bench_out=args.bench_out,
    )
    print(result.render())
    if result.search.failures:
        return 1
    if not result.frontier.frontier:
        print("error: exploration produced an empty frontier",
              file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ServeSettings, run_server

    cache_dir = args.cache_dir or str(default_cache_dir())
    harness = HarnessSettings(
        cell_timeout=args.cell_timeout,
        retries=args.retries,
        cache_dir=cache_dir,
        isolate=args.isolate,
        verify=args.verify,
    )
    settings = ServeSettings(
        host=args.host,
        port=args.port,
        workers=args.workers,
        journal_path=args.journal or None,
        journal_fsync=args.fsync,
        resume=args.resume,
        harness=harness,
    )
    asyncio.run(run_server(settings))
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve import CampaignClient, ServiceError

    client = CampaignClient(
        host=args.host, port=args.port, timeout=args.timeout,
        retries=args.retries,
    )
    with client:
        if args.ping:
            reply = client.health()
            print(f"ok={reply.get('ok')} draining={reply.get('draining')} "
                  f"uptime={reply.get('uptime')}s jobs={reply.get('jobs')} "
                  f"running={reply.get('running')}")
            return 0 if reply.get("ok") else 1
        if args.stats:
            reply = client.stats()
            for name, value in sorted(reply.get("metrics", {}).items()):
                print(f"  {name:40s} {value}")
            cache = reply.get("cache")
            if cache:
                print(f"  {'cache.hits':40s} {cache['hits']}")
                print(f"  {'cache.misses':40s} {cache['misses']}")
                print(f"  {'cache.corrupt_swallowed':40s} "
                      f"{cache.get('corrupt_swallowed', 0)}")
            return 0
        if args.status:
            reply = client.status()
            print(f"draining={reply.get('draining')} "
                  f"queued={reply.get('queued')} jobs={reply.get('jobs')} "
                  f"running={reply.get('jobs', {}).get('running')}")
            return 0
        if args.drain:
            client.drain()
            print("drain requested")
            return 0
        if not args.workload:
            print("error: submit needs a workload (or --ping/--stats/"
                  "--status/--drain)", file=sys.stderr)
            return 2
        try:
            reply = client.submit(
                args.workload,
                seed=args.seed,
                wait=not args.no_wait,
                want_result=False,
                dra=args.dra,
                rf=args.rf,
                recovery=args.recovery,
                instructions=args.instructions,
                warmup=args.warmup,
                detailed_warmup=args.detailed_warmup,
                backend=args.backend,
            )
        except ServiceError as error:
            print(f"error: {error}", file=sys.stderr)
            return 3
    if args.no_wait:
        print(f"accepted job={reply.job} key={reply.key} "
              f"dedup={reply.dedup}")
        return 0
    if reply.ok:
        origin = ("cache" if reply.cached
                  else "dedup" if reply.dedup else "fresh")
        print(f"{args.workload}: ipc={reply.ipc:.4f} ({origin}, "
              f"job={reply.job}, attempts={reply.attempts})")
        for key, value in reply.summary.items():
            print(f"  {key:26s} {value:12.4f}")
        return 0
    print(f"error: cell failed: {reply.error_kind}: "
          f"{reply.error_message}", file=sys.stderr)
    return 1


#: Section headings for the ``workloads`` listing, per catalog family.
_FAMILY_HEADINGS = (
    ("spec95-int", "Spec95 integer stand-ins"),
    ("spec95-fp", "Spec95 floating-point stand-ins"),
    ("smt-pair", "SMT pairs (paper suite)"),
    ("scenario", "scenario families"),
    ("scenario-smt", "scenario SMT mixes"),
    ("smoke", "smoke workloads (CI only, not in the paper's suite)"),
)


def _cmd_workloads(args: argparse.Namespace) -> int:
    import json

    from repro.scenarios import workload_catalog

    catalog = workload_catalog()
    if args.json:
        print(json.dumps(catalog, indent=2, sort_keys=True))
        return 0
    width = max(len(entry["name"]) for entry in catalog["workloads"])
    for family, heading in _FAMILY_HEADINGS:
        rows = [w for w in catalog["workloads"] if w["family"] == family]
        if not rows:
            continue
        print(f"{heading}:")
        for row in rows:
            threads = f"x{row['threads']}" if row["threads"] > 1 else "  "
            print(f"  {row['name']:{width}s} {threads} {row['description']}")
        print()
    print(f"trace replay: {catalog['trace']['syntax']} — "
          f"{catalog['trace']['description']}")
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    import json

    from repro.perfhist import (
        PerfHistory, attribution_shift, check_epoch, commit_of,
        import_explore_bench, import_kernel_bench, record_epoch,
    )
    from repro.perfhist.check import _bucket_shares

    history = PerfHistory(args.history)

    if args.action == "record":
        commit = args.commit or commit_of()
        epoch = record_epoch(
            history, commit,
            kernel_bench=args.kernel or None,
            explore_bench=args.explore or None,
            mechanisms_bench=args.mechanisms or None,
            backend=args.backend,
            include_sampled=not args.no_sampled,
            log=print,
        )
        print(f"appended epoch {epoch.index} to {history.path}")
        return 0

    if args.action == "import":
        if bool(args.kernel) == bool(args.explore):
            print("error: perf import needs exactly one of "
                  "--kernel/--explore", file=sys.stderr)
            return 2
        if not args.commit:
            print("error: perf import needs --commit (the commit the "
                  "benchmark file was recorded at)", file=sys.stderr)
            return 2
        if args.kernel:
            epoch = import_kernel_bench(history, args.kernel, args.commit)
        else:
            epoch = import_explore_bench(history, args.explore, args.commit)
        print(f"imported {epoch.source[len('import:'):]} as epoch "
              f"{epoch.index} (commit {epoch.commit[:12]}, "
              f"{len(epoch.profiles)} profiles)")
        return 0

    if args.action == "log":
        epochs = history.epochs()
        if not epochs:
            print(f"{history.path}: empty history")
            return 0
        if args.key:
            for index, value in history.series(args.key):
                epoch = epochs[index]
                print(f"epoch {index:3d}  {epoch.commit[:12]}  "
                      f"{value:12.4f}  {epoch.timestamp}")
            return 0
        for epoch in epochs:
            print(f"epoch {epoch.index:3d}  {epoch.commit[:12]}  "
                  f"{epoch.timestamp}  {epoch.source:24s} "
                  f"{len(epoch.profiles):3d} profiles")
        return 0

    if args.action == "check":
        report = check_epoch(
            history,
            epoch=args.epoch,
            baseline=args.baseline,
        )
        if args.json:
            print(json.dumps(report.to_json(), indent=2, sort_keys=True))
        else:
            print(report.render())
        return 0 if report.ok else 1

    # attribute: loop-bucket cycle accounting for an epoch's IPC
    # profiles, plus the shift against each profile's baseline.
    target = history.epoch(args.epoch if args.epoch is not None else -1)
    shown = 0
    for profile in target.profiles:
        if args.key and profile.key != args.key:
            continue
        shares = _bucket_shares(profile.attribution or {})
        if not shares:
            continue
        shown += 1
        print(f"{profile.key} (epoch {target.index}, "
              f"{profile.value:.4f} {profile.unit}):")
        for name in sorted(shares, key=shares.get, reverse=True):
            print(f"  {name:22s} {shares[name]:6.2f}% of cycles")
        previous = None
        for earlier in history.epochs():
            if earlier.index >= target.index:
                continue
            if earlier.profile(profile.key) is not None:
                previous = earlier
        if previous is not None:
            line = attribution_shift(
                previous.profile(profile.key), profile
            )
            print(f"  vs epoch {previous.index}: {line}")
    if not shown:
        print("no attributed profiles "
              + (f"matching {args.key!r} " if args.key else "")
              + f"in epoch {target.index}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopsim",
        description=(
            "Loose Loops Sink Chips (HPCA 2002) reproduction: cycle-level "
            "OoO SMT simulator with the Distributed Register Algorithm"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one simulation")
    run_parser.add_argument("workload", help=_WORKLOAD_HELP)
    run_parser.add_argument("--dra", action="store_true",
                            help="use the DRA pipeline")
    run_parser.add_argument("--rf", type=int, default=3, choices=(3, 5, 7),
                            help="register-file read latency")
    run_parser.add_argument("--recovery", default="",
                            choices=("", "reissue", "refetch", "stall",
                                     "ssr"),
                            help="load-miss recovery policy")
    run_parser.add_argument("--instructions", type=int, default=10_000)
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--trace-out", default="", metavar="PATH",
        help="write an event trace of the measured run: *.jsonl for "
             "JSON-lines, anything else for Chrome trace-event format "
             "(viewable in Perfetto)",
    )
    run_parser.add_argument(
        "--backend", default=DEFAULT_BACKEND, metavar="SPEC",
        help="kernel backend: reference, optimized, sampled, or "
             "sampled:<windows>x<measure>[+<warmup>] "
             "(default %(default)s; reference is the ground-truth loop)",
    )
    run_parser.set_defaults(func=_cmd_run)

    attribute_parser = sub.add_parser(
        "attribute",
        help="measured per-loop cost attribution (delay x frequency x "
             "mis-speculation -> cycles lost, lost IPC)",
    )
    attribute_parser.add_argument("workload", help=_WORKLOAD_HELP)
    attribute_parser.add_argument("--dra", action="store_true",
                                  help="use the DRA pipeline")
    attribute_parser.add_argument("--rf", type=int, default=3,
                                  choices=(3, 5, 7),
                                  help="register-file read latency")
    attribute_parser.add_argument("--instructions", type=int, default=10_000)
    attribute_parser.add_argument("--seed", type=int, default=0)
    attribute_parser.add_argument(
        "--verify", action="store_true",
        help="cross-check event-stream counts against CoreStats and "
             "fail on any mismatch",
    )
    attribute_parser.set_defaults(func=_cmd_attribute)

    for name in ("fig4", "fig5", "fig6", "fig8", "fig9"):
        fig_parser = sub.add_parser(name, help=f"regenerate paper {name}")
        _add_common(fig_parser)
        fig_parser.set_defaults(func=_cmd_fig, figure=name)

    ablations_parser = sub.add_parser("ablations", help="run design ablations")
    _add_common(ablations_parser)
    ablations_parser.set_defaults(func=_cmd_ablations)

    loops_parser = sub.add_parser("loops", help="print the loop inventory")
    loops_parser.add_argument("--dra", action="store_true")
    loops_parser.add_argument("--rf", type=int, default=3, choices=(3, 5, 7))
    loops_parser.add_argument(
        "--machine", default="",
        help="named preset: alpha21264, base, pentium4",
    )
    loops_parser.set_defaults(func=_cmd_loops)

    workloads_parser = sub.add_parser(
        "workloads",
        help="list every workload, scenario family, and the "
             "trace-replay syntax",
    )
    workloads_parser.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable catalog instead of text",
    )
    workloads_parser.set_defaults(func=_cmd_workloads)

    verify_parser = sub.add_parser(
        "verify",
        help="differential verification: golden model + invariant "
             "checkers over every preset, cross-config laws, fuzzing",
    )
    verify_parser.add_argument(
        "--workload", default="int_test",
        metavar="WORKLOAD",
        help="workload for the sweep/differential runs "
             "(default int_test)",
    )
    verify_parser.add_argument(
        "--instructions", type=int, default=2_000,
        help="instructions per verified run (default 2000)",
    )
    verify_parser.add_argument("--seed", type=int, default=0)
    verify_parser.add_argument(
        "--differential", "-d", action="store_true",
        help="also run the cross-configuration consistency laws",
    )
    verify_parser.add_argument(
        "--fuzz", action="store_true",
        help="fuzz random configurations/workloads instead of the sweep",
    )
    verify_parser.add_argument(
        "--budget", type=float, default=30.0, metavar="SECONDS",
        help="wall-clock budget for --fuzz (default 30)",
    )
    verify_parser.add_argument(
        "--inject", default="", choices=("", "skip-reissue", "stale-crc"),
        help="plant a known bug; with --fuzz, finding it becomes the "
             "passing outcome (checker self-test)",
    )
    verify_parser.add_argument(
        "--out", default="", metavar="PATH",
        help="write the shrunk fuzz reproducer JSON here",
    )
    verify_parser.add_argument(
        "--replay", default="", metavar="PATH",
        help="re-run a fuzz reproducer instead of sweeping",
    )
    verify_parser.set_defaults(func=_cmd_verify)

    explore_parser = sub.add_parser(
        "explore",
        help="model-guided design-space search: analytical pruning, "
             "budgeted successive halving, Pareto frontier, versioned "
             "result ledger",
    )
    explore_parser.add_argument(
        "--space", default="dra", choices=("dra", "mechanisms", "smoke"),
        help="named parameter space (default dra: rf x CRC size x "
             "insertion policy with the base machines pinned; "
             "mechanisms: DRA vs read-port reduction vs SSR stall)",
    )
    explore_parser.add_argument(
        "--workloads", default="",
        help="comma-separated scoring workloads "
             "(default compress,swim)",
    )
    explore_parser.add_argument(
        "--rungs", type=int, default=3,
        help="successive-halving rungs (default 3)",
    )
    explore_parser.add_argument(
        "--eta", type=int, default=3,
        help="keep ~1/eta of each group per rung (default 3)",
    )
    explore_parser.add_argument(
        "--base-instructions", type=int, default=1_000,
        help="detailed instructions at the cheapest rung (default 1000)",
    )
    explore_parser.add_argument(
        "--growth", type=int, default=3,
        help="instruction multiplier between rungs (default 3)",
    )
    explore_parser.add_argument(
        "--seeds", type=int, default=1,
        help="seeds averaged per cell (default 1)",
    )
    explore_parser.add_argument(
        "--warmup", type=int, default=30_000,
        help="functional warmup per run (default 30000)",
    )
    explore_parser.add_argument(
        "--detailed-warmup", type=int, default=500,
        help="detailed warmup per run (default 500)",
    )
    explore_parser.add_argument(
        "--budget", type=int, default=None, metavar="INSTRUCTIONS",
        help="total detailed-instruction budget; rungs that would "
             "overdraw it are skipped",
    )
    explore_parser.add_argument(
        "--sample", type=int, default=None, metavar="N",
        help="deterministically sample N grid points instead of the "
             "exhaustive grid (baselines always included)",
    )
    explore_parser.add_argument(
        "--seed", type=int, default=0,
        help="sampling seed (default 0)",
    )
    explore_parser.add_argument(
        "--no-prune", action="store_true",
        help="disable the analytical pre-filter",
    )
    explore_parser.add_argument(
        "--prune-margin", type=float, default=0.12,
        help="relative predicted-IPC gap the loop model must show "
             "before skipping a candidate (default 0.12)",
    )
    explore_parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="append the exploration to the versioned ledger in DIR "
             "and diff against the previous frontier",
    )
    explore_parser.add_argument(
        "--bench-out", default=None, metavar="PATH",
        help="write the BENCH_explore.json accounting file "
             "(instruction savings vs the exhaustive grid)",
    )
    explore_parser.add_argument(
        "--jobs", type=int, default=1,
        help="concurrent simulation workers (default 1)",
    )
    explore_parser.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per simulation cell",
    )
    explore_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent result cache location",
    )
    explore_parser.add_argument(
        "--verify", action="store_true",
        help="run every cell under the differential verifier",
    )
    explore_parser.add_argument(
        "--backend", default=DEFAULT_BACKEND, metavar="SPEC[,SPEC...]",
        help="kernel backend for every rung, or one per rung, cheapest "
             "rung first, the last repeating (e.g. sampled,optimized: "
             "sampled triage rungs, exact final scoring; default "
             "%(default)s)",
    )
    explore_parser.set_defaults(func=_cmd_explore)

    serve_parser = sub.add_parser(
        "serve",
        help="run the campaign service: async TCP front end with "
             "request dedup, one bounded first-in first-out job queue, "
             "a crash-safe journal and graceful drain",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=7511,
        help="listen port (default 7511; 0 picks a free one)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=2,
        help="cells simulated in parallel, each in a forked worker "
             "(default 2); with --isolate inline the cells share one "
             "interpreter lock and run one at a time",
    )
    serve_parser.add_argument(
        "--journal", default="", metavar="PATH",
        help="crash-safe job journal (JSONL); required for --resume",
    )
    serve_parser.add_argument(
        "--fsync", action="store_true",
        help="fsync every journal record (safest, slower)",
    )
    serve_parser.add_argument(
        "--resume", action="store_true",
        help="replay accepted-but-unfinished journal jobs on startup",
    )
    serve_parser.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="harness watchdog budget per cell attempt (default 360)",
    )
    serve_parser.add_argument(
        "--retries", type=int, default=2,
        help="harness retries per job for retryable failures "
             "(default 2)",
    )
    serve_parser.add_argument(
        "--isolate", default="auto", choices=("auto", "inline"),
        help="cell isolation mode (default auto, which forks every cell "
             "because serve always arms the watchdog; inline runs cells "
             "on the worker threads, without the watchdog)",
    )
    serve_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="shared content-addressed result store (default: "
             "$REPRO_CACHE_DIR or ~/.cache/loopsim)",
    )
    serve_parser.add_argument(
        "--verify", action="store_true",
        help="run every cell under the differential verifier",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    submit_parser = sub.add_parser(
        "submit",
        help="submit one cell to a running campaign service "
             "(or probe it with --ping/--stats/--status/--drain)",
    )
    submit_parser.add_argument(
        "workload", nargs="?", default="",
        help="workload name (any the server knows, incl. SMT pairs)",
    )
    submit_parser.add_argument("--host", default="127.0.0.1")
    submit_parser.add_argument("--port", type=int, default=7511)
    submit_parser.add_argument("--dra", action="store_true",
                               help="use the DRA pipeline")
    submit_parser.add_argument("--rf", type=int, default=3,
                               choices=(3, 5, 7),
                               help="register-file read latency")
    submit_parser.add_argument("--recovery", default="",
                               choices=("", "reissue", "refetch", "stall"),
                               help="load-miss recovery policy")
    submit_parser.add_argument("--instructions", type=int, default=10_000)
    submit_parser.add_argument("--warmup", type=int, default=100_000)
    submit_parser.add_argument("--detailed-warmup", type=int, default=1_500)
    submit_parser.add_argument(
        "--backend", default=DEFAULT_BACKEND, metavar="SPEC",
        help="kernel backend executing the cell (default %(default)s)",
    )
    submit_parser.add_argument("--seed", type=int, default=0)
    submit_parser.add_argument(
        "--no-wait", action="store_true",
        help="return after acceptance instead of waiting for the result",
    )
    submit_parser.add_argument(
        "--timeout", type=float, default=300.0, metavar="SECONDS",
        help="socket timeout while waiting (default 300)",
    )
    submit_parser.add_argument(
        "--retries", type=int, default=5,
        help="resubmits after sheds/disconnects (default 5)",
    )
    submit_parser.add_argument("--ping", action="store_true",
                               help="health-check the service and exit")
    submit_parser.add_argument("--stats", action="store_true",
                               help="print the service metrics snapshot")
    submit_parser.add_argument("--status", action="store_true",
                               help="print the queued-job count and "
                                    "job states")
    submit_parser.add_argument("--drain", action="store_true",
                               help="ask the service to drain gracefully")
    submit_parser.set_defaults(func=_cmd_submit)

    trace_parser = sub.add_parser(
        "trace",
        help="pipeview-style per-instruction timeline, or capture a "
             "replayable uop trace (`loopsim trace capture <workload> "
             "-o t.trace.gz`)",
    )
    trace_parser.add_argument(
        "workload",
        help=_WORKLOAD_HELP + "; or the literal `capture` to record a "
             "trace instead of rendering a timeline",
    )
    trace_parser.add_argument(
        "target", nargs="?", default="",
        help="with `capture`: the workload whose stream to record",
    )
    trace_parser.add_argument("--dra", action="store_true")
    trace_parser.add_argument("--rf", type=int, default=3, choices=(3, 5, 7))
    trace_parser.add_argument("-n", "--instructions", type=int, default=32)
    trace_parser.add_argument("--skip", type=int, default=2_000)
    trace_parser.add_argument(
        "-o", "--out", default="", metavar="PATH",
        help="with `capture`: output trace path (.gz compresses)",
    )
    trace_parser.add_argument(
        "--count", type=int, default=20_000,
        help="with `capture`: micro-ops to record (default 20000)",
    )
    trace_parser.add_argument("--seed", type=int, default=0)
    trace_parser.add_argument(
        "--thread", type=int, default=0,
        help="with `capture`: which thread of an SMT pair to record",
    )
    trace_parser.set_defaults(func=_cmd_trace)

    perf_parser = sub.add_parser(
        "perf",
        help="per-commit performance history: record this commit's "
             "profile, inspect the trajectory, gate on statistical "
             "degradation detection (see docs/perfhist.md)",
    )
    perf_parser.add_argument(
        "action", choices=("record", "log", "check", "attribute", "import"),
        help="record: measure + append this commit's epoch; log: list "
             "epochs (or one key's series); check: judge an epoch "
             "against the history (exit 1 on degradation); attribute: "
             "loop-bucket cycle accounting; import: fold a committed "
             "BENCH_* file in as its own epoch",
    )
    perf_parser.add_argument(
        "--history", default="PERF_HISTORY.jsonl", metavar="PATH",
        help="history file (default: ./PERF_HISTORY.jsonl)",
    )
    perf_parser.add_argument(
        "--commit", default="",
        help="commit hash to stamp (default: `git rev-parse HEAD`)",
    )
    perf_parser.add_argument(
        "--kernel", default="", metavar="PATH",
        help="BENCH_kernel.json to fold into the epoch",
    )
    perf_parser.add_argument(
        "--explore", default="", metavar="PATH",
        help="BENCH_explore.json to fold into the epoch",
    )
    perf_parser.add_argument(
        "--mechanisms", default="", metavar="PATH",
        help="BENCH_mechanisms.json (competing-mechanisms frontier) to "
             "fold into the epoch",
    )
    perf_parser.add_argument(
        "--backend", default="reference", metavar="SPEC",
        help="kernel backend for the live IPC cells (record; default "
             "reference, the ground truth the exact triples pin)",
    )
    perf_parser.add_argument(
        "--no-sampled", action="store_true",
        help="skip the sampled-backend CI cell (record)",
    )
    perf_parser.add_argument(
        "--epoch", type=int, default=None, metavar="N",
        help="epoch to check/attribute (default: latest; negatives ok)",
    )
    perf_parser.add_argument(
        "--baseline", type=int, default=None, metavar="N",
        help="pin every comparison to epoch N (default: per-key most "
             "recent earlier carrier)",
    )
    perf_parser.add_argument(
        "--key", default="",
        help="restrict log/attribute to one profile key",
    )
    perf_parser.add_argument(
        "--json", action="store_true",
        help="machine-readable check report",
    )
    perf_parser.set_defaults(func=_cmd_perf)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except WorkloadError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except SimulationHangError as error:
        print(f"error: {error}", file=sys.stderr)
        if error.snapshot is not None:
            print(error.snapshot.describe(), file=sys.stderr)
        return 2
    except (ReproError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
