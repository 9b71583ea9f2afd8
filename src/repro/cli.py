"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``figure 7a|7b|7c..7j|8a|8b`` — regenerate one evaluation figure and
  print its rows/series;
- ``ablation burst|step|policy|provisioning`` — run one ablation study;
- ``analyze <module>:<Class>`` — run the preprocessor's static analysis
  on an elastic class and print the report;
- ``transform <file.py>`` — apply the Figure 6 source rewrite and print
  (or write) the transformed module;
- ``bench`` — run the RMI benchmark suites (hot path + batching +
  async transport + sharded routing) and emit their ``BENCH_*.json``
  reports (schema documented in README.md);
- ``chaos`` — run the scripted fault-injection scenario and emit a
  ``CHAOS_report.json`` recovery-latency report (schema
  ``repro.chaos/v1``); exits non-zero if any failure leaked to the
  client or the pool did not recover to its minimum size.
- ``trace`` — run the seeded traced scenario (``repro.obs``) and write
  the structured event timeline as JSONL; byte-identical across runs
  with the same seed.
- ``metrics`` — fold a trace (a saved JSONL file, or a fresh seeded
  run) into the ``repro.obs/v1`` summary document, whose agility /
  provisioning / QoS numbers come from the same ``repro.metrics``
  trackers the experiments use.
- ``scenario`` — run one scenario from the open-loop matrix (or
  ``all``/``list``): seeded, replayable, emitting a ``repro.obs/v1``
  summary with tail-latency, agility, and QoS sections.  The same
  matrix feeds ``bench --suite scenario`` and its committed
  ``BENCH_scenario_*.json`` baselines.
"""

from __future__ import annotations

import argparse
import importlib
import sys


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments.figures import (
        FIGURE7_PANELS,
        figure7_agility,
        figure7a_workload,
        figure7b_workload,
        figure8_provisioning,
        print_agility_panel,
        print_provisioning_figure,
    )

    fig = args.id
    if fig in ("7a", "7b"):
        trace = (
            figure7a_workload(args.app)
            if fig == "7a"
            else figure7b_workload(args.app)
        )
        print(f"Figure {fig} ({args.app}): minute -> rate")
        for minute, rate in trace[:: max(1, len(trace) // 25)]:
            print(f"  {minute:6.0f}  {rate:12.0f}")
        return 0
    if fig in FIGURE7_PANELS:
        panel = figure7_agility(fig, seed=args.seed)
        print(print_agility_panel(panel))
        return 0
    if fig in ("8a", "8b"):
        workload = "abrupt" if fig == "8a" else "cyclic"
        print(print_provisioning_figure(
            figure8_provisioning(workload, seed=args.seed)
        ))
        return 0
    print(f"unknown figure: {fig}", file=sys.stderr)
    return 2


def _cmd_ablation(args: argparse.Namespace) -> int:
    from repro.experiments import ablations

    runners = {
        "burst": ablations.burst_interval_ablation,
        "step": ablations.max_step_ablation,
        "policy": ablations.policy_ablation,
        "provisioning": ablations.provisioning_ablation,
    }
    results = runners[args.which](
        app=args.app, workload=args.workload, seed=args.seed
    )
    print(f"{args.which} ablation ({args.app}, {args.workload}):")
    for key, result in results.items():
        print(f"  {str(key):<24} avg agility {result.average_agility:6.2f}  "
              f"max {result.max_agility:5.1f}  "
              f"zero {100 * result.zero_fraction:3.0f}%")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.preprocessor import analyze

    module_name, _, class_name = args.target.partition(":")
    if not class_name:
        print("target must be <module>:<Class>", file=sys.stderr)
        return 2
    module = importlib.import_module(module_name)
    cls = getattr(module, class_name)
    report = analyze(cls)
    print(report.summary())
    return 0 if report.ok() else 1


def _cmd_transform(args: argparse.Namespace) -> int:
    from repro.preprocessor import transform_source

    with open(args.file) as handle:
        source = handle.read()
    result = transform_source(source)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(result + "\n")
        print(f"wrote {args.output}")
    else:
        print(result)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ElasticRMI reproduction: experiments and tooling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figure = sub.add_parser("figure", help="regenerate an evaluation figure")
    figure.add_argument("id", help="7a, 7b, 7c-7j, 8a, or 8b")
    figure.add_argument("--app", default="marketcetera",
                        help="application for 7a/7b traces")
    figure.add_argument("--seed", type=int, default=0)
    figure.set_defaults(fn=_cmd_figure)

    ablation = sub.add_parser("ablation", help="run an ablation study")
    ablation.add_argument(
        "which", choices=("burst", "step", "policy", "provisioning")
    )
    ablation.add_argument("--app", default="marketcetera")
    ablation.add_argument("--workload", default="abrupt",
                          choices=("abrupt", "cyclic"))
    ablation.add_argument("--seed", type=int, default=0)
    ablation.set_defaults(fn=_cmd_ablation)

    analyze_cmd = sub.add_parser(
        "analyze", help="static analysis of an elastic class"
    )
    analyze_cmd.add_argument("target", help="<module>:<Class>")
    analyze_cmd.set_defaults(fn=_cmd_analyze)

    transform = sub.add_parser(
        "transform", help="apply the Figure 6 source rewrite"
    )
    transform.add_argument("file")
    transform.add_argument("-o", "--output", default=None)
    transform.set_defaults(fn=_cmd_transform)

    report = sub.add_parser(
        "report", help="run the full evaluation and emit a markdown report"
    )
    report.add_argument("-o", "--output", default=None)
    report.add_argument("--seed", type=int, default=0)
    report.set_defaults(fn=_cmd_report)

    bench_cmd = sub.add_parser(
        "bench",
        help="run the RMI benchmark suites "
        "(hot-path + batching + async + shard + store + cpu)",
    )
    bench_cmd.add_argument(
        "--suite",
        choices=(
            "all", "hotpath", "batching", "async", "shard", "store",
            "cpu", "scenario",
        ),
        default="all",
        help="which suite(s) to run (default: all)",
    )
    bench_cmd.add_argument(
        "-o", "--output", default="BENCH_rmi_hotpath.json",
        help="hot-path report path (default: BENCH_rmi_hotpath.json)",
    )
    bench_cmd.add_argument(
        "--batching-output", default="BENCH_rmi_batching.json",
        help="batching report path (default: BENCH_rmi_batching.json)",
    )
    bench_cmd.add_argument(
        "--async-output", default="BENCH_rmi_async.json",
        help="async-transport report path (default: BENCH_rmi_async.json)",
    )
    bench_cmd.add_argument(
        "--shard-output", default="BENCH_rmi_shard.json",
        help="sharded-routing report path (default: BENCH_rmi_shard.json)",
    )
    bench_cmd.add_argument(
        "--store-output", default="BENCH_rmi_store.json",
        help="store watch/cache report path (default: BENCH_rmi_store.json)",
    )
    bench_cmd.add_argument(
        "--cpu-output", default="BENCH_rmi_cpu.json",
        help="cpu process-pool report path (default: BENCH_rmi_cpu.json)",
    )
    bench_cmd.add_argument(
        "--scale", type=float, default=None,
        help="iteration scale factor (default: ERMI_BENCH_SCALE or 1.0)",
    )
    bench_cmd.add_argument(
        "--check", metavar="BASELINE", default=None,
        help="compare the hot-path run against a committed baseline "
        "report; exit non-zero on a regression beyond the tolerance",
    )
    bench_cmd.add_argument(
        "--check-batching", metavar="BASELINE", default=None,
        help="compare the batching run against a committed baseline report",
    )
    bench_cmd.add_argument(
        "--check-async", metavar="BASELINE", default=None,
        help="compare the async-transport run against a committed baseline",
    )
    bench_cmd.add_argument(
        "--check-shard", metavar="BASELINE", default=None,
        help="compare the sharded-routing run against a committed baseline",
    )
    bench_cmd.add_argument(
        "--check-store", metavar="BASELINE", default=None,
        help="compare the store watch/cache run against a committed baseline",
    )
    bench_cmd.add_argument(
        "--check-cpu", metavar="BASELINE", default=None,
        help="compare the cpu process-pool run against a committed "
        "baseline (always normalized per gate family — thread / process "
        "/ payload — so 1-core and 4-core machines compare cleanly)",
    )
    bench_cmd.add_argument(
        "--scenario-dir", metavar="DIR", default=".",
        help="directory for BENCH_scenario_*.json reports (default: .)",
    )
    bench_cmd.add_argument(
        "--check-scenario", metavar="DIR", default=None,
        help="compare the scenario matrix against the committed "
        "BENCH_scenario_*.json baselines in DIR (raw comparison — "
        "scenario metrics are virtual-time and machine-independent)",
    )
    bench_cmd.add_argument(
        "--tolerance", type=float, default=0.30,
        help="allowed fractional throughput drop per record (default 0.30)",
    )
    bench_cmd.add_argument(
        "--normalize", action="store_true",
        help="normalize each record by the run's anchor record "
        "(marshal-pickle / batch-on-c1 / threaded-c64 / shard-flat-c256 "
        "/ epoch-poll-c1) before comparing — absorbs machine-speed "
        "differences in CI",
    )
    bench_cmd.set_defaults(fn=_cmd_bench)

    chaos_cmd = sub.add_parser(
        "chaos", help="run the scripted fault-injection scenario"
    )
    chaos_cmd.add_argument("--seed", type=int, default=0)
    chaos_cmd.add_argument(
        "--duration", type=float, default=60.0,
        help="virtual seconds to simulate (default: 60)",
    )
    chaos_cmd.add_argument(
        "-o", "--output", default="CHAOS_report.json",
        help="report path (default: CHAOS_report.json)",
    )
    chaos_cmd.set_defaults(fn=_cmd_chaos)

    trace_cmd = sub.add_parser(
        "trace", help="run the seeded traced scenario, write a JSONL trace"
    )
    trace_cmd.add_argument("--seed", type=int, default=0)
    trace_cmd.add_argument(
        "--duration", type=float, default=90.0,
        help="virtual seconds to simulate (default: 90)",
    )
    trace_cmd.add_argument(
        "-o", "--output", default="TRACE_events.jsonl",
        help="trace path (default: TRACE_events.jsonl)",
    )
    trace_cmd.add_argument(
        "--summary", default=None, metavar="PATH",
        help="also write the repro.obs/v1 summary JSON here",
    )
    trace_cmd.set_defaults(fn=_cmd_trace)

    metrics_cmd = sub.add_parser(
        "metrics", help="fold a trace into the repro.obs/v1 summary"
    )
    metrics_cmd.add_argument(
        "-i", "--input", default=None, metavar="TRACE",
        help="JSONL trace to summarize (default: run a fresh seeded scenario)",
    )
    metrics_cmd.add_argument("--seed", type=int, default=0)
    metrics_cmd.add_argument(
        "--duration", type=float, default=90.0,
        help="virtual seconds when running fresh (default: 90)",
    )
    metrics_cmd.add_argument(
        "-o", "--output", default=None,
        help="write the summary JSON here instead of stdout",
    )
    metrics_cmd.set_defaults(fn=_cmd_metrics)

    scenario_cmd = sub.add_parser(
        "scenario",
        help="run an open-loop load scenario (seeded, replayable)",
    )
    scenario_cmd.add_argument(
        "name",
        help="scenario name, 'all' for the whole matrix, or 'list'",
    )
    scenario_cmd.add_argument(
        "--seed", type=int, default=None,
        help="override the scenario's committed seed",
    )
    scenario_cmd.add_argument(
        "--scale", type=float, default=1.0,
        help="rate x scale, service / scale: same dynamics, fewer "
        "simulated events (default 1.0)",
    )
    scenario_cmd.add_argument(
        "--mode", choices=("sim", "live"), default="sim",
        help="virtual-time simulation (default) or wall-clock live run "
        "on the asyncio transport",
    )
    scenario_cmd.add_argument(
        "--live-duration", type=float, default=8.0,
        help="wall seconds the compressed live replay runs (default 8)",
    )
    scenario_cmd.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="write the repro.obs/v1 summary JSON here (single scenario)",
    )
    scenario_cmd.add_argument(
        "--summary-dir", default=None, metavar="DIR",
        help="write each scenario's summary to DIR/SCENARIO_<name>.json",
    )
    scenario_cmd.set_defaults(fn=_cmd_scenario)

    return parser


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import run_full_evaluation

    evaluation = run_full_evaluation(seed=args.seed)
    text = evaluation.to_markdown()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0 if all(held for _, held in evaluation.claims()) else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments.benchreport import (
        NORMALIZE_ANCHORS,
        compare_cpu_reports,
        compare_reports,
        format_table,
        load_report,
        run_async_suite,
        run_batching_suite,
        run_cpu_suite,
        run_hotpath_suite,
        run_shard_suite,
        run_store_suite,
        write_report,
    )

    # Load baselines up front: when --output and --check name the same
    # file, writing first would silently compare the run to itself.
    runs = []  # (suite, records, extra, output, baseline)
    if args.suite in ("all", "hotpath"):
        baseline = None if args.check is None else load_report(args.check)
        records = run_hotpath_suite(scale=args.scale)
        runs.append(
            ("rmi_hotpath", records, None, args.output, baseline)
        )
    if args.suite in ("all", "batching"):
        baseline = (
            None if args.check_batching is None
            else load_report(args.check_batching)
        )
        extra: dict = {}
        records = run_batching_suite(scale=args.scale, extra_out=extra)
        runs.append(
            ("rmi_batching", records, extra, args.batching_output, baseline)
        )
    if args.suite in ("all", "async"):
        baseline = (
            None if args.check_async is None
            else load_report(args.check_async)
        )
        extra = {}
        records = run_async_suite(scale=args.scale, extra_out=extra)
        runs.append(
            ("rmi_async", records, extra, args.async_output, baseline)
        )
    if args.suite in ("all", "shard"):
        baseline = (
            None if args.check_shard is None
            else load_report(args.check_shard)
        )
        extra = {}
        records = run_shard_suite(scale=args.scale, extra_out=extra)
        runs.append(
            ("rmi_shard", records, extra, args.shard_output, baseline)
        )
    if args.suite in ("all", "store"):
        baseline = (
            None if args.check_store is None
            else load_report(args.check_store)
        )
        extra = {}
        records = run_store_suite(scale=args.scale, extra_out=extra)
        runs.append(
            ("rmi_store", records, extra, args.store_output, baseline)
        )
    if args.suite in ("all", "cpu"):
        baseline = (
            None if args.check_cpu is None
            else load_report(args.check_cpu)
        )
        extra = {}
        records = run_cpu_suite(scale=args.scale, extra_out=extra)
        runs.append(
            ("rmi_cpu", records, extra, args.cpu_output, baseline)
        )

    status = 0
    for suite, records, extra, output, baseline in runs:
        write_report(output, suite, records, extra=extra)
        print(format_table(records))
        print(f"wrote {output}")
        if baseline is None:
            continue
        anchor = NORMALIZE_ANCHORS.get(suite)
        if anchor is None:
            # The cpu suite's thread-vs-process ratios depend on the
            # machine's core count, so its gate always normalizes
            # within each record family (--normalize is implied).
            result = compare_cpu_reports(
                baseline, records, tolerance=args.tolerance
            )
        else:
            result = compare_reports(
                baseline,
                records,
                tolerance=args.tolerance,
                normalize=args.normalize,
                anchor=anchor,
            )
        for line in result.lines:
            print(line)
        if not result.ok:
            failed = (
                result.regressions
                + [f"{m} (missing)" for m in result.missing]
            )
            print(
                f"REGRESSION ({suite}): {len(failed)} record(s) beyond "
                f"-{args.tolerance:.0%}: {', '.join(failed)}",
                file=sys.stderr,
            )
            status = 1
        else:
            print(f"bench check OK ({suite})")

    # The scenario suite writes one deterministic report per scenario
    # (BENCH_scenario_<name>.json under --scenario-dir), so it runs as
    # its own block rather than through the single-file loop above.
    if args.suite in ("all", "scenario"):
        from repro.scenarios.bench import (
            check_scenario_reports,
            run_scenario_suite,
            scenario_report_path,
        )

        results = run_scenario_suite(
            scale=args.scale, out_dir=args.scenario_dir
        )
        for name, result, _doc in results:
            print(result.describe())
            print(f"wrote {scenario_report_path(args.scenario_dir, name)}")
        if args.check_scenario is not None:
            ok, lines = check_scenario_reports(
                results, args.check_scenario, tolerance=args.tolerance
            )
            for line in lines:
                print(line)
            if ok:
                print("bench check OK (scenario)")
            else:
                print(
                    "REGRESSION (scenario): drift beyond "
                    f"-{args.tolerance:.0%} vs {args.check_scenario}",
                    file=sys.stderr,
                )
                status = 1
    return status


def _cmd_chaos(args: argparse.Namespace) -> int:
    # Imported lazily (like every command) — and scenario in particular
    # must stay out of repro.faults.__init__ to avoid an import cycle
    # with repro.core.
    from repro.faults.scenario import run_chaos_scenario

    report = run_chaos_scenario(seed=args.seed, duration=args.duration)
    with open(args.output, "w") as handle:
        handle.write(report.to_json() + "\n")
    print(report.summary())
    print(f"wrote {args.output}")
    return 0 if report.ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    # Lazy import; repro.obs.scenario imports repro.core (layering note
    # in that module's docstring).
    from repro.obs.scenario import run_traced_scenario

    run = run_traced_scenario(seed=args.seed, duration=args.duration)
    with open(args.output, "w") as handle:
        handle.write(run.to_jsonl())
    if args.summary:
        with open(args.summary, "w") as handle:
            handle.write(run.summary_json() + "\n")
    print(run.describe())
    print(f"wrote {args.output}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from repro.obs.export import load_trace, summarize_trace, validate_summary

    if args.input is not None:
        events = load_trace(args.input)
        summary = summarize_trace(events)
    else:
        from repro.obs.scenario import run_traced_scenario

        run = run_traced_scenario(seed=args.seed, duration=args.duration)
        summary = run.summary()
    problems = validate_summary(summary)
    if problems:
        for problem in problems:
            print(f"invalid summary: {problem}", file=sys.stderr)
        return 1
    text = json.dumps(summary, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.obs.export import validate_summary
    from repro.scenarios import SCENARIOS, run_scenario

    if args.name == "list":
        print(f"{'name':<18} {'tenants':<28} {'users':>10} {'dur s':>7}")
        for spec in SCENARIOS.values():
            tenants = ",".join(t.name for t in spec.tenants)
            print(
                f"{spec.name:<18} {tenants:<28} {spec.users:>10} "
                f"{spec.duration_s:>7.0f}  {spec.title}"
            )
        return 0
    names = list(SCENARIOS) if args.name == "all" else [args.name]
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        print(
            f"unknown scenario(s): {', '.join(unknown)} "
            f"(known: {', '.join(SCENARIOS)})",
            file=sys.stderr,
        )
        return 2
    if args.output is not None and len(names) > 1:
        print("-o works with a single scenario; use --summary-dir",
              file=sys.stderr)
        return 2
    status = 0
    for name in names:
        result = run_scenario(
            name,
            seed=args.seed,
            scale=args.scale,
            mode=args.mode,
            live_duration_s=args.live_duration,
        )
        print(result.describe())
        summary = result.summary()
        problems = validate_summary(summary)
        for problem in problems:
            print(f"invalid summary ({name}): {problem}", file=sys.stderr)
            status = 1
        text = json.dumps(summary, indent=2, sort_keys=True)
        if args.output is not None:
            with open(args.output, "w") as handle:
                handle.write(text + "\n")
            print(f"wrote {args.output}")
        if args.summary_dir is not None:
            os.makedirs(args.summary_dir, exist_ok=True)
            path = os.path.join(
                args.summary_dir, f"SCENARIO_{name}.json"
            )
            with open(path, "w") as handle:
                handle.write(text + "\n")
            print(f"wrote {path}")
    return status


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
