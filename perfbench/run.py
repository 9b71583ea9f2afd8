#!/usr/bin/env python3
"""ElasticRMI end-to-end benchmark: one workload, one run, one result.

    python3 perfbench/run.py --workload unary-small --seed 1 --seconds 20 --trace 0

Run from the repository root.  A run is several rounds, each a fresh
process of this same command (``--round``, internal).  ``--trace 0``
runs the workload's measured rounds untraced and prints every
end-to-end metric.  ``--trace 1`` runs the same rounds, then one more
round with every layer's entry points wrapped and, for fixed-pool
workloads, the capacity ladder; it prints the per-layer metrics and the
tracing overhead (traced minus untraced p50).  The last line of
standard output is the JSON result; the line before it is the full
report (configuration, sample counts, per-round medians).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: name -> unit of every metric each mode prints (BENCHMARK.json order).
END_TO_END = {
    "setup_s": "s",
    "lat_p50_ms": "ms",
    "goodput_rps": "1/s",
    "ok_frac": "ratio",
    "slo_ok_frac": "ratio",
}
PER_LAYER = {
    "lat_p99_ms": "ms",
    "capacity_rps": "1/s",
    "scaleup_s": "s",
    "member_s": "member-s",
    "agility": "members",
    "balancer.submit_us": "us",
    "balancer.attempts_per_call": "count",
    "balancer.refreshes": "count",
    "balancer.epoch_reads_per_call": "count",
    "fastpath.marshal_us": "us",
    "fastpath.unmarshal_us": "us",
    "fastpath.zero_copy_share": "ratio",
    "fastpath.bytes_per_call": "bytes",
    "batching.batches": "count",
    "batching.coalesce_ratio": "ratio",
    "transport.queue_wait_us": "us",
    "transport.hop_us": "us",
    "transport.messages": "count",
    "skeleton.self_us": "us",
    "skeleton.errors": "count",
    "handler.us": "us",
    "handler.us.get": "us",
    "handler.us.exists": "us",
    "handler.us.get_children": "us",
    "handler.us.set_data": "us",
    "kvstore.read_us": "us",
    "kvstore.write_us": "us",
    "kvstore.ops_per_call": "count",
    "kvstore.cache_hit_ratio": "ratio",
    "cpu.dispatch_us.4k": "us",
    "cpu.dispatch_us.64k": "us",
    "cpu.dispatch_us.1m": "us",
    "cpu.respawns": "count",
    "scaling.decide_us": "us",
    "scaling.ticks_to_target": "count",
    "pool.provision_s": "s",
    "pool.drain_s": "s",
    "pool.grow_us": "us",
    "pool.shrink_us": "us",
    "driver.lag_p99_ms": "ms",
    "setup.not_ready_retries": "count",
    "trace.overhead_p50_ms": "ms",
    "trace.overhead_frac": "ratio",
}
#: Wall-clock budget of one command, all its rounds included.
RUN_BUDGET_S = 170.0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run one round (KIND:INDEX:SECONDS) in this process.
    parser.add_argument("--round", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def result_line(correct: bool, attempted: int, failed: int,
                values: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    })


class Launcher:
    """Runs rounds as fresh child processes of this command."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def __call__(self, kind: str, index: int, seconds: float,
                 traced: bool = False) -> dict:
        a = self.args
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", a.workload, "--seed", str(a.seed),
             "--seconds", str(a.seconds), "--trace", str(int(traced)),
             "--round", f"{kind}:{index}:{seconds!r}"],
            capture_output=True, text=True,
            timeout=max(1.0, self.deadline - time.monotonic()),
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"{kind} round {index} exited {proc.returncode}")
        return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: the repro sources (src/repro) are not here; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    # Measure the default configuration: no ERMI_* knob may leak in
    # (some are read when repro modules are imported).
    for key in [k for k in os.environ if k.startswith("ERMI_")]:
        del os.environ[key]
    sys.path[:0] = [SRC, HERE]
    from ermibench import metrics, runner
    from ermibench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.round:
        kind, index, seconds = args.round.split(":")
        print(json.dumps(runner.run_round(
            args.workload, args.seed, int(index), kind, float(seconds),
            traced=bool(args.trace),
        )))
        return 0

    launch = Launcher(args)
    base = runner.run(args.workload, args.seed, args.seconds, launch)
    print(runner.describe(base), file=sys.stderr)
    if args.trace == 0:
        print(json.dumps({"report": base}))
        print(result_line(base["correct"], base["attempted"], base["failed"],
                          base["e2e"], END_TO_END))
        return 0

    # Traced: one measured round again with every layer wrapped, then
    # (fixed-pool workloads) the capacity ladder, last.
    workload = WORKLOADS[args.workload]()
    kind, seconds = runner.plan(workload, args.seconds)[0]
    extra = [launch(kind, 90, seconds, traced=True)]
    if not workload.elastic:
        extra.append(launch("ladder", 91, args.seconds * runner.LADDER_SHARE))
    traced = extra[0]
    values = dict(traced["layers"])
    values.update(base["layers"])
    values["capacity_rps"] = extra[-1]["ladder"]["capacity_rps"]
    traced_p50 = 1e3 * metrics.percentiles(traced["latencies"]).p50
    base_p50 = base["e2e"]["lat_p50_ms"]
    values["trace.overhead_p50_ms"] = traced_p50 - base_p50
    values["trace.overhead_frac"] = traced_p50 / base_p50 - 1.0
    print(json.dumps({"report": base, "extra_rounds": [
        {k: v for k, v in r.items() if k not in ("latencies", "lags")}
        for r in extra
    ]}))
    print(result_line(
        base["correct"] and not any(r["problems"] for r in extra),
        base["attempted"] + sum(r["attempted"] for r in extra),
        base["failed"] + sum(r["failed"] for r in extra),
        values, PER_LAYER,
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
