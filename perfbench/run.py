"""Benchmark of orderdim: exact search, cold CLI calls, full verify sweep.

    python3 perfbench/run.py --workload dim-search --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports orderdim from its
src/ directory. The last line of stdout is one JSON object with keys
correct, attempted, failed and metrics; the line before it describes the
machine and the run. --trace 0 reports the end-to-end metrics, --trace 1
the per-layer ones. --smoke runs a small slice of the chosen workload
once, with every check, in a few seconds. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import hostspeed
from checks import Refuted

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("dim-search", "cli-cold", "verify-all")

# A run continues until --seconds have passed and at least this many
# operations were timed, so the p90 has at least ten samples beyond it.
MIN_SAMPLES = 100
TAIL_PERCENTILE = 90
SETUP_REPEATS = 7

STAGE_MS = (
    "relations.quotient",
    "reduction.pair_digraph",
    "digraphs.scc",
    "solvers.dicr",
    "reduction.cover_to_extensions",
    "reduction.check_cover",
    "serialize.parse",
    "serialize.dumps",
    "generate.corpus",
    "generate.enumerate",
    "campaigns.recheck",
)
COUNTS = {
    "reduction.pair_vertices": "count",
    "reduction.pair_edges": "count",
    "digraphs.largest_scc": "count",
    "serialize.out_bytes": "B",
    "campaigns.certs": "count",
}


def per_layer_names(campaigns) -> dict[str, str]:
    names = {
        "cli.interpreter_ms": "ms",
        "cli.import_ms": "ms",
        "cli.import_generate_ms": "ms",
        **{f"{s}_ms": "ms" for s in STAGE_MS},
        **COUNTS,
        "trace.unattributed_ms": "ms",
        "solvers.us_per_node": "us",
        **{f"campaigns.{c}_ms": "ms" for c in campaigns},
        "trace.overhead_s": "s",
    }
    return names


def machine(version: str) -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "orderdim": version,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Verdicts:
    """Independent verdicts per operation, computed once per output."""

    def __init__(self, workload):
        self.workload = workload
        self.first: dict[int, object] = {}
        self.confirmed: dict[int, bool] = {}
        self.errors: list[str] = []

    def failed(self, outputs) -> list[int]:
        """Indices that failed in this round; records any wrong output."""
        bad = []
        for i, out in enumerate(outputs):
            if out is None:
                bad.append(i)
                continue
            if i not in self.first:
                self.first[i] = out
                try:
                    self.confirmed[i] = self.workload.check(i, out)
                except (Refuted, KeyError, TypeError, ValueError) as exc:
                    self.errors.append(f"{self.workload.labels[i]}: {exc!r}")
                    self.confirmed[i] = False
            elif out != self.first[i]:
                self.errors.append(f"{self.workload.labels[i]}: output changed between rounds")
            if not self.confirmed[i]:
                bad.append(i)
        check_round = getattr(self.workload, "check_round", None)
        if check_round is not None:
            try:
                check_round(outputs)
            except Refuted as exc:
                self.errors.append(repr(exc))
        return bad


def time_setups(args) -> list[float]:
    """Set-up times of fresh processes. Each reports its import time raw
    and its input generation already scaled in process; the import is
    scaled here by the cold-start calibration children around it."""
    from workloads import (CHILD_TIMEOUT_S, CLI_CAL_NOMINAL_S, clean_env,
                           cold_calibration_s)

    env = clean_env(ROOT)
    out = []
    before = cold_calibration_s(env)
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                "--workload", args.workload, "--seed", str(args.seed)]
        if args.smoke:
            argv.append("--smoke")
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        after = cold_calibration_s(env)
        import_s, inputs_s = map(float, proc.stdout.decode().split()[-2:])
        out.append(hostspeed.scaled([import_s], before, after, CLI_CAL_NOMINAL_S)[0] + inputs_s)
        before = after
    return out


def untraced(args, wl, info: dict) -> dict:
    verdicts = Verdicts(wl)
    rounds: list[float] = []
    per_op: list[list[float]] = []
    failed_ops: set[int] = set()
    attempted = failed = 0
    min_samples = 1 if args.smoke else MIN_SAMPLES
    start = perf_counter()
    while True:
        r = wl.round()
        rounds.append(r.seconds)
        if not per_op:
            per_op = [[] for _ in r.times]
        if len(r.times) != len(per_op):
            verdicts.errors.append("the number of operations changed between rounds")
            break
        for op, t in zip(per_op, r.times):
            op.append(t)
        bad = verdicts.failed(r.outputs)
        attempted += len(r.outputs)
        failed += len(bad)
        failed_ops.update(bad)
        samples = [1e3 * t for i, op in enumerate(per_op) if i not in failed_ops for t in op]
        if args.smoke or perf_counter() - start >= args.seconds and len(samples) >= min_samples:
            break
    rss = wl.peak_rss_mb()
    setups = time_setups(args)
    typical = [statistics.median(op) for op in per_op]
    solved = [1e3 * typical[i] for i in range(len(typical)) if i not in failed_ops]
    tail = (statistics.quantiles(samples, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
            if len(samples) > 1 else samples[0])
    info.update(
        rounds=len(rounds),
        round_s=[round(x, 4) for x in rounds],
        samples=len(samples),
        tail=f"p{TAIL_PERCENTILE}",
        setup_samples_s=[round(x, 4) for x in setups],
        failed_ops=sorted(wl.labels[i] for i in failed_ops),
        errors=verdicts.errors + getattr(wl, "notes", []),
    )
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "pass_s": metric(sum(typical), "s"),
        "op_p50_ms": metric(statistics.median(solved), "ms"),
        "op_p90_ms": metric(tail, "ms"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    return {"correct": not verdicts.errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def traced(args, wl, info: dict) -> dict:
    """One untraced round of the chosen workload for reference, then one
    traced pass of every workload (so every per-layer metric is measured).
    The overhead compares the traced pass with the reference round's
    unscaled operation time."""
    import corpus
    import workloads

    verdicts = Verdicts(wl)
    ref = wl.round()
    bad = verdicts.failed(ref.outputs)
    spans = workloads.Spans()
    counts = {k: 0 for k in COUNTS}
    pass_s = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        for name in WORKLOAD_NAMES:
            other = wl if name == args.workload else workloads.WORKLOADS[name](
                ROOT, args.seed, args.smoke, Path(work) / name)
            pass_s[name] = other.traced(spans, counts)
            if name == "cli-cold":
                other.probes(spans, counts, 1 if args.smoke else workloads.PROBE_REPEATS)
    counts.setdefault("solvers.us_per_node", 0.0)
    counts["trace.overhead_s"] = pass_s[args.workload] - ref.raw_s
    campaigns = corpus.CAMPAIGN_NAMES
    for name in per_layer_names(campaigns):
        if name.endswith("_ms") and name not in counts:
            counts[name] = spans.total_ms(name[: -len("_ms")])
    info.update(traced_pass_s={k: round(v, 4) for k, v in pass_s.items()},
                reference_ops_s=round(ref.raw_s, 4), spans=spans.summary(),
                failed_ops=sorted(wl.labels[i] for i in bad), errors=verdicts.errors)
    metrics = {name: metric(counts[name], unit) for name, unit in per_layer_names(campaigns).items()}
    return {"correct": not verdicts.errors, "attempted": len(ref.outputs), "failed": len(bad),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "orderdim" / "__init__.py").is_file():
        print(f"error: no orderdim sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    start = perf_counter()
    import orderdim
    import workloads

    import_s = perf_counter() - start
    hostspeed.calibration_s()  # warm the task's code before timing it
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        before = hostspeed.calibration_s()
        start = perf_counter()
        wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, args.smoke, Path(work))
        inputs_s = hostspeed.scaled([perf_counter() - start], before, hostspeed.calibration_s())[0]
        if args.setup_only:
            print(import_s, inputs_s)
            return 0
        info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "smoke": args.smoke, "machine": machine(orderdim.__version__)}
        result = traced(args, wl, info) if args.trace else untraced(args, wl, info)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
