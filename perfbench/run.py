"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-online --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs the same inputs once untraced and once with spans on every layer
boundary (see ``layers.py``) and reports the per-layer metrics, including
the tracing overhead; the traced run must serve bit-identically.  Without
``--workload`` every workload runs, each in a fresh interpreter, and the
command exits non-zero if any check failed.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  ``DESIGN.md`` records why each
workload exists and which metric each layer should move.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fleet-online", "gateway-http", "megafleet-cohort", "figure7-lean")
END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "mean_access_time": "model_time",
    "hit_rate": "fraction",
    "peak_rss_mb": "MB",
}
SPANS_DIR = ROOT / ".perfbench"


def import_repro() -> float:
    """Import the package from this checkout's ``src``; returns the seconds taken."""
    started = time.perf_counter()
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {src}")
    sys.path.insert(0, str(src))
    import repro
    import repro.distsys.fleet  # noqa: F401
    import repro.distsys.megafleet  # noqa: F401
    import repro.experiments  # noqa: F401
    import repro.gateway.service  # noqa: F401

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")
    return time.perf_counter() - started


@dataclass
class Pass:
    setup_s: float
    shard_run_s: list
    outcomes: list

    @property
    def run_s(self) -> float:
        return sum(self.shard_run_s)


def no_scope(_name):
    return nullcontext()


def one_pass(workload, shards, scope=no_scope) -> Pass:
    setup_s = 0.0
    run_s = []
    outcomes = []
    for shard in shards:
        started = time.perf_counter()
        prepared = workload.setup(shard)
        built = time.perf_counter()
        outcomes.append(workload.run(prepared, scope))
        run_s.append(time.perf_counter() - built)
        setup_s += built - started
        del prepared
    return Pass(setup_s, run_s, outcomes)


def served_failures(outcomes) -> list[str]:
    failures = []
    for k, o in enumerate(outcomes):
        if o.requests != o.expected:
            failures.append(f"shard {k}: served {o.requests} of {o.expected} requests")
        if o.hits + o.waits + o.misses != o.requests:
            failures.append(
                f"shard {k}: hits {o.hits} + waits {o.waits} + misses {o.misses} "
                f"!= requests {o.requests}"
            )
    return failures


def run_batch(
    name: str, seed: int, seconds: float, trace: bool, import_s: float, spans_path: Path
) -> dict:
    """Passes over the workload's shards for ``seconds`` (at least one).

    The shards of a workload are equal-sized draws of one input kind, so
    ``requests_per_s`` is the median rate over every shard run: the host's
    speed drifts by 10-20% over seconds, and the median keeps a slow spell
    during a few runs from setting the rate.
    """
    from layers import install_core, layer_metrics
    from spans import Patches, SpanRecorder
    from workloads import BATCH

    workload = BATCH[name]
    failures = workload.check(seed)
    shards = workload.shards(seed)
    passes = []
    began = time.perf_counter()
    while True:
        passes.append(one_pass(workload, shards))
        last = passes[-1]
        failures += served_failures(last.outcomes)
        if last.outcomes != passes[0].outcomes:
            failures.append("a repeated pass served differently from the first")
        if trace or time.perf_counter() - began + last.setup_s + last.run_s > seconds:
            break
    first = passes[0].outcomes
    requests = sum(o.requests for o in first)
    result = {
        "attempted": sum(o.requests for p in passes for o in p.outcomes),
        "failures": failures,
        "end_to_end": {
            "setup_s": import_s + statistics.median(p.setup_s for p in passes),
            "requests_per_s": statistics.median(
                o.requests / t for p in passes for o, t in zip(p.outcomes, p.shard_run_s)
            ),
            "mean_access_time": sum(o.mean_access_time * o.requests for o in first) / requests,
            "hit_rate": sum(o.hits for o in first) / requests,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "lines": [f"  {len(passes)} pass(es) of {len(shards)} shard(s), "
                  f"{requests} requests each"],
    }
    if not trace:
        return result

    recorder = SpanRecorder()
    with Patches(recorder) as patches:
        install_core(patches, workload.predictor)
        traced = one_pass(workload, shards, recorder.scope)
    result["attempted"] += sum(o.requests for o in traced.outcomes)
    if traced.outcomes != first:
        failures.append("the traced pass served differently from the untraced pass")
    recorder.save(spans_path)
    facts = {
        "requests": requests,
        "waits": sum(o.waits for o in first),
        "prefetches_scheduled": sum(o.scheduled for o in first),
        "prefetches_used": sum(o.used for o in first),
        "events.count": sum(o.events for o in first),
        "network.utilization": statistics.fmean(
            0.0 if math.isnan(o.utilization) else o.utilization for o in first
        ),
        "megafleet.plans_per_request": sum(o.plan_solves for o in first) / requests,
        "trace.overhead_frac": traced.run_s / passes[0].run_s - 1.0,
    }
    result["per_layer"] = layer_metrics(recorder.summary(), recorder.values, facts)
    return result


def run_one(args) -> int:
    from layers import UNITS

    import_s = import_repro()
    spans_path = SPANS_DIR / f"{args.workload}-{args.seed}.npz"
    if args.trace:
        SPANS_DIR.mkdir(exist_ok=True)
    if args.workload == "gateway-http":
        from gateway_workload import run_gateway

        result = run_gateway(
            args.seed, trace=bool(args.trace), import_s=import_s, spans_path=spans_path
        )
    else:
        result = run_batch(
            args.workload, args.seed, args.seconds, bool(args.trace), import_s, spans_path
        )

    if args.trace:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in result["per_layer"].items()}
    else:
        metrics = {
            k: {"value": v, "unit": END_TO_END[k]} for k, v in result["end_to_end"].items()
        }
    failures = result["failures"]
    print(f"{args.workload} seed {args.seed} ({'traced' if args.trace else 'untraced'})")
    for line in result["lines"]:
        print(line)
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    for failure in failures:
        print(f"  CHECK FAILED: {failure}")
    attempted = int(result["attempted"])
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": attempted if failures else 0,
        "metrics": metrics,
    }))
    return 1 if failures else 0


def run_all(args) -> int:
    """Every workload in its own interpreter; non-zero if any check failed."""
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 1 if status or not combined["correct"] else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=20.0,
        help="how long the batch workloads repeat passes (at least one); "
             "gateway-http's phases have fixed sizes",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
