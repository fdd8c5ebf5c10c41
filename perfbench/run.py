"""Run one workload of the audit-service benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload table1-fresh --seed 1 --seconds 10 --trace 0

``--trace 0`` boots ``repro serve`` as its own process and prints the
end-to-end metrics; ``--trace 1`` runs the daemon in-process with the
layer wrappers of ``perfbench/ledger.py`` and prints the per-layer
ledger.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metric -> unit (the ``--trace 0`` result).
END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "heavy_p50_ms": "ms",
    "light_p50_ms": "ms",
    "p95_ms": "ms",
    "correct_ratio": "ratio",
    "server_rss_mb": "MiB",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("calls"):
        return "count"
    return "ratio"


def parse_args(argv=None) -> argparse.Namespace:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _report_untraced(args, result) -> dict:
    print(
        f"{args.workload} seed={args.seed}: {result['attempted']} requests, "
        f"{result['failed']} wrong or failed; {result['rounds']} timed rounds in "
        f"{result['wall_s']:.2f}s: p95 over {result['p95_samples']} samples, heavy p50 over "
        f"{result['heavy_samples']}, light p50 over {result['light_samples']}; "
        f"times divided by the host factor (median {result['host_factor']:.3f}); "
        f"set-ups {', '.join(f'{t:.3f}' for t in result['setups_s'])} s; "
        f"host.calib_ms before/after {result['calib_ms'][0]:.2f}/{result['calib_ms'][1]:.2f}"
    )
    for name, unit in END_TO_END.items():
        print(f"  {name:<16} {result[name]:>12.4f} {unit}")
    return {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END.items()}


def _report_traced(args, result) -> dict:
    from perfbench.ledger import PREDICTIONS

    print(f"{args.workload} seed={args.seed} traced ledger (predicted end-to-end effect):")
    metrics = {}
    for name, value in result["metrics"].items():
        layer = next((key for key in sorted(PREDICTIONS, key=len, reverse=True) if name.startswith(key)), "")
        note = f"  -> {PREDICTIONS[layer][0]} on {PREDICTIONS[layer][1]}" if layer else ""
        print(f"  {name:<34} {value:>14.4f}{note}")
        metrics[name] = {"value": value, "unit": layer_unit(name)}
    return metrics


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    args = parse_args(argv)
    from perfbench.workloads import measure, trace

    if args.trace:
        result = trace(args.workload, args.seed, args.seconds)
        metrics = _report_traced(args, result)
    else:
        result = measure(args.workload, args.seed, args.seconds, ROOT, ROOT / ".perfbench")
        metrics = _report_untraced(args, result)
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
