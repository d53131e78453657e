"""Host-cost benchmark of the FS-NewTOP reproduction.

Run from the repository root::

    python3 hostbench/run.py --workload paper_fig7 --seed 1 --seconds 20 --trace 0

Workloads: ``paper_fig7``, ``sharded_mixed``, ``audit_recover`` (the
simulator, repeated back to back for ``--seconds``) and ``live_fleet``
(``--seconds`` of session arrivals on the asyncio TCP transport).

``--trace 0`` prints every end-to-end metric with its unit and its
``host``/``modelled`` kind; ``--trace 1`` spends a third of the time on
an untraced baseline and the rest on a traced run, and prints the
per-layer figures and each layer's share of the traced wall time.
Either way the last stdout line is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``) holding the metrics that
``BENCHMARK.json`` lists.  Any failed correctness check exits 1.

Full reports (one per workload, seed and mode) and the latest traced
run's spans (one file per workload) are written to ``.hostbench/`` under
the repository root.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import pathlib
import platform
import shutil
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".hostbench"
CATALOGUE = pathlib.Path(__file__).resolve().parent / "metrics.json"
WORKLOADS = ("paper_fig7", "sharded_mixed", "audit_recover", "live_fleet")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_facts() -> dict[str, str | int | None]:
    """What the figures were measured on, recorded next to them."""
    try:
        crypto_version = importlib.metadata.version("cryptography")
    except importlib.metadata.PackageNotFoundError:
        crypto_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cryptography": crypto_version,
        "machine": platform.machine(),
    }


def _fmt(value: float) -> str:
    if isinstance(value, float) and (math.isinf(value) or math.isnan(value)):
        return str(value)
    return f"{value:.6g}"


def render(outcome, catalogue: dict, trace: bool) -> list[str]:
    """The human-readable report: every metric by name, unit and kind."""
    lines = []
    kinds = {m["name"]: m for m in catalogue["end_to_end"]}
    notes = outcome.notes
    tails = {
        "latency_tail_ms": (notes.get("latency_tail"), notes.get("latency_samples")),
        "model_latency_tail_ms": (
            notes.get("model_latency_tail"),
            notes.get("model_latency_samples"),
        ),
    }
    values = dict(outcome.host)
    values["ops_failed_frac"] = (
        (outcome.offered - outcome.done) / outcome.offered if outcome.offered else 0.0
    )
    values.update(outcome.modelled)
    for name, value in values.items():
        entry = kinds[name]
        extra = ""
        if name in tails:
            label, samples = tails[name]
            extra = f"  ({label} of {samples} samples)"
        elif name.startswith("latency_p50") or name.startswith("model_latency_p50"):
            samples = notes.get("latency_samples", notes.get("model_latency_samples"))
            extra = f"  ({samples} samples)"
        lines.append(
            f"  {name:<24} {_fmt(value):>12} {entry['unit']:<6} {entry['kind']}{extra}"
        )
    if "host_speed" in notes:
        lines.append(
            f"  host speed {notes['host_speed']:.3f} of reference; as measured: "
            f"ops_per_host_s {_fmt(notes['measured_ops_per_host_s'])}, "
            f"cpu_us_per_op {_fmt(notes['measured_cpu_us_per_op'])}, "
            f"setup_s {_fmt(notes['measured_setup_s'])}"
        )
    if trace:
        units = {m["name"]: m["unit"] for m in catalogue["per_layer"]}
        wall = outcome.layers["trace.wall_s"]
        lines.append(
            f"  traced wall {wall:.3f} s, accounted "
            f"{outcome.layers['trace.accounted_s'] / wall:.4%} by layer self times + other"
        )
        for name in units:
            value = outcome.layers[name]
            share = ""
            if name.endswith(".self_us_per_op"):
                per_op_wall_us = wall * 1e6 / outcome.layers["trace.ops"]
                share = f"  {value / per_op_wall_us:7.2%} of traced wall"
            lines.append(f"  {name:<30} {_fmt(value):>12} {units[name]:<6}{share}")
    return lines


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from hostbench import workloads

    catalogue = json.loads(CATALOGUE.read_text())
    trace = bool(args.trace)
    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    facts = host_facts()
    print(
        f"hostbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}  host: "
        + " ".join(f"{k}={v}" for k, v in facts.items()),
        flush=True,
    )
    try:
        if args.workload == "live_fleet":
            outcome = workloads.measure_live(args.seed, args.seconds, trace)
        else:
            outcome = workloads.measure_sim(
                workloads.SIM_WORKLOADS[args.workload],
                args.seed,
                args.seconds,
                scratch,
                trace,
            )
    except workloads.BenchmarkFailure as exc:
        print(f"correctness: FAIL: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        # Flight bundles of audited runs land here; none may outlive the run.
        shutil.rmtree(scratch, ignore_errors=True)
    for line in render(outcome, catalogue, trace):
        print(line)
    print(
        f"correctness: PASS  offered={outcome.offered} failed={outcome.offered - outcome.done}"
        + "".join(f" {k}={v}" for k, v in sorted(outcome.notes.items()))
    )
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host_facts": facts,
        "host": outcome.host,
        "modelled": outcome.modelled,
        "layers": outcome.layers,
        "notes": outcome.notes,
        "offered": outcome.offered,
        "done": outcome.done,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=2, default=str))
    if trace:
        # One spans file per workload, overwritten by its next traced run.
        with open(OUT_DIR / f"{args.workload}-spans.jsonl", "w") as out:
            for span_id, name, layer, start, end, parent, op in outcome.spans:
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "layer": layer,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )
    listed = [m for m in catalogue["per_layer" if trace else "end_to_end"] if m["json"]]
    source = outcome.layers if trace else outcome.host
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in listed}
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": outcome.offered,
                "failed": outcome.offered - outcome.done,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
