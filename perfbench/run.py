"""End-to-end benchmark of the ``repro`` CLI with a traced per-layer split.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_flow --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats the workload's real ``python -m repro`` commands for
``--seconds`` and reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes one traced in-process run and reports its per-layer
metrics.  Every command's output is checked.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (``{name: {"value": ..., "unit": ...}}``).

``--record-references`` reruns the reference sweeps and rewrites
``references.json``; only do that when a change is meant to alter results.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import pathlib
import platform
import shutil
import subprocess
import sys
import time
from collections import Counter

import workloads
from procs import ROOT, SRC, WORK, run_repro
from workloads import (
    FAMILIES,
    REFERENCES,
    WORKLOADS,
    Ledger,
    load_references,
    parse_sweep,
    replay_seeds,
)

LAYERS = pathlib.Path(__file__).resolve().parent / "layers.json"
#: The run stops starting repetitions once it could pass this many seconds.
BUDGET_S = 150.0


def provenance() -> dict:
    """Where and on what code the numbers were measured."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # the checkout is not a git repository
    sources = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sources.update(path.relative_to(SRC).as_posix().encode())
        sources.update(path.read_bytes())
    versions = {}
    for package in ("numpy", "scipy", "networkx"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
        "git_commit": commit,
        "src_sha256": sources.hexdigest(),
    }


def record_references(baseline: int, heldout: int) -> None:
    """Rerun the reference sweeps of both seeds into ``references.json``."""
    seeds = {
        "flow": sorted({baseline, heldout}),
        "pooled": sorted(
            {s for seed in (baseline, heldout) for s in [seed, *replay_seeds(seed)]}
        ),
    }
    sweeps = {}
    where = WORK / "references"
    for name, family_seeds in seeds.items():
        sweeps[name] = {}
        for seed in family_seeds:
            store = where / f"{name}-{seed}" if FAMILIES[name].workers else None
            done = run_repro(
                FAMILIES[name].cli(seed, store), where, f"{name}-{seed}"
            )
            out = parse_sweep(done.stdout)
            if done.returncode != 0 or out is None or out.failures:
                sys.exit(f"reference sweep {name} seed {seed} failed:\n{done.stderr}")
            sweeps[name][str(seed)] = {"digest": out.digest, "lambdas": out.lambdas}
    shutil.rmtree(where, ignore_errors=True)
    REFERENCES.write_text(json.dumps({
        "baseline_seed": baseline,
        "heldout_seed": heldout,
        "provenance": provenance(),
        "sweeps": sweeps,
    }, indent=2) + "\n")


def groups(metrics: dict, trace: int):
    """``(layer, metric names)`` in ``layers.json`` order when traced."""
    if not trace:
        return [("", list(metrics))]
    layers = json.loads(LAYERS.read_text())["layers"]
    grouped = [(layer["layer"], layer["metrics"]) for layer in layers]
    listed = sorted(name for _, names in grouped for name in names)
    if listed != sorted(metrics):
        sys.exit("perfbench: layers.json and BENCHMARK.json per_layer disagree")
    return grouped


def print_shares(values: dict) -> None:
    """The shares the workload choice rests on, of one real repetition."""
    rep = values["rep.wall_s"]
    startup = values["rep.commands"] * (
        values["import.python_s"] + values["import.repro_main_s"]
    )
    shares = {
        f"interpreter start x{values['rep.commands']:.0f}": startup,
        "scheme_a.flow_s": values["scheme_a.flow_s"],
        "parallel.run_s": values["parallel.run_s"],
    }
    print("shares of rep.wall_s (one untraced repetition):")
    for name, seconds in shares.items():
        print(f"  {name:<30} {seconds / rep:14.1%}")


def main(argv=None) -> int:
    deadline = time.monotonic() + BUDGET_S
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_references:
        references = load_references()
        record_references(references["baseline_seed"], references["heldout_seed"])
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    ledger = Ledger(load_references())
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, ledger, run_dir)
    try:
        if args.trace:
            import traced  # imports repro in this process

            values, notes = traced.measure(workload), {}
        else:
            values, notes = workloads.measure(workload, args.seconds, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    missing = {metric["name"] for metric in wanted} - set(values)
    if missing:
        print(f"perfbench: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in wanted
    }
    error_frac = ledger.failed / max(ledger.attempted, 1)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    for layer, names in groups(metrics, args.trace):
        if layer:
            print(f"[{layer}]")
        for name in names:
            metric = metrics[name]
            print(f"  {name:<30} {metric['value']:14.6g} {metric['unit']}")
    if args.trace:
        print_shares(values)
    for name, value in notes.items():
        print(f"  {name:<30} {value:14.6g}")
    print(f"  {'error_frac':<30} {error_frac:14.6g} ({ledger.failed}/{ledger.attempted})")
    # |fitted - theory| exponent; seed-dependent, so reported, not bounded
    for slope_err, sweeps in Counter(
        round(err, 4) for err in ledger.slope_errs
    ).items():
        print(f"  {'slope_err':<30} {slope_err:14.4f} exponent ({sweeps} sweep(s))")
    print("provenance: " + json.dumps(provenance()))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
