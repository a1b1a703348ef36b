"""Traced run: per-layer metrics from spans recorded by this file only.

The program is not modified.  :class:`Patches` wraps the public entry
points of each layer (``sweep_capacity``, ``TrialRunner.run``,
``HybridNetwork.build``, ``SchemeA.sustainable_rate``, ``RunStore.put``,
``RunIndex.refresh`` ...) for the duration of one in-process run, and the
wrappers record spans into a :class:`Tracer` kept in memory.  The spans
are written once, at the end, to ``.perfbench/trace-<workload>-<seed>.jsonl``.

Pool workers are forked, so spans they record stay in the worker.  The
runner-level split of a pooled run therefore comes from the
``TrialRunner`` results and stats in the parent, and the kernel spans
come from the same payloads run again inline (phase ``kernels``).

The import layer is measured from outside: wall time of a bare
interpreter, of ``import repro.__main__``, and ``-X importtime``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import pathlib
import shutil
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from procs import SRC, WORK, run_python
from workloads import (
    FLOW,
    POOLED,
    Family,
    Ledger,
    Measured,
    Workload,
    replay_seeds,
)

sys.path.insert(0, str(SRC))

from repro.core.regimes import NetworkParameters  # noqa: E402
from repro.experiments import scaling  # noqa: E402
from repro.parallel.runner import TrialRunner  # noqa: E402
from repro.routing.scheme_a import SchemeA  # noqa: E402
from repro.routing.scheme_b import SchemeB  # noqa: E402
from repro.serve import query as serve_query  # noqa: E402
from repro.serve.index import RunIndex  # noqa: E402
from repro.simulation.network import HybridNetwork  # noqa: E402
from repro.store.runstore import RunStore  # noqa: E402


class Tracer:
    """In-memory spans (name, start, end, parent, trace id) and counters.

    Spans of one command (a ``sweep_capacity`` call) share a trace id, and
    each trial or batch opens its own.  ``phase`` labels which pass of
    the workload a span or count belongs to.
    """

    def __init__(self):
        self.spans: List[dict] = []
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)
        self.phase = "run"
        self._stack: List[dict] = []
        self._traces = 0

    @contextlib.contextmanager
    def span(self, name: str, new_trace: bool = False):
        parent = self._stack[-1] if self._stack else None
        if new_trace or parent is None:
            self._traces += 1
            trace = self._traces
        else:
            trace = parent["trace"]
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": None if parent is None else parent["id"],
            "trace": trace,
            "phase": self.phase,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[(self.phase, name)] += amount

    def counted(self, name: str, phase: str) -> float:
        return self.counts.get((phase, name), 0.0)

    def outermost(self, span: dict) -> bool:
        """Whether no enclosing span has the same name."""
        parent = span["parent"]
        while parent is not None:
            if self.spans[parent]["name"] == span["name"]:
                return False
            parent = self.spans[parent]["parent"]
        return True

    def total(self, name: str, phase: str) -> float:
        """Seconds inside ``name`` spans of ``phase`` (nested repeats once)."""
        return sum(
            span["end"] - span["start"]
            for span in self.spans
            if span["name"] == name
            and span["phase"] == phase
            and self.outermost(span)
        )

    def calls(self, name: str, phase: str) -> int:
        return sum(
            1 for span in self.spans
            if span["name"] == name and span["phase"] == phase
        )

    def self_times(self) -> List[float]:
        """Each span's duration minus the time its child spans cover."""
        times = [span["end"] - span["start"] for span in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                times[span["parent"]] -= span["end"] - span["start"]
        return times

    def write(self, path: pathlib.Path) -> None:
        """Write every span, with its self time, as one JSON line."""
        origin = self.spans[0]["start"] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for span, self_s in zip(self.spans, self.self_times()):
                handle.write(json.dumps({
                    **span,
                    "start": span["start"] - origin,
                    "end": span["end"] - origin,
                    "self_s": self_s,
                }) + "\n")

    def self_by_name(self) -> Dict[Tuple[str, str], float]:
        """Total self time per (phase, span name)."""
        totals: Dict[Tuple[str, str], float] = defaultdict(float)
        for span, self_s in zip(self.spans, self.self_times()):
            totals[(span["phase"], span["name"])] += self_s
        return dict(totals)


class Patches:
    """Wrap layer entry points with spans and hooks; undone on close."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: List[tuple] = []

    def wrap(
        self,
        owner,
        attr: str,
        name: Optional[str] = None,
        new_trace: bool = False,
        after: Optional[Callable] = None,
    ) -> None:
        """Record a ``name`` span around ``owner.attr`` (none if ``name`` is
        ``None``) and call ``after(span, args, result)`` once it returns.

        An entry point a later change removed is skipped with a warning,
        so its metrics read 0 and the rest of the run still counts.
        """
        try:
            raw = inspect.getattr_static(owner, attr)
        except AttributeError:
            print(f"perfbench: {owner.__name__}.{attr} is gone; its metrics "
                  "read 0", file=sys.stderr)
            return
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind else raw
        tracer = self.tracer

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if name is None:
                record, result = None, func(*args, **kwargs)
            else:
                with tracer.span(name, new_trace) as record:
                    result = func(*args, **kwargs)
            if after is not None:
                after(record, args, result)
            return result

        setattr(owner, attr, kind(wrapper) if kind else wrapper)
        self._undo.append((owner, attr, raw))

    def close(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def instrument(tracer: Tracer) -> Patches:
    """Install the spans and counters of every layer the workloads use."""
    patches = Patches(tracer)
    count = tracer.count

    def runner_done(span, args, results):
        if not tracer.outermost(span):
            return  # run_batched executes its batches through run()
        stats = args[0].last_stats
        busy = sum(result.duration for result in results if not result.cached)
        workers = stats.workers or 1
        count("parallel.trial_busy_s", busy)
        count("parallel.dispatch_s", span["end"] - span["start"] - busy / workers)
        for field in ("trials", "cache_hits", "failures", "retries", "pool_rebuilds"):
            count(f"parallel.{field}", getattr(stats, field))

    def journal_loaded(span, args, loaded):
        index, skipped = loaded
        count("store.journal_lines", len(index) + skipped)

    def store_get(span, args, hit):
        count("store.gets")
        count("store.hits", hit is not None)

    patches.wrap(scaling, "sweep_capacity", "experiments.sweep", new_trace=True)
    patches.wrap(TrialRunner, "run", "parallel.run", after=runner_done)
    patches.wrap(TrialRunner, "run_batched", "parallel.run", after=runner_done)
    patches.wrap(scaling, "_sweep_trial", "trial", new_trace=True)
    patches.wrap(
        scaling, "_batched_sweep_trial", "batch", new_trace=True,
        after=lambda span, args, values: count("batched.members", len(values)),
    )
    patches.wrap(HybridNetwork, "build", "network.build")
    patches.wrap(HybridNetwork, "sample_traffic", "traffic.sample")
    # the network's scheme factories build each scheme (scheme B's builds
    # its per-MS access vector, bypassing SchemeB.__init__)
    patches.wrap(HybridNetwork, "scheme_a", "scheme_a.init")
    patches.wrap(SchemeA, "sustainable_rate", "scheme_a.flow")
    patches.wrap(
        SchemeA, "cell_edge_capacity",
        after=lambda span, args, value: count("scheme_a.edge_capacity_calls"),
    )
    patches.wrap(HybridNetwork, "scheme_b", "scheme_b.init")
    patches.wrap(SchemeB, "sustainable_rate", "scheme_b.flow")
    patches.wrap(scaling, "batched_zone_access", "batched.zone_access")
    patches.wrap(scaling, "scheme_b_flow", "batched.flow")
    patches.wrap(RunStore, "_load_journal", "store.load", after=journal_loaded)
    patches.wrap(RunStore, "get", after=store_get)
    patches.wrap(RunStore, "put", "store.put")
    patches.wrap(
        RunStore, "_append_line",
        after=lambda span, args, _: count("store.put_bytes", len(args[1]) + 1),
    )
    patches.wrap(RunStore, "record_run", "store.record_run")
    patches.wrap(
        RunIndex, "refresh", "serve.refresh",
        after=lambda span, args, stats: count("serve.parsed", stats.parsed),
    )
    patches.wrap(serve_query, "run_query", "serve.query")
    return patches


class _Untraced:
    """Stand-in tracer for the untraced pass: phases only, no spans."""

    phase = "run"

    @contextlib.contextmanager
    def span(self, name: str, new_trace: bool = False):
        yield None


# ----------------------------------------------------------------------
# the workloads, in-process
# ----------------------------------------------------------------------
def _sweep(family: Family, seed: int, store=None, inline: bool = False):
    """One ``sweep_capacity`` call equal to the CLI's ``family.cli(seed)``."""
    return scaling.sweep_capacity(
        NetworkParameters(**family.parameter_kwargs()),
        list(family.grid),
        scheme=family.scheme,
        trials=family.trials,
        seed=seed,
        workers=None if inline else TrialRunner.resolve_workers(family.workers),
        store=None if store is None else RunStore(store),
        batch_trials=family.batch_trials,
    )


def run_inprocess(
    workload: Workload, where: pathlib.Path, tracer
) -> List[tuple]:
    """Run the workload's layers in-process; ``(family, seed, sweep,
    all_cached)`` for every sweep, for checking."""
    seed = workload.seed
    tracer.phase = "run"
    if workload.name == "sweep_flow":
        return [(FLOW, seed, _sweep(FLOW, seed), False)]
    if workload.name == "sweep_pooled":
        pooled = _sweep(POOLED, seed, store=where / "store")
        tracer.phase = "kernels"
        inline = _sweep(POOLED, seed, inline=True)
        return [(POOLED, seed, pooled, False), (POOLED, seed, inline, False)]
    store = where / "store"
    shutil.copytree(workload.snapshot, store)
    sweeps = [
        (POOLED, replay, _sweep(POOLED, replay, store=store), True)
        for replay in replay_seeds(seed)
    ]
    serve_query.run_query(RunStore(store).serve_index(), serve_query.QuerySpec())
    with tracer.span("serve.list", new_trace=True):
        listed = RunStore(store)
        index = listed.serve_index()
        index.refresh()
        index.records()
        len(listed)
    return sweeps


def check_inprocess(ledger: Ledger, sweeps: List[tuple]) -> None:
    for family, seed, sweep, all_cached in sweeps:
        label = f"in-process {family.name} seed {seed}"
        stats = sweep.stats
        lambdas = [f"{rate:.4e}" for rate in sweep.rates]
        digest, want = ledger.expect(family.name, seed, sweep.digest(), lambdas)
        problems = []
        if stats.failures:
            problems.append(f"{label}: failures={stats.failures}")
        if all_cached and stats.cache_hits < stats.trials:
            problems.append(
                f"{label}: only {stats.cache_hits}/{stats.trials} cached"
            )
        if sweep.digest() != digest:
            problems.append(f"{label}: digest {sweep.digest()[:12]} != {digest[:12]}")
        if lambdas != want:
            problems.append(f"{label}: lambda {lambdas} != {want}")
        if sweep.fit is not None:
            ledger.slope_errs.append(
                abs(sweep.fit.exponent - sweep.theory_exponent)
            )
        ledger.record(problems)


# ----------------------------------------------------------------------
# import layer, from outside
# ----------------------------------------------------------------------
IMPORT_ROUNDS = 3


def parse_importtime(stderr: str) -> Dict[str, float]:
    """Cumulative seconds of ``repro.core.bounds`` and of every outermost
    ``scipy``/``networkx`` import, from ``-X importtime`` output."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1e6))
    totals = {"core_bounds": 0.0, "scipy": 0.0, "networkx": 0.0}
    # importtime prints children before parents; reversed, each module
    # comes before the modules it imported, so a stack yields ancestors.
    ancestors: List[Tuple[int, str]] = []
    for depth, name, seconds in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        package = name.split(".")[0]
        if name == "repro.core.bounds":
            totals["core_bounds"] += seconds
        elif package in ("scipy", "networkx") and not any(
            above.split(".")[0] == package for _, above in ancestors
        ):
            totals[package] += seconds
        ancestors.append((depth, name))
    return totals


def measure_imports(ledger: Ledger, where: pathlib.Path) -> Dict[str, float]:
    def median_wall(code: str, label: str) -> float:
        walls = []
        for round_ in range(IMPORT_ROUNDS):
            done = run_python(["-c", code], where, f"{label}{round_}")
            ledger.command(done)
            walls.append(done.wall_s)
        return statistics.median(walls)

    bare = median_wall("pass", "bare")
    full = median_wall("import repro.__main__", "import")
    done = run_python(
        ["-X", "importtime", "-c", "import repro.__main__"], where, "importtime"
    )
    ledger.command(done)
    parts = parse_importtime(done.stderr)
    return {
        "import.python_s": bare,
        "import.repro_main_s": full - bare,
        "import.core_bounds_s": parts["core_bounds"],
        "import.scipy_s": parts["scipy"],
        "import.networkx_s": parts["networkx"],
    }


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def layer_metrics(tracer: Tracer, kernel_phase: str) -> Dict[str, float]:
    """Per-layer numbers: runner, store and serve from the ``run`` phase,
    kernels from ``kernel_phase``."""
    run, kern = "run", kernel_phase
    sweep_s = tracer.total("experiments.sweep", run)
    run_s = tracer.total("parallel.run", run)
    gets = tracer.counted("store.gets", run)
    metrics = {
        "experiments.sweep_s": sweep_s,
        "experiments.self_s": sweep_s - run_s,
        "parallel.run_s": run_s,
    }
    for name in ("trial_busy_s", "dispatch_s", "trials", "cache_hits",
                 "failures", "retries", "pool_rebuilds"):
        metrics[f"parallel.{name}"] = tracer.counted(f"parallel.{name}", run)
    metrics.update({
        "network.build_s": tracer.total("network.build", kern),
        "network.build_calls": tracer.calls("network.build", kern),
        "traffic.sample_s": tracer.total("traffic.sample", kern),
        "scheme_a.init_s": tracer.total("scheme_a.init", kern),
        "scheme_a.flow_s": tracer.total("scheme_a.flow", kern),
        "scheme_a.flow_calls": tracer.calls("scheme_a.flow", kern),
        "scheme_a.edge_capacity_calls": tracer.counted(
            "scheme_a.edge_capacity_calls", kern
        ),
        "scheme_b.init_s": tracer.total("scheme_b.init", kern),
        "scheme_b.flow_s": tracer.total("scheme_b.flow", kern),
        "batched.zone_access_s": tracer.total("batched.zone_access", kern),
        "batched.flow_s": tracer.total("batched.flow", kern),
        "batched.batches": tracer.calls("batch", kern),
        "batched.members": tracer.counted("batched.members", kern),
        "store.load_s": tracer.total("store.load", run),
        "store.journal_lines": tracer.counted("store.journal_lines", run),
        "store.gets": gets,
        "store.hit_ratio": tracer.counted("store.hits", run) / gets if gets else 0.0,
        "store.put_s": tracer.total("store.put", run),
        "store.puts": tracer.calls("store.put", run),
        "store.put_bytes": tracer.counted("store.put_bytes", run),
        "store.record_run_s": tracer.total("store.record_run", run),
        "serve.refresh_s": tracer.total("serve.refresh", run),
        "serve.parsed": tracer.counted("serve.parsed", run),
        "serve.query_s": tracer.total("serve.query", run),
    })
    return metrics


def measure(workload: Workload) -> Dict[str, float]:
    """Traced run of one workload; the per-layer metrics by name."""
    ledger = workload.ledger
    run_dir = workload.run_dir
    workload.setup(run_dir / "setup")
    metrics = measure_imports(ledger, run_dir / "imports")

    # one real untraced repetition, for the shares of its wall time
    commands = workload.rep(
        run_dir / "rep", Measured(reps=[], sweeps=[], queries=[])
    )
    metrics["rep.wall_s"] = sum(done.wall_s for done in commands)
    metrics["rep.commands"] = len(commands)

    def untraced_pass(label: str) -> float:
        start = time.perf_counter()
        sweeps = run_inprocess(workload, run_dir / label, _Untraced())
        elapsed = time.perf_counter() - start
        check_inprocess(ledger, sweeps)
        return elapsed

    # untraced passes before and after the traced one, so warm-up and a
    # steady drift of host speed cancel out of trace.overhead_s
    untraced = untraced_pass("untraced-before")
    tracer = Tracer()
    patches = instrument(tracer)
    try:
        start = time.perf_counter()
        sweeps = run_inprocess(workload, run_dir / "traced", tracer)
        traced = time.perf_counter() - start
    finally:
        patches.close()
    check_inprocess(ledger, sweeps)
    untraced = (untraced + untraced_pass("untraced-after")) / 2

    kernel_phase = "kernels" if workload.name == "sweep_pooled" else "run"
    metrics.update(layer_metrics(tracer, kernel_phase))
    metrics["trace.overhead_s"] = traced - untraced
    metrics["fit.slope_err"] = (
        statistics.fmean(ledger.slope_errs) if ledger.slope_errs else 0.0
    )
    trace_path = WORK / f"trace-{workload.name}-{workload.seed}.jsonl"
    tracer.write(trace_path)
    print(f"spans: {len(tracer.spans)} written to {trace_path}")
    for (phase, name), seconds in sorted(
        tracer.self_by_name().items(), key=lambda item: -item[1]
    ):
        print(f"  self time {phase:<8} {name:<22} {seconds:10.4f} s")
    return metrics

