"""The benchmark's workloads: real ``repro`` commands, checked and timed.

Three workloads, each a sequence of ``python -m repro`` subprocesses run
with tracing off:

- ``sweep_flow``: Table I's strong-mobility-with-BSs row, scheme
  ``optimal`` (A+B), inline, no store.  Scheme A's flow loop dominates.
- ``sweep_pooled``: Table I's weak-mobility row, scheme B, 2-worker pool,
  batched kernels, fresh fsync-journaled store.
- ``cached_replay``: setup fills a store with ``sweep_pooled``-shaped runs;
  each repetition reruns them fully cached on a pristine copy, then runs
  ``serve query`` and ``runs list`` on it.

Every command's output is checked (see :class:`Ledger`): exit status,
``failures=0``, digest and per-n lambda against ``references.json`` (or,
for a seed without references, against the first run of the same sweep),
full cache replay, and no leftover processes or ``/dev/shm`` segments.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from procs import (
    PROBE,
    Completed,
    exit_problem,
    rescale,
    run_python,
    run_repro,
)

REFERENCES = pathlib.Path(__file__).resolve().parent / "references.json"

#: CLI defaults of the family exponents the sweeps below leave unset.
_EXPONENT_DEFAULTS = {"clusters": "1", "radius": "0", "phi": "1"}
#: CLI flag -> :class:`repro.core.regimes.NetworkParameters` keyword.
_EXPONENT_KEYWORDS = {
    "alpha": "alpha",
    "clusters": "cluster_exponent",
    "radius": "cluster_radius_exponent",
    "bs": "bs_exponent",
    "phi": "backbone_exponent",
}


@dataclass(frozen=True)
class Family:
    """One ``repro sweep`` command shape, usable from the CLI or in-process."""

    name: str
    scheme: str
    exponents: Tuple[Tuple[str, str], ...]
    grid: Tuple[int, ...]
    trials: int
    workers: Optional[int] = None
    batch_trials: Optional[int] = None

    @property
    def total_trials(self) -> int:
        return len(self.grid) * self.trials

    def cli(self, seed: int, store: Optional[pathlib.Path] = None) -> List[str]:
        args = ["sweep", "--scheme", self.scheme]
        for flag, value in self.exponents:
            args += [f"--{flag}", value]
        args += ["--grid", ",".join(str(n) for n in self.grid)]
        args += ["--trials", str(self.trials), "--seed", str(seed)]
        if self.batch_trials is not None:
            args += ["--batch-trials", str(self.batch_trials)]
        if self.workers is not None:
            args += ["--workers", str(self.workers)]
        if store is not None:
            args += ["--store", str(store)]
        return args

    def parameter_kwargs(self) -> Dict[str, str]:
        """``NetworkParameters`` keywords equal to what the CLI builds."""
        values = dict(_EXPONENT_DEFAULTS, **dict(self.exponents))
        return {_EXPONENT_KEYWORDS[flag]: value for flag, value in values.items()}


FLOW = Family(
    "flow", "optimal", (("alpha", "1/4"), ("bs", "1/2")), (4000, 16000), 3
)
POOLED = Family(
    "pooled",
    "B",
    (("alpha", "3/8"), ("clusters", "1/4"), ("radius", "1/4"), ("bs", "7/8")),
    (1000, 4000),
    64,
    workers=2,
    batch_trials=8,
)
FAMILIES = {family.name: family for family in (FLOW, POOLED)}


def replay_seeds(seed: int) -> List[int]:
    """Sweep seeds ``cached_replay`` stores and replays for one bench seed."""
    return [seed, seed + 1]


# ----------------------------------------------------------------------
# output parsing and checking
# ----------------------------------------------------------------------
@dataclass
class SweepOutput:
    lambdas: List[str]
    digest: str
    trials: int
    failures: int
    cache_hits: int
    slope_err: Optional[float]


_LAMBDA = re.compile(r"n=\s*(\d+)\s+lambda=(\S+)")
_SLOPE = re.compile(r"theory slope ([+-][\d.]+), measured (\S+)")
_STATS = re.compile(r"trials=(\d+) failures=(\d+)")
_CACHE = re.compile(r"cache: (\d+) hit\(s\)")
_DIGEST = re.compile(r"digest: ([0-9a-f]{64})")


def parse_sweep(stdout: str) -> Optional[SweepOutput]:
    lambdas = [value for _n, value in _LAMBDA.findall(stdout)]
    slope, stats, digest = (
        pattern.search(stdout) for pattern in (_SLOPE, _STATS, _DIGEST)
    )
    if not lambdas or slope is None or stats is None or digest is None:
        return None
    cache = _CACHE.search(stdout)
    measured = slope.group(2)
    slope_err = (
        None if measured == "fit" else abs(float(measured) - float(slope.group(1)))
    )
    return SweepOutput(
        lambdas=lambdas,
        digest=digest.group(1),
        trials=int(stats.group(1)),
        failures=int(stats.group(2)),
        cache_hits=int(cache.group(1)) if cache else 0,
        slope_err=slope_err,
    )


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


class Ledger:
    """Counts operations and the ones that failed a check."""

    def __init__(self, references: Optional[dict] = None):
        self.attempted = 0
        self.failed = 0
        self.slope_errs: List[float] = []
        #: (family, seed) -> (digest, lambdas) every later sweep must match
        self._expected: Dict[Tuple[str, int], Tuple[str, List[str]]] = {}
        for family, by_seed in (references or {}).get("sweeps", {}).items():
            for seed, ref in by_seed.items():
                self._expected[(family, int(seed))] = (
                    ref["digest"], list(ref["lambdas"])
                )

    def record(self, problems: Sequence[str]) -> None:
        """Count one operation; it failed if any check found a problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"perfbench: FAILED {problem}", file=sys.stderr)

    def expect(self, family: str, seed: int, digest: str, lambdas: List[str]):
        """Pin the output of one sweep; returns the pinned (digest, lambdas)."""
        return self._expected.setdefault((family, seed), (digest, lambdas))

    def command(self, done: Completed) -> None:
        """Check a non-sweep command: exit status and clean shutdown."""
        self.record(process_problems(done))

    def sweep(
        self,
        done: Completed,
        family: Family,
        seed: int,
        all_cached: bool = False,
    ) -> Optional[SweepOutput]:
        """Check one sweep command's output; ``None`` when unusable."""
        problems = process_problems(done)
        out = parse_sweep(done.stdout) if not problems else None
        if out is None:
            problems = problems or [f"{done.label}: unparseable sweep output"]
            self.record(problems)
            return None
        if out.failures:
            problems.append(f"{done.label}: failures={out.failures}")
        if out.trials != family.total_trials:
            problems.append(
                f"{done.label}: {out.trials} trials, want {family.total_trials}"
            )
        if all_cached and out.cache_hits < out.trials:
            problems.append(
                f"{done.label}: only {out.cache_hits}/{out.trials} trials "
                "served from cache"
            )
        digest, lambdas = self.expect(family.name, seed, out.digest, out.lambdas)
        if out.digest != digest:
            problems.append(f"{done.label}: digest {out.digest[:12]} != {digest[:12]}")
        if out.lambdas != lambdas:
            problems.append(f"{done.label}: lambda {out.lambdas} != {lambdas}")
        if out.slope_err is not None:
            self.slope_errs.append(out.slope_err)
        self.record(problems)
        return out


def process_problems(done: Completed) -> List[str]:
    problems = []
    problem = exit_problem(done)
    if problem:
        problems.append(problem)
    if done.leftover_procs:
        problems.append(
            f"{done.label}: {done.leftover_procs} process(es) left running"
        )
    if done.leaked_shm:
        problems.append(f"{done.label}: leaked /dev/shm {done.leaked_shm}")
    return problems


def query_problems(done: Completed, runs: int, journaled: int) -> List[str]:
    """``serve query`` / ``runs list`` must see every run and trial."""
    problems = process_problems(done)
    if problems:
        return problems
    if done.label.startswith("query"):
        want = f"{runs} of {runs} run(s) matched" if runs else "match the query"
    else:
        want = (
            f"{runs} run(s), {journaled} journaled trial(s)"
            if runs
            else "no runs recorded"
        )
    if want not in done.stdout:
        return [f"{done.label}: output lacks {want!r}"]
    return []


# ----------------------------------------------------------------------
# end-to-end measurement
# ----------------------------------------------------------------------
QUERY_COMMANDS = (("query", ("serve", "query")), ("list", ("runs", "list")))
#: Rounds of QUERY_COMMANDS after the repetitions of sweep_flow/sweep_pooled.
QUERY_ROUNDS = 3
#: Seconds of commands after which the host-speed probe runs again.
PROBE_EVERY_S = 5.0


@dataclass
class Measured:
    """Commands of the timed part of one run."""

    reps: List[List[Completed]]
    sweeps: List[Tuple[Completed, SweepOutput]]
    queries: List[Completed]


class Workload:
    """A workload: setup, one timed repetition, and the read-side queries.

    Each step returns the commands it ran; its time is the sum of their
    wall times at the reference host speed, which leaves out the
    benchmark's own checking, copying and probing.
    """

    name = ""
    #: Setup rounds per run; setup_s is their median.
    setup_rounds = 3

    def __init__(self, seed: int, ledger: Ledger, run_dir: pathlib.Path):
        self.seed = seed
        self.ledger = ledger
        self.run_dir = run_dir
        #: ``(is_probe, command)`` in the order they ran
        self.timeline: List[Tuple[bool, Completed]] = []
        self._since_probe = 0.0

    def probe(self) -> None:
        """Time the host-speed probe once (see :func:`procs.rescale`)."""
        done = run_python(PROBE, self.run_dir / "probes", "probe")
        if done.returncode != 0:
            raise RuntimeError(f"host-speed probe failed: {done.stderr}")
        self.timeline.append((True, done))
        self._since_probe = 0.0

    def _run(self, args: Sequence[str], where: pathlib.Path, label: str):
        """Run one repro command, probing first if the last probe is old."""
        if self._since_probe >= PROBE_EVERY_S:
            self.probe()
        done = run_repro(args, where, label)
        self.timeline.append((False, done))
        self._since_probe += done.wall_s
        return done

    def setup(self, where: pathlib.Path) -> List[Completed]:
        """Warm the interpreter: bytecode compiled, page cache filled."""
        done = self._run(["--help"], where, "warmup")
        self.ledger.command(done)
        return [done]

    def rep(self, where: pathlib.Path, measured: Measured) -> List[Completed]:
        raise NotImplementedError

    def queries(self, measured: Measured) -> None:
        """Read-side commands, when the repetition does not include them."""

    def _sweep(
        self,
        family: Family,
        seed: int,
        where: pathlib.Path,
        label: str,
        store: Optional[pathlib.Path] = None,
        all_cached: bool = False,
        measured: Optional[Measured] = None,
    ) -> Completed:
        done = self._run(family.cli(seed, store), where, label)
        out = self.ledger.sweep(done, family, seed, all_cached)
        if out is not None and measured is not None:
            measured.sweeps.append((done, out))
        return done

    def _query(
        self, store: pathlib.Path, runs: int, journaled: int, round_: int
    ) -> List[Completed]:
        commands = []
        for label, args in QUERY_COMMANDS:
            done = self._run(
                [*args, "--store", str(store)],
                store.parent,
                f"{label}{round_}",
            )
            self.ledger.record(query_problems(done, runs, journaled))
            commands.append(done)
        return commands


class SweepFlow(Workload):
    name = "sweep_flow"

    def rep(self, where, measured):
        return [self._sweep(FLOW, self.seed, where, "sweep", measured=measured)]

    def queries(self, measured):
        # sweep_flow writes no store: the read side sees an empty one
        store = self.run_dir / "queries" / "store"
        for round_ in range(QUERY_ROUNDS):
            measured.queries += self._query(store, 0, 0, round_)


class SweepPooled(Workload):
    name = "sweep_pooled"

    def rep(self, where, measured):
        self.last_store = where / "store"
        return [self._sweep(
            POOLED, self.seed, where, "sweep", self.last_store, measured=measured
        )]

    def queries(self, measured):
        for round_ in range(QUERY_ROUNDS):
            measured.queries += self._query(
                self.last_store, 1, POOLED.total_trials, round_
            )


class CachedReplay(Workload):
    name = "cached_replay"
    setup_rounds = 2

    def setup(self, where):
        commands = super().setup(where)
        self.snapshot = where / "store"
        for seed in replay_seeds(self.seed):
            commands.append(
                self._sweep(POOLED, seed, where, f"fill{seed}", self.snapshot)
            )
        return commands

    def rep(self, where, measured):
        store = where / "store"
        shutil.copytree(self.snapshot, store)
        seeds = replay_seeds(self.seed)
        commands = [
            self._sweep(
                POOLED, seed, where, f"replay{seed}", store, True, measured
            )
            for seed in seeds
        ]
        # the fill runs and the replays each recorded one manifest
        queries = self._query(
            store, 2 * len(seeds), len(seeds) * POOLED.total_trials, 0
        )
        measured.queries += queries
        return commands + queries


WORKLOADS = {
    workload.name: workload
    for workload in (SweepFlow, SweepPooled, CachedReplay)
}


def _ref_s(commands: Sequence[Completed]) -> float:
    return sum(done.ref_s for done in commands)


def measure(
    workload: Workload, seconds: float, deadline: float
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Set up, repeat the workload for ``seconds``, and derive the
    end-to-end metrics by name, plus notes for the reader."""
    workload.probe()
    setups = [
        workload.setup(workload.run_dir / f"setup{round_}")
        for round_ in range(workload.setup_rounds)
    ]
    measured = Measured(reps=[], sweeps=[], queries=[])
    start = time.perf_counter()
    while not measured.reps or time.perf_counter() - start < seconds:
        longest = max(
            (sum(done.wall_s for done in rep) for rep in measured.reps),
            default=0.0,
        )
        if measured.reps and time.monotonic() + longest > deadline:
            break
        where = workload.run_dir / f"rep{len(measured.reps)}"
        measured.reps.append(workload.rep(where, measured))
    workload.queries(measured)
    workload.probe()
    rescale(workload.timeline)

    sweeps = [done for done, _ in measured.sweeps]
    trials = sum(out.trials for _, out in measured.sweeps)
    commands = [done for rep in measured.reps for done in rep] + measured.queries
    metrics = {
        "setup_s": statistics.median(_ref_s(setup) for setup in setups),
        "wall_s": statistics.median(_ref_s(rep) for rep in measured.reps),
        "trials_per_s": trials / _ref_s(sweeps) if sweeps else 0.0,
        "query_s": statistics.median(done.ref_s for done in measured.queries)
        if measured.queries else 0.0,
        "peak_rss_mb": max((done.peak_rss_mb for done in commands), default=0.0),
    }
    notes = {
        "repetitions": len(measured.reps),
        "wall_s as measured": statistics.median(
            sum(done.wall_s for done in rep) for rep in measured.reps
        ),
        "host speed (median)": statistics.median(
            done.speed for done in commands
        ),
    }
    return metrics, notes
