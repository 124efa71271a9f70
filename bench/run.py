"""jameslab benchmark: three seeded workloads run as a closed loop.

One caller, one process, jobs in sequence.  Each job calls the package's
public API or ``jameslab.cli.main`` in-process; its output is checked
after the timed region.  Usage, from the repository root:

    python3 bench/run.py --workload refute_canonical --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, one after another

``--trace 0`` measures the end-to-end metrics: whole passes over the job
list are repeated until ``--seconds`` of job time have been measured, and
each time is the median over passes.  ``--trace 1`` runs the job list three times: plain,
traced (per-layer spans, see tracer.py) and under cProfile for the
construction counts; it prints the per-layer metrics and writes the
spans to ``.jlbench/trace-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".jlbench"
DIGESTS_FILE = BENCH_DIR / "digests.json"

WORKLOADS = ("refute_canonical", "space_random", "norm_search")
DEFAULT_SEED = 0
SETUP_REPEATS = 5  # this process plus four fresh interpreters

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def require_sources() -> None:
    if not (SRC / "jameslab" / "__init__.py").is_file():
        raise SystemExit(f"jameslab sources not found under {SRC}")


def import_program() -> None:
    """Import jameslab from this checkout's ``src``, never from elsewhere."""
    package = SRC / "jameslab"
    require_sources()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import jameslab

    if Path(jameslab.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"imported jameslab from {jameslab.__file__}, not {package}")


@dataclass
class PassResult:
    times: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    failures: list[tuple[str, str]] = field(default_factory=list)
    stdout_bytes: int = 0

    @property
    def wall(self) -> float:
        return sum(self.times.values())


def check_job(job, out, expected: dict | None, result: PassResult) -> str | None:
    """Run the job's own check, then compare CLI stdout with its digest."""
    from workloads import CliResult

    try:
        reason = job.check(out)
    except Exception as exc:  # a check that cannot parse the output fails the job
        reason = f"check raised {type(exc).__name__}: {exc}"
    if isinstance(out, CliResult):
        digest = hashlib.sha256(out.stdout.encode()).hexdigest()
        result.digests[job.label] = digest
        result.stdout_bytes += len(out.stdout.encode())
        if reason is None and expected is not None and expected.get(job.label, digest) != digest:
            reason = "stdout differs from the digest recorded for this seed"
    return reason


def run_pass(jobs, expected: dict | None, tracer=None, profile=None) -> PassResult:
    """Run every job once; only ``job.run`` is inside the timed region."""
    result = PassResult()
    for job in jobs:
        if tracer is not None:
            tracer.begin_job(job.label)
        if profile is not None:
            profile.enable()
        start = time.perf_counter()
        try:
            out, reason = job.run(), None
        except Exception as exc:  # a job that raises is a failed job, not a crash
            out, reason = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if profile is not None:
            profile.disable()
        if tracer is not None:
            tracer.end_job()
        result.times[job.label] = elapsed
        if reason is None:
            reason = check_job(job, out, expected, result)
        if reason is not None:
            result.failures.append((job.label, reason))
    return result


def compare_stdout(reference: PassResult, other: PassResult, what: str) -> None:
    """Identical inputs must give byte-identical CLI output."""
    for label, digest in other.digests.items():
        if reference.digests.get(label, digest) != digest:
            other.failures.append((label, f"stdout of the {what} differs"))


def expected_digests(workload: str, seed: int) -> dict | None:
    recorded = json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))
    if seed != recorded["seed"]:
        return None
    return recorded["digests"][workload]


@dataclass
class Setup:
    seconds: float
    jobs: list
    warmup: PassResult


def setup(workload: str, seed: int, workdir: Path, expected: dict | None,
          smoke: bool = False) -> Setup:
    """Import, generate the seeded inputs and run the warm-up job; the
    warm-up's check runs after the clock stops."""
    start = time.perf_counter()
    import_program()
    import workloads

    jobs = workloads.make_jobs(workload, seed, workdir, smoke)
    warmup_job = workloads.warmup_job(seed)
    try:
        out, reason = warmup_job.run(), None
    except Exception as exc:  # reported as a failed job below
        out, reason = None, f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    warmup = PassResult(times={warmup_job.label: seconds})
    reason = reason or check_job(warmup_job, out, expected, warmup)
    if reason is not None:
        warmup.failures.append((warmup_job.label, reason))
    return Setup(seconds, jobs, warmup)


def fresh_setup_seconds(workload: str, seed: int) -> float:
    """Set-up time measured in a new interpreter, so no import or cache is warm."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=300, cwd=ROOT, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"set-up in a fresh interpreter failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().split("\n")[-1])["setup_s"]


def measure(jobs, expected: dict | None, seconds: float) -> list[PassResult]:
    """Whole passes until ``seconds`` of job time have been measured."""
    passes: list[PassResult] = []
    elapsed = 0.0
    while elapsed < seconds:
        passes.append(run_pass(jobs, expected))
        elapsed += passes[-1].wall
    for later in passes[1:]:
        compare_stdout(passes[0], later, "repeated pass")
    return passes


def group_medians(jobs, passes: list[PassResult]) -> dict[str, float]:
    groups: dict[str, list[str]] = {}
    for job in jobs:
        groups.setdefault(job.group, []).append(job.label)
    return {
        f"{group}_s": statistics.median(sum(p.times[label] for label in labels) for p in passes)
        for group, labels in groups.items()
    }


def emit(workload: str, seed: int, lines: list[str], results: list[PassResult],
         metrics: dict[str, tuple[float, str]]) -> None:
    failures = [f for r in results for f in r.failures]
    attempted = sum(len(r.times) for r in results)
    print(f"workload {workload}, seed {seed}")
    for line in lines:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    print(f"  {'fail_ratio':<40} {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    for label, reason in failures[:20]:
        print(f"  FAILED {label}: {reason}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


@contextlib.contextmanager
def input_dir():
    """Temporary directory for generated input files, inside the checkout."""
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        yield Path(tmp)


def run_untraced(workload: str, seed: int, seconds: float) -> int:
    expected = expected_digests(workload, seed)
    with input_dir() as tmp:
        first = setup(workload, seed, tmp, expected)
        passes = measure(first.jobs, expected, seconds)
    setup_times = [first.seconds] + [
        fresh_setup_seconds(workload, seed) for _ in range(SETUP_REPEATS - 1)
    ]
    metrics = {
        "wall_s": statistics.median(p.wall for p in passes),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    groups = group_medians(first.jobs, passes)
    lines = [
        f"{len(passes)} pass(es) of {len(first.jobs)} jobs; times are medians over passes",
        *(f"{name:<40} {value:.6g} s" for name, value in groups.items()),
    ]
    emit(workload, seed, lines, [first.warmup, *passes],
         {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()})
    return 0


def run_traced(workload: str, seed: int) -> int:
    expected = expected_digests(workload, seed)
    with input_dir() as tmp:
        first = setup(workload, seed, tmp, expected)
        import tracer as tracing

        reference = run_pass(first.jobs, expected)
        tracer = tracing.Tracer()
        with tracer:
            traced = run_pass(first.jobs, expected, tracer=tracer)
        profile = tracing.new_counting_profile()
        counted = run_pass(first.jobs, expected, profile=profile)
    compare_stdout(reference, traced, "traced pass")
    compare_stdout(reference, counted, "counting pass")
    per_layer = tracer.metrics()
    per_layer.update(tracing.count_constructions(profile))
    per_layer["cli.stdout_bytes"] = traced.stdout_bytes
    per_layer["trace_overhead_frac"] = traced.wall / reference.wall - 1
    trace_file = WORK_DIR / f"trace-{workload}-seed{seed}.json"
    tracer.write(trace_file, {"workload": workload, "seed": seed, "wall_s": traced.wall}, per_layer)
    lines = [
        f"plain pass {reference.wall:.6g} s, traced pass {traced.wall:.6g} s, "
        f"counting pass under cProfile {counted.wall:.6g} s (time discarded)",
        f"{len(tracer.span_name)} spans written to {trace_file.relative_to(ROOT)}",
    ]
    units = {name: unit for name, (unit, _) in tracing.PER_LAYER_METRICS.items()}
    emit(workload, seed, lines, [first.warmup, reference, traced, counted],
         {name: (per_layer[name], units[name]) for name in tracing.PER_LAYER_METRICS})
    return 0


def run_setup_only(workload: str, seed: int) -> int:
    with input_dir() as tmp:
        result = setup(workload, seed, tmp, expected_digests(workload, seed))
    if result.warmup.failures:
        raise SystemExit(f"warm-up failed: {result.warmup.failures}")
    print(json.dumps({"setup_s": result.seconds}))
    return 0


def record_digests() -> int:
    """Record the SHA-256 of every CLI job's stdout at the default seed."""
    digests = {}
    for workload in WORKLOADS:
        with input_dir() as tmp:
            first = setup(workload, DEFAULT_SEED, tmp, None)
            result = run_pass(first.jobs, None)
        failures = first.warmup.failures + result.failures
        if failures:
            raise SystemExit(f"{workload}: not recording digests of failing jobs {failures}")
        digests[workload] = {**first.warmup.digests, **result.digests}
    DIGESTS_FILE.write_text(
        json.dumps({"seed": DEFAULT_SEED, "digests": digests}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return 0


def run_all(args) -> int:
    code = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, check=False,
        )
        code = code or proc.returncode
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--record-digests", action="store_true",
        help="rewrite digests.json from the default seed and exit",
    )
    args = parser.parse_args(argv)
    require_sources()
    if args.record_digests:
        return record_digests()
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        return run_setup_only(args.workload, args.seed)
    if args.trace:
        return run_traced(args.workload, args.seed)
    return run_untraced(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
