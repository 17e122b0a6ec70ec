"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 20 --trace 0

Repeats the workload (fresh set-up every time) until its set-up and
timed sections add up to ``--seconds``, checks every output with the
clock stopped, and prints one JSON
object as the last line of standard output::

    {"correct": true, "attempted": 4200, "failed": 0,
     "metrics": {"wall_s": {"value": 4.08, "unit": "s"}, ...}}

``--trace 0`` reports the end-to-end metrics from untraced repetitions.
``--trace 1`` alternates untraced and traced repetitions, reports the
per-layer metrics, enforces the coverage guard, and writes the spans to
``perfbench/out/``. The exit code is 0 only when every check passed; a
checkout without ``src/repro`` exits 2 before printing any result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("serve-mixed", "schedule-large", "schedule-private")

#: Environment variables that would change what the program does
#: (transport, solo-cache, worker pool); the benchmark pins the defaults.
PINNED_ENV = ("REPRO_TRANSPORT", "REPRO_SOLO_CACHE", "REPRO_CACHE_DIR", "REPRO_WORKERS")

#: What a fresh process imports before its first timed call; timed in
#: child processes because a module is imported only once per process.
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import repro.core, repro.parallel, repro.service\n"
    "from repro.core.transport import resolve_transport\n"
    "resolve_transport(None)\n"
    "print(time.perf_counter() - start)\n"
)
IMPORT_PROBES = 5


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="run the tiny input size (self-test only; no recorded digests)",
    )
    return parser.parse_args(argv)


def _import_seconds() -> float:
    """Median import time of ``repro`` over fresh child processes."""
    samples = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def bootstrap() -> bool:
    """Import ``repro`` from this checkout's ``src`` (``False`` if absent)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return False
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    import repro
    from repro.core.transport import resolve_transport

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        return False
    resolve_transport(None)
    return True


def main(argv=None) -> int:
    args = _arguments(argv)
    if not bootstrap():
        return 2

    import checks
    import inputs
    import metrics
    import tracer as tracing
    import workloads

    run = workloads.RUNNERS[args.workload]
    workdir = HERE / "work" / f"{args.workload}-{os.getpid()}"
    reps, traced = [], []
    refs = None
    problems = []
    failed = 0
    digests = set()
    measured = 0.0
    while True:
        # Every repetition starts from a collected heap: what earlier ones
        # left behind must not slow later ones.
        gc.collect()
        start = time.perf_counter()
        spec = inputs.generate(args.workload, args.seed, tiny=args.tiny)
        generate_s = time.perf_counter() - start
        if args.trace and len(reps) > len(traced):
            tracer = tracing.Tracer()
            rep = run(spec, workdir, tracer=tracer)
            traced.append((rep, tracer))
        else:
            rep = run(spec, workdir)
            reps.append(rep)
        rep.setup_s += generate_s
        measured += rep.setup_s + rep.wall_s

        # Checks run with the clock stopped; each repetition is checked
        # and then stripped of its outputs, so memory does not grow.
        if refs is None:
            refs = checks.references(spec, rep)
        found = checks.failures(spec, rep, refs)
        if found:
            problems.extend(found)
            failed += len(rep.results)
        digests.add(checks.digest(rep, refs))
        rep.results = rep.sim = None
        if measured >= args.seconds and (not args.trace or traced):
            break
    if workdir.parent.exists() and not any(workdir.parent.iterdir()):
        workdir.parent.rmdir()

    everything = reps + [rep for rep, _ in traced]
    recorded = None if args.tiny else checks.recorded_digest(args.workload, args.seed)
    digest_status = "no digest recorded for this seed"
    if len(digests) > 1:
        problems.append(f"repetitions disagree on simulated statistics: {sorted(digests)}")
        failed = sum(rep.attempted for rep in everything)
    elif recorded is not None:
        digest_status = "digest matches the record"
        if recorded not in digests:
            digest_status = "digest differs from the record"
            problems.append(f"digest {min(digests)} differs from the recorded {recorded}")
            failed = sum(rep.attempted for rep in everything)
    attempted = sum(rep.attempted for rep in everything)

    if args.trace:
        for rep, tracer in traced:
            missing = tracing.EXPECTED[args.workload] - tracer.fired()
            extra = tracer.fired() - tracing.EXPECTED[args.workload]
            if missing:
                problems.append(f"coverage: {sorted(missing)} never fired")
            if extra:
                problems.append(f"coverage: {sorted(extra)} fired unexpectedly")
        out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps([tracer.payload() for _, tracer in traced]))
        values = metrics.per_layer(traced, reps)
        units = {name: unit for name, (unit, _, _) in metrics.PER_LAYER.items()}
    else:
        values = metrics.end_to_end(reps, _import_seconds(), failed, attempted)
        units = {name: unit for name, (unit, _) in metrics.END_TO_END.items()}

    print(
        f"perfbench {args.workload} seed={args.seed}: {len(reps)} untraced + "
        f"{len(traced)} traced repetition(s); latency percentiles over "
        f"{len(reps[0].latencies)} jobs; {digest_status}"
    )
    for problem in problems[:20]:
        print(f"  FAILED: {problem}")
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
