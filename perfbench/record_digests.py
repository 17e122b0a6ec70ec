"""Record the simulated-statistics digest of each workload for some seeds.

Usage, from the repository root::

    python3 perfbench/record_digests.py 0 31

runs one repetition of every workload for each seed in the inclusive
range and writes ``perfbench/digests.json``. ``run.py`` then fails any
run whose schedules, solo runs or message counts hash differently. Only
re-record when the simulated behaviour is *meant* to change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run


def main(argv) -> int:
    first, last = (int(arg) for arg in argv)
    if not run.bootstrap():
        return 2
    import checks
    import inputs
    import workloads

    digests = (
        json.loads(checks.DIGESTS.read_text()) if checks.DIGESTS.exists() else {}
    )
    workdir = Path(run.HERE) / "work" / "record"
    for workload in run.WORKLOADS:
        for seed in range(first, last + 1):
            spec = inputs.generate(workload, seed)
            rep = workloads.RUNNERS[workload](spec, workdir)
            refs = checks.references(spec, rep)
            problems = checks.failures(spec, rep, refs)
            if problems:
                print(f"{workload} seed {seed}: {problems[:3]}", file=sys.stderr)
                return 1
            digests.setdefault(workload, {})[str(seed)] = checks.digest(rep, refs)
            print(f"{workload} seed {seed}: {digests[workload][str(seed)]}", flush=True)
    checks.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
