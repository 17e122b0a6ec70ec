"""Output checks, run after the timed section with the clock stopped.

Three checks, each counted per job (serve) or per algorithm (library):

* every served output equals a fresh ``solo_run`` reference under the
  job's tape id, simulated with the *reference* transport (the timed
  section uses the default one, so the check also crosses backends);
* every resubmitted job was served ``from_registry`` with zero new
  executions: not batched, and the solo cache missed and the registry
  stored exactly once per distinct job;
* the simulated statistics (schedule lengths, congestion, dilation,
  solo rounds, messages) hash to the digest recorded for the seed in
  ``digests.json`` — or, for a seed with no record, to the same digest
  on every repetition of the run.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.congest.simulator import solo_run
from repro.service import parse_algorithm, parse_network

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def references(spec: Dict[str, Any], first) -> List[Optional[Dict[str, Any]]]:
    """Solo reference per job/algorithm of ``spec`` (``None`` for a
    resubmission, which is checked against its original's reference).

    ``first`` is a repetition of the run; tape ids and message budgets
    are read from it (they are content-addressed, so every repetition
    agrees — the digest check covers that).
    """
    if spec["workload"] == "serve-mixed":
        items = [
            (job["net"], job["algo"], job["seed"], job["resubmit_of"])
            for job in spec["jobs"]
        ]
    else:
        items = [
            (instance["network"], algo, instance["master_seed"], None)
            for instance in spec["instances"]
            for algo in instance["algorithms"]
        ]
    networks: Dict[str, Any] = {}
    refs: List[Optional[Dict[str, Any]]] = []
    for (net, algo, seed, resubmit_of), result in zip(items, first.results):
        if resubmit_of is not None:
            refs.append(None)
            continue
        network = networks.get(net)
        if network is None:
            network = networks[net] = parse_network(net)
        run = solo_run(
            network,
            parse_algorithm(algo, network=network),
            seed=seed,
            algorithm_id=result["tape_id"],
            message_bits=result["message_bits"],
            transport="reference",
        )
        refs.append(
            {
                "outputs": run.outputs,
                "rounds": run.rounds,
                "messages": run.trace.num_messages,
            }
        )
    return refs


def failures(spec: Dict[str, Any], rep, refs) -> List[str]:
    """Every divergence of one repetition from the references."""
    problems: List[str] = []
    serve = spec["workload"] == "serve-mixed"
    resubmit_of = (
        [job["resubmit_of"] for job in spec["jobs"]]
        if serve
        else [None] * len(rep.results)
    )
    for index, (result, original) in enumerate(zip(rep.results, resubmit_of)):
        expected = refs[index if original is None else original]["outputs"]
        if result["state"] != "done":
            problems.append(f"job {index} ended {result['state']}")
        elif result["outputs"] != expected:
            problems.append(f"job {index} outputs differ from its solo reference")
        if original is not None and not (
            result["from_registry"] and not result["batched"]
        ):
            problems.append(f"resubmitted job {index} was executed again")
    if serve:
        distinct = sum(1 for original in resubmit_of if original is None)
        stats = rep.stats
        if stats["parallel.cache.misses"] != distinct:
            problems.append(
                f"{stats['parallel.cache.misses']} solo simulations for "
                f"{distinct} distinct jobs"
            )
        if stats["service.registry.puts"] != distinct:
            problems.append(
                f"{stats['service.registry.puts']} registry stores for "
                f"{distinct} distinct jobs"
            )
    return problems


def digest(rep, refs) -> str:
    """Hash of the simulated statistics of one repetition."""
    solo = [
        [ref["rounds"], ref["messages"]] if ref is not None else None
        for ref in refs
    ]
    payload = json.dumps(
        {"schedules": rep.sim, "solo": solo, "rounds": rep.rounds,
         "lower_bound": rep.lower_bound},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


def recorded_digest(workload: str, seed: int) -> Optional[str]:
    """The digest recorded for ``(workload, seed)``, if any."""
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))
