"""Per-layer tracing from outside the program.

The traced run wraps the public functions at each layer boundary of
``repro`` — installed at the name the *caller* looks up (for example
``repro.core.private.run_cluster_copies``, not only the defining
module, because ``from .x import f`` binds a second name) — and records
one span per call: layer name, start, end, and the enclosing span.
Spans stay in memory and are written out when the run ends.

A layer's self time is its span time minus the time of the spans nested
directly inside it, so the self times of every layer plus the time spent
outside any span add up exactly to the traced wall time.

Layers called per node and per round (program stepping, host
construction, tape derivation, transport channel calls) are *hot*: a
record per call would cost more memory than the run itself, so their
spans are folded into one ``(layer, parent span) -> calls, seconds``
entry while still being subtracted from their parent's self time.

Nothing here touches ``src/``: uninstalling restores every original
attribute, and the untraced repetitions run with no wrapper in place.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.telemetry import Recorder

#: Layer boundaries: ``(layer, "module:Class" or "module", attribute,
#: hot)``. Module-level names are patched in the module that *calls*
#: them.
BOUNDARIES: Tuple[Tuple[str, str, str, bool], ...] = (
    ("congest.program.host_build", "repro.congest.program:ProgramHost", "__init__", True),
    ("congest.program.tape_derive", "repro.congest.program:ProgramHost", "seed_for", True),
    ("congest.program.step", "repro.congest.program:ProgramHost", "start", True),
    ("congest.program.step", "repro.congest.program:ProgramHost", "step", True),
    ("congest.simulator", "repro.congest.simulator:Simulator", "run", False),
    ("core.transport", "repro.core.transport:ReferenceSoloChannel", "push", True),
    ("core.transport", "repro.core.transport:ReferenceSoloChannel", "deliver", True),
    ("core.transport", "repro.core.transport:ReferenceSoloChannel", "finalize", True),
    ("core.transport", "repro.core.transport:ReferencePhaseChannel", "push", True),
    ("core.transport", "repro.core.transport:ReferencePhaseChannel", "deliver", True),
    ("core.transport", "repro.core.transport:ReferenceClusterLoadChannel", "count", True),
    ("core.transport", "repro.core.transport_numpy:NumpySoloChannel", "push", True),
    ("core.transport", "repro.core.transport_numpy:NumpySoloChannel", "deliver", True),
    ("core.transport", "repro.core.transport_numpy:NumpySoloChannel", "finalize", True),
    ("core.transport", "repro.core.transport_numpy:NumpyPhaseChannel", "push", True),
    ("core.transport", "repro.core.transport_numpy:NumpyPhaseChannel", "deliver", True),
    ("core.transport", "repro.core.transport_numpy:NumpyClusterLoadChannel", "count", True),
    ("core.phase_engine", "repro.core.delays", "run_delayed_phases", False),
    ("core.cluster_engine", "repro.core.private", "run_cluster_copies", False),
    ("core.cluster_engine", "repro.core.private", "select_output_layers", False),
    ("clustering", "repro.core.private", "build_clustering", False),
    ("clustering", "repro.core.private", "extend_clustering", False),
    ("randomness", "repro.core.private", "ClusterDelaySampler", False),
    ("randomness", "repro.randomness.distributions:BlockDelay", "for_schedule", False),
    ("randomness", "repro.core.cluster_delays:ClusterDelaySampler", "delay", False),
    ("core.verify", "repro.core.base", "verify_outputs", False),
    ("metrics.measure_params", "repro.core.workload", "measure_params", False),
    ("metrics.measure_params", "repro.service.service", "measure_params", False),
    ("core.scheduler", "repro.core.random_delay:RandomDelayScheduler", "run", False),
    ("core.scheduler", "repro.core.private:PrivateScheduler", "run", False),
    ("parallel.cache", "repro.parallel.cache:SoloRunCache", "get_or_run", False),
    ("service.submit", "repro.service.sharding:ShardedSchedulerService", "submit", False),
    ("service.drain", "repro.service.sharding:ShardedSchedulerService", "drain", False),
    ("service.shutdown", "repro.service.sharding:ShardedSchedulerService", "shutdown", False),
    ("service.registry.get", "repro.service.registry:RunRegistry", "get", False),
    ("service.registry.put", "repro.service.registry:RunRegistry", "put", False),
    ("service.journal", "repro.service.journal:JobJournal", "append", False),
    ("service.events", "repro.service.events:EventLog", "emit", False),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _, _ in BOUNDARIES))

_COMMON = {
    "congest.program.host_build",
    "congest.program.tape_derive",
    "congest.program.step",
    "congest.simulator",
    "core.transport",
    "core.verify",
    "metrics.measure_params",
    "core.scheduler",
    "parallel.cache",
}
_SERVICE = {layer for layer in LAYERS if layer.startswith("service.")}
_PRIVATE = {"core.cluster_engine", "clustering", "randomness"}

#: The coverage guard: a layer fires on a workload iff it is listed.
#: ``service.*`` firing on a library workload, or the clustering path
#: firing on a random-delay workload, would mean the workload does not
#: isolate what it claims to.
EXPECTED = {
    "serve-mixed": _COMMON | _SERVICE | {"core.phase_engine"},
    "schedule-large": _COMMON | {"core.phase_engine"},
    "schedule-private": _COMMON | _PRIVATE,
}


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class _SkipCounter(Recorder):
    """Enabled only for the phase engine's ``phase.skipped_phases``.

    The engine reports skipped phases only to an enabled recorder; this
    one keeps that counter and ignores every other call.
    """

    enabled = True

    def __init__(self, totals: Counter):
        self.totals = totals

    def counter(self, name: str, value: float = 1.0) -> None:
        if name == "phase.skipped_phases":
            self.totals["core.phase_engine.skipped_phases"] += value


class Tracer:
    """Span stack, self-time ledger and per-layer counts."""

    def __init__(self) -> None:
        self._stack: List[list] = []
        #: Recorded spans: ``(id, layer, start, end, parent id or -1)``.
        self.spans: List[Tuple[int, str, float, float, int]] = []
        #: Folded hot spans: ``(layer, parent id) -> [calls, seconds]``.
        self.folded: Dict[Tuple[str, int], List[float]] = defaultdict(
            lambda: [0, 0.0]
        )
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._hosts: List[Any] = []
        self._tape_readers: set = set()
        self._installed: List[Tuple[Any, str, Any]] = []
        self._next_id = 0

    # -- spans ---------------------------------------------------------

    def wrap(
        self,
        layer: str,
        fn: Callable,
        hot: bool,
        count: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        """``fn`` timed as one span of ``layer``."""
        stack = self._stack
        clock = time.perf_counter
        self_s = self.self_s
        calls = self.calls
        spans = self.spans
        folded = self.folded
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if hot:
                frame = [0.0, -1]
            else:
                frame = [0.0, tracer._next_id]
                tracer._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self_s[layer] += elapsed - frame[0]
                calls[layer] += 1
                parent_id = -1
                if parent is not None:
                    parent[0] += elapsed
                    parent_id = parent[1]
                if hot:
                    entry = folded[(layer, parent_id)]
                    entry[0] += 1
                    entry[1] += elapsed
                else:
                    spans.append((frame[1], layer, start, end, parent_id))
                if not stack:
                    tracer._check_tapes()

        return traced

    # -- counts at the boundaries --------------------------------------

    def _count_host(self, args, _result) -> None:
        self._hosts.append(args[0])

    def _check_tapes(self) -> None:
        # Runs when the outermost span closes, outside every span (its
        # cost is tracing overhead). The hosts list keeps every context
        # alive until here, so an id in ``_tape_readers`` is unambiguous.
        readers = self._tape_readers
        self.counts["congest.program.tape_reads"] += sum(
            1 for host in self._hosts if id(host.ctx) in readers
        )
        self._hosts.clear()
        readers.clear()

    def _watch_tapes(self) -> None:
        """Note every node context whose program reads its tape.

        ``NodeContext.rng`` (a slot today) is wrapped in a property that
        records the reader and returns the tape unchanged: a host "used
        its tape" iff its program read ``ctx.rng``.
        """
        from repro.congest.program import NodeContext

        original = NodeContext.__dict__["rng"]
        readers = self._tape_readers

        def read(ctx):
            readers.add(id(ctx))
            return original.__get__(ctx, NodeContext)

        setattr(NodeContext, "rng", property(read, original.__set__))
        self._installed.append((NodeContext, "rng", original))

    def _count_solo_sends(self, args, _result) -> None:
        # SoloChannel.push(self, sender, sends, round_index)
        self.counts["core.transport.messages"] += len(args[2])

    def _count_phase_sends(self, args, _result) -> None:
        # PhaseChannel.push(self, aid, sender, sends, phase, ...)
        self.counts["core.transport.messages"] += len(args[3])

    def _count_one(self, _args, _result) -> None:
        self.counts["core.transport.messages"] += 1

    def _count_solo(self, _args, run) -> None:
        self.counts["congest.simulator.sim_rounds"] += run.completion_round
        self.counts["congest.simulator.messages"] += run.trace.num_messages

    def _counter_for(self, layer: str, target: str, attribute: str):
        if layer == "congest.program.host_build":
            return self._count_host
        if attribute == "push":
            return (
                self._count_solo_sends
                if target.endswith("SoloChannel")
                else self._count_phase_sends
            )
        if attribute == "count":
            return self._count_one
        if layer == "congest.simulator":
            return self._count_solo
        return None

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        """Wrap every boundary in :data:`BOUNDARIES`."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for layer, target, attribute, hot in BOUNDARIES:
            owner = _resolve(target)
            original = (
                owner.__dict__[attribute]
                if isinstance(owner, type)
                else getattr(owner, attribute)
            )
            count = self._counter_for(layer, target, attribute)
            if isinstance(original, classmethod):
                wrapped: Any = classmethod(self.wrap(layer, original.__func__, hot, count))
            elif layer == "core.phase_engine":
                wrapped = self._wrap_phase_engine(layer, original)
            else:
                wrapped = self.wrap(layer, original, hot, count)
            setattr(owner, attribute, wrapped)
            self._installed.append((owner, attribute, original))
        self._watch_tapes()

    def _wrap_phase_engine(self, layer: str, original: Callable) -> Callable:
        skip_counter = _SkipCounter(self.counts)

        def with_skip_counter(*args, **kwargs):
            recorder = kwargs.get("recorder")
            if recorder is None or not recorder.enabled:
                kwargs["recorder"] = skip_counter
            return original(*args, **kwargs)

        return self.wrap(layer, with_skip_counter, hot=False)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} span(s) left open")

    # -- output --------------------------------------------------------

    def fired(self) -> set:
        """Layers with at least one span."""
        return {layer for layer, calls in self.calls.items() if calls}

    def payload(self) -> Dict[str, Any]:
        """The recorded and folded spans, JSON-ready."""
        return {
            "columns": ["id", "layer", "start_s", "end_s", "parent"],
            "spans": self.spans,
            "folded": [
                [layer, parent, calls, seconds]
                for (layer, parent), (calls, seconds) in sorted(self.folded.items())
            ],
        }
