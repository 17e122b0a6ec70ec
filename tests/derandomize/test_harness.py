"""Tests for the Bellagio derandomization harness (Meta-Theorem A.1)."""

import math

import pytest

from repro.congest import solo_run, topology
from repro.derandomize import (
    DistinctElements,
    run_with_private_randomness,
    true_distinct_counts,
)
from repro.congest import Algorithm, NodeProgram
from repro.errors import BandwidthViolation, CoverageError


@pytest.fixture(scope="module")
def setting():
    net = topology.grid_graph(5, 5)
    values = {v: (v % 6) * 7919 + 3 for v in net.nodes}
    return net, values


def _factory(values, d, n):
    return lambda seed: DistinctElements(seed, values, d, 0.5, n)


class TestHarness:
    def test_each_output_matches_its_cluster_seed_run(self, setting):
        """The strongest mechanical check: node v's derandomized output
        equals a FULL shared-randomness run with v's cluster's seed."""
        net, values = setting
        d = 2
        make = _factory(values, d, net.num_nodes)
        locality = DistinctElements(0, values, d, 0.5, net.num_nodes).rounds
        result = run_with_private_randomness(net, make, locality, seed=4, seed_bits=128)

        from repro.clustering import build_clustering, cluster_seed_bits

        clustering = build_clustering(
            net, radius_scale=2 * locality, num_layers=result.num_layers, seed=4
        )
        full_runs = {}
        for v in net.nodes:
            layer = result.output_layer[v]
            center = clustering.layers[layer].center[v]
            shared_seed = cluster_seed_bits(4, layer, center, 128)
            if shared_seed not in full_runs:
                full_runs[shared_seed] = solo_run(net, make(shared_seed))
            assert result.outputs[v] == full_runs[shared_seed].outputs[v]

    def test_accuracy_preserved(self, setting):
        net, values = setting
        d, eps = 2, 0.5
        make = _factory(values, d, net.num_nodes)
        locality = DistinctElements(0, values, d, eps, net.num_nodes).rounds
        result = run_with_private_randomness(net, make, locality, seed=1)
        truth = true_distinct_counts(net, values, d)
        band = 2 * math.log(1 + eps) + 0.25
        for v in net.nodes:
            assert abs(math.log(result.outputs[v] / truth[v])) <= band

    def test_cost_accounting(self, setting):
        """Pre-computation Θ(T log² n), simulation Θ(T log n): the
        meta-theorem's O(T log² n) total."""
        net, values = setting
        d = 2
        make = _factory(values, d, net.num_nodes)
        locality = DistinctElements(0, values, d, 0.5, net.num_nodes).rounds
        result = run_with_private_randomness(net, make, locality, seed=2)
        assert result.precomputation_rounds > result.simulation_rounds
        assert result.total_rounds == (
            result.precomputation_rounds + result.simulation_rounds
        )
        log_n = math.log2(net.num_nodes)
        assert result.simulation_rounds <= locality * result.num_layers + result.num_layers
        assert result.num_layers >= log_n

    def test_coverage_failure_raises(self, setting):
        """With a tiny radius factor, clusters are far smaller than the
        locality and no layer covers anyone."""
        net, values = setting
        make = _factory(values, 2, net.num_nodes)
        with pytest.raises(CoverageError):
            run_with_private_randomness(
                net,
                make,
                locality=6,
                seed=0,
                num_layers=2,
                radius_factor=0.01,
                max_coverage_retries=0,
            )

    def test_deterministic(self, setting):
        net, values = setting
        make = _factory(values, 2, net.num_nodes)
        locality = DistinctElements(0, values, 2, 0.5, net.num_nodes).rounds
        a = run_with_private_randomness(net, make, locality, seed=6)
        b = run_with_private_randomness(net, make, locality, seed=6)
        assert a.outputs == b.outputs


class _ShipNeighbourhood(Algorithm):
    """Sends every node's whole vertex set, many times over, in round 1."""

    def __init__(self, shared_seed):
        self.shared_seed = shared_seed

    def make_program(self, node, ctx):
        return _ShipNeighbourhoodProgram()


class _ShipNeighbourhoodProgram(NodeProgram):
    def on_start(self, ctx):
        ctx.send_all(tuple(range(ctx.num_nodes)) * 8)

    def on_round(self, ctx, inbox):
        self.halt()


class TestBandwidth:
    def test_oversized_payload_violates_congest_budget(self, setting):
        """The harness enforces the Θ(log n) budget like every engine."""
        net, _ = setting
        with pytest.raises(BandwidthViolation):
            run_with_private_randomness(net, _ShipNeighbourhood, locality=1, seed=0)
