"""Property tests over random connected graphs (n <= 20).

The null-model properties pin down what a swap may never do: change a
node's degree, disconnect the graph, create a repeated pair, or (for
latticeization) raise the ring-index cost. Modularity is checked
against the raw ordered-pair double sum for arbitrary assignments.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatialnet.communities import modularity
from spatialnet.null_models import latticeize, randomize, ring_index_cost

import fixtures
import oracles

SETTINGS = settings(max_examples=25, derandomize=True, deadline=None)


@st.composite
def connected_graphs(draw, n_max=20):
    """A random spanning tree plus random extra edges."""
    n = draw(st.integers(min_value=3, max_value=n_max))
    ids = [f"v{i:02d}" for i in range(n)]
    pairs = {(ids[draw(st.integers(0, i - 1))], ids[i]) for i in range(1, n)}
    extra = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    for i, j in extra:
        if i != j:
            pairs.add((ids[min(i, j)], ids[max(i, j)]))
    return fixtures.graph_from_edges(sorted(pairs))


@SETTINGS
@given(
    g=connected_graphs(),
    seed=st.integers(0, 2**16),
    swaps_per_edge=st.integers(0, 3),
    builder=st.sampled_from([randomize, latticeize]),
)
def test_null_model_replicates_keep_degrees_and_connectivity(g, seed, swaps_per_edge, builder):
    ensemble = builder(g, seed, swaps_per_edge, replicates=2)
    degrees = {node_id: g.degree(node_id) for node_id in g.node_ids}
    for replicate in ensemble.replicates:
        assert {node_id: replicate.degree(node_id) for node_id in replicate.node_ids} == degrees
        assert replicate.is_connected
        pairs = [frozenset((e.u, e.v)) for e in replicate.edges]
        assert len(set(pairs)) == len(pairs)


@SETTINGS
@given(g=connected_graphs(), seed=st.integers(0, 2**16), swaps_per_edge=st.integers(1, 3))
def test_lattice_replicates_never_raise_ring_cost(g, seed, swaps_per_edge):
    ensemble = latticeize(g, seed, swaps_per_edge, replicates=2)
    assert ensemble.node_order == g.node_ids
    before = ring_index_cost(g, ensemble.node_order)
    for replicate in ensemble.replicates:
        assert ring_index_cost(replicate, ensemble.node_order) <= before


@SETTINGS
@given(g=connected_graphs(), labels=st.lists(st.integers(0, 3), min_size=20, max_size=20))
def test_modularity_equals_raw_double_sum(g, labels):
    assignment = dict(zip(g.node_ids, labels))
    assert modularity(g, assignment) == pytest.approx(
        oracles.oracle_modularity(g, assignment), abs=1e-12)
