"""The graph helpers against networkx, which serves only as a reference
here."""
import networkx as nx
from hypothesis import given, settings, strategies as st

from wtgsolve.graphs import reachable, strongly_connected_components

# Node 0..9 maps to successors among 0..12: self-loops, isolated keys and
# successors that are not keys all occur.
digraphs = st.dictionaries(st.integers(0, 9),
                           st.lists(st.integers(0, 12), max_size=4),
                           max_size=10)


def reference(succ) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(succ)
    g.add_edges_from((u, v) for u, vs in succ.items() for v in vs)
    return g


@settings(max_examples=300, deadline=None)
@given(digraphs)
def test_components_partition_like_networkx(succ):
    comps = strongly_connected_components(succ)
    assert sorted(map(sorted, comps)) == sorted(
        map(sorted, nx.strongly_connected_components(reference(succ))))


@settings(max_examples=300, deadline=None)
@given(digraphs)
def test_components_come_successors_first(succ):
    emitted = {n: i for i, comp in
               enumerate(strongly_connected_components(succ)) for n in comp}
    for u, vs in succ.items():
        for v in vs:
            assert emitted[v] <= emitted[u]


@settings(max_examples=300, deadline=None)
@given(digraphs, st.lists(st.integers(0, 12), max_size=3))
def test_reachable_is_descendants_and_roots(succ, roots):
    g = reference(succ)
    g.add_nodes_from(roots)
    expected = set(roots).union(*(nx.descendants(g, r) for r in roots))
    assert reachable(succ, roots) == expected


def test_deep_path_needs_no_recursion():
    n = 100_000
    path = {i: [i + 1] for i in range(n)}
    comps = strongly_connected_components(path)
    assert comps == [[i] for i in range(n, -1, -1)]
    assert reachable(path, [0]) == set(range(n + 1))
    ring = {i: [(i + 1) % n] for i in range(n)}
    assert sorted(strongly_connected_components(ring)[0]) == list(range(n))

