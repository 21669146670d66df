import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_consensus import sorted_neighbors

from gvfswarm import graph as graph_module
from gvfswarm.graph import DEMO_TREE_EDGES, Graph, TreeCheck
from gvfswarm.scenario import build_scenario, validate_mapping


def demo_tree() -> Graph:
    return Graph.from_one_based(8, DEMO_TREE_EDGES)


def incidence_matrix(g: Graph) -> np.ndarray:
    """Oriented incidence matrix B, (n_nodes, n_edges) int64: column k has
    +1 at the tail and -1 at the head of edge k, so z = B.T @ x."""
    b = np.zeros((g.n_nodes, g.n_edges), dtype=np.int64)
    for k, (tail, head) in enumerate(g.edges):
        b[tail, k] = 1
        b[head, k] = -1
    return b


def bfs_check(g: Graph) -> TreeCheck:
    """The breadth-first search that the labelled check replaced, as its oracle."""
    n = g.n_nodes
    neighbors = sorted_neighbors(g)
    visited = [False] * n
    n_components = 0
    for start in range(n):
        if visited[start]:
            continue
        n_components += 1
        visited[start] = True
        queue = [start]
        while queue:
            node = queue.pop()
            for nbr in neighbors[node]:
                if not visited[nbr]:
                    visited[nbr] = True
                    queue.append(nbr)
    connected = n_components == 1
    has_cycle = g.n_edges > n - n_components
    is_tree = connected and not has_cycle
    if is_tree:
        message = "spanning tree"
    elif not connected:
        message = f"graph is disconnected ({n_components} components)"
    else:
        message = "graph contains a cycle"
    return TreeCheck(is_tree, connected, n_components, has_cycle, message)


class _CountedMinimum:
    """np.minimum, counting its .at calls: one per hooking pass."""

    def __init__(self):
        self.passes = 0

    def __call__(self, *args, **kwargs):
        return np.minimum(*args, **kwargs)

    def at(self, *args):
        self.passes += 1
        np.minimum.at(*args)


def assert_matches_bfs(g: Graph) -> TreeCheck:
    """Every TreeCheck field equals the oracle's, and the passes are bounded."""
    minimum = _CountedMinimum()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "np", SimpleNamespace(**{**vars(np), "minimum": minimum}))
        check = g.check_spanning_tree()
    assert check == bfs_check(g)
    assert check == g.check_spanning_tree()
    # each pass hooks at least one root, and N - c roots get hooked in all
    if g.n_edges:
        assert 1 <= minimum.passes <= g.n_nodes - check.n_components
    else:
        assert minimum.passes == 0
    return check


def shape_edges(shape: str, n: int) -> list[tuple[int, int]]:
    """0-based edges of one of the named test shapes on n nodes."""
    rng = np.random.default_rng(n)
    path = [(i, i + 1) for i in range(n - 1)]
    if shape == "path":
        return path
    if shape == "reversed-path":
        return [(j, i) for i, j in reversed(path)]
    if shape == "star-hub-first":
        return [(0, i) for i in range(1, n)]
    if shape == "star-hub-last":
        return [(n - 1, i) for i in range(n - 1)]
    if shape == "random-recursive-tree":
        return [(int(rng.integers(i)), i) for i in range(1, n)]
    if shape == "relabelled-path":
        perm = rng.permutation(n).tolist()
        return [(perm[i], perm[j]) for i, j in path]
    if shape == "two-tree-forest":
        return [(i, j) for i, j in path if j != n // 2]
    assert shape == "cycle"
    return path + [(n - 1, 0)]


SHAPES = [
    "path", "reversed-path", "star-hub-first", "star-hub-last",
    "random-recursive-tree", "relabelled-path", "two-tree-forest", "cycle",
]


@st.composite
def edge_sets(draw) -> Graph:
    """A relabelled random forest on up to 2000 nodes, plus some random edges.

    With no extra edge it is a forest (a tree when every parent edge is
    kept); extra edges close cycles or join trees.
    """
    n = draw(st.integers(1, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = draw(st.sampled_from([1.0, 0.999, 0.9, 0.5, 0.0]))
    n_extra = draw(st.sampled_from([0, 0, 1, 3, 50, 2 * n]))
    child = np.arange(1, n)
    parent = (rng.random(n - 1) * child).astype(np.int64)
    forest = np.stack([parent, child], axis=1)[rng.random(n - 1) < keep]
    e = np.concatenate([forest, rng.integers(0, n, (n_extra, 2))])
    e = e[e[:, 0] != e[:, 1]]
    key = e.min(axis=1) * n + e.max(axis=1)
    e = e[np.sort(np.unique(key, return_index=True)[1])]
    e = rng.permutation(n)[e]
    flip = rng.random(len(e)) < 0.5
    e[flip] = e[flip, ::-1]
    return Graph(n, rng.permutation(e).tolist())


class TestConstruction:
    def test_from_one_based_shifts_indices(self):
        g = Graph.from_one_based(3, [(1, 2), (2, 3)])
        assert g.edges == ((0, 1), (1, 2))
        assert g.n_nodes == 3
        assert g.n_edges == 2

    def test_single_node_no_edges(self):
        g = Graph(n_nodes=1)
        assert g.n_edges == 0
        assert sorted_neighbors(g) == [[]]
        table = g.neighbor_table
        assert (table.owners.tolist(), table.neighbors.tolist()) == ([], [])
        assert table.bounds == (0,) and table.inverse.tolist() == [0]

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError, match="at least one node"):
            Graph(n_nodes=0)

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(n_nodes=2, edges=((0, 2),))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self loop"):
            Graph(n_nodes=2, edges=((1, 1),))

    def test_rejects_duplicate_edge_either_orientation(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(n_nodes=3, edges=((0, 1), (1, 0)))
        with pytest.raises(ValueError, match="duplicate"):
            Graph(n_nodes=3, edges=((0, 1), (0, 1)))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Graph.from_one_based(3, [(1.7, 2), (2, 3.9)]),
            lambda: Graph.from_one_based(3, [(True, 2), (2, 3)]),
            lambda: Graph(3, ((0, 1), (1, 2.0))),
            lambda: Graph(3, ((0, 1), ("1", 2))),
            lambda: Graph(3, np.array([[0.0, 1.0]])),
        ],
        ids=["fraction", "bool", "integral-float", "string", "float-array"],
    )
    def test_rejects_ids_that_are_not_integers(self, build):
        # never rounded, never read as 0 or 1
        with pytest.raises(ValueError, match="^node ids must be integers, got "):
            build()

    # a mapping or set of two ids has a length of 2 but no order
    @pytest.mark.parametrize("edges", [((0, 1, 2),), ((0, 1), (2,)), (0, 1), ((0, 1), 2),
                                       ({0: 0, 1: 0},), ({0, 1},)])
    def test_rejects_edges_that_are_not_pairs(self, edges):
        with pytest.raises(ValueError, match="pairs"):
            Graph(3, edges)

    def test_rejects_ids_beyond_int64(self):
        with pytest.raises(ValueError, match="int64"):
            Graph(3, ((0, 2**63),))

    def test_edges_are_int_pairs_and_one_int64_array(self):
        g = Graph(4, [[0, 1], (np.int64(1), np.uint8(2)), (3, 1)])
        assert g.edges == ((0, 1), (1, 2), (3, 1))
        assert {type(i) for e in g.edges for i in e} == {int}
        assert g.edge_array.dtype == np.int64
        assert g.edge_array.tolist() == [[0, 1], [1, 2], [3, 1]]
        # node 1 (degree 3) first, then 0, 2, 3 by id; slot s holds the
        # s-th smallest neighbour of each node with more than s
        table = g.neighbor_table
        assert table.owners.tolist() == [1, 0, 2, 3, 1, 1]
        assert table.neighbors.tolist() == [0, 1, 1, 1, 2, 3]
        assert table.bounds == (0, 4, 5, 6)
        assert table.inverse.tolist() == [1, 0, 2, 3]
        for a in (g.edge_array, table.owners, table.neighbors, table.inverse):
            assert a.dtype == np.int64 and not a.flags.writeable
        assert g == Graph(4, ((0, 1), (1, 2), (3, 1)))
        assert Graph(1).edge_array.shape == (0, 2)

    def test_first_duplicate_in_edge_order_is_named(self):
        with pytest.raises(ValueError, match=r"^duplicate edge \(2, 1\)$"):
            Graph(4, ((0, 1), (1, 2), (2, 1), (0, 1)))
        with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1\)$"):
            Graph(4, ((1, 0), (0, 1)))

    @pytest.mark.parametrize(
        "pairs",
        [
            [[1, 2], [3, 2], [2, 4]],
            ((1, 2), (3, 2), (2, 4)),
            [(np.int64(1), np.int32(2)), (np.uint8(3), 2), (2, np.int16(4))],
            np.array([[1, 2], [3, 2], [2, 4]]),
            np.array([[1, 2], [3, 2], [2, 4]], dtype=np.uint16),
        ],
        ids=["lists", "tuples", "numpy-ints", "int64-array", "uint16-array"],
    )
    def test_from_one_based_equals_the_shifted_pairs(self, pairs):
        g = Graph.from_one_based(4, pairs)
        want = Graph(4, [(int(a) - 1, int(b) - 1) for a, b in pairs])
        assert g == want and g.edges == ((0, 1), (2, 1), (1, 3))
        assert g.edge_array.tobytes() == want.edge_array.tobytes()
        for name in ("owners", "neighbors", "inverse"):
            got = getattr(g.neighbor_table, name)
            assert got.tobytes() == getattr(want.neighbor_table, name).tobytes()
        assert g.neighbor_table.bounds == want.neighbor_table.bounds

    @pytest.mark.parametrize(
        "pairs,message",
        [
            ([(True, 2), (2, 3)], "node ids must be integers, got bool"),
            ([(1, 2), (2, 3.0)], "node ids must be integers, got float"),
            ([(1, 2), ("2", 3)], "node ids must be integers, got str"),
            ([(1, 2), (2, 2**63)], "node id beyond the int64 range"),
        ],
        ids=["bool", "float", "str", "beyond-int64"],
    )
    def test_from_one_based_rejects_like_the_constructor(self, pairs, message):
        for build in (lambda: Graph.from_one_based(3, pairs), lambda: Graph(3, pairs)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build()

    @pytest.mark.parametrize("build", [Graph, Graph.from_one_based], ids=["zero-based", "one-based"])
    def test_caller_array_is_copied_never_frozen(self, build):
        pairs = np.array([[1, 2], [2, 3]], dtype=np.int64)
        before = pairs.copy()
        g = build(4, pairs)
        assert pairs.flags.writeable and np.array_equal(pairs, before)
        assert not np.shares_memory(g.edge_array, pairs)
        edges = g.edges
        pairs[0] = (3, 0)
        assert g.edges == edges and g.edge_array.tolist() == [list(e) for e in edges]

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3", None], ids=["fraction", "integral-float",
                                                                     "bool", "string", "none"])
    def test_rejects_n_nodes_that_are_not_integers(self, n):
        with pytest.raises(ValueError, match=f"^n_nodes must be an integer, got {type(n).__name__}$"):
            Graph(n)

    def test_numpy_integer_n_nodes(self):
        for n in (np.int64(3), np.int32(3), np.uint8(3)):
            g = Graph(n, ((0, 1), (1, 2)))
            assert g == Graph(3, ((0, 1), (1, 2)))
            assert g.check_spanning_tree().is_tree

    def test_tables_compare_and_hash_by_identity(self):
        g, h = Graph(3, ((0, 1), (1, 2))), Graph(3, ((0, 1), (1, 2)))
        assert (g.neighbor_table == h.neighbor_table) is False
        assert (g.neighbor_table == g.neighbor_table) is True
        assert hash(g.neighbor_table) == hash(g.neighbor_table)
        assert len({g.neighbor_table, h.neighbor_table}) == 2

    def test_neighbors_sorted(self):
        g = demo_tree()
        # node 3 (0-based 2) touches nodes 2, 4, 5 (0-based 1, 3, 4); the
        # table lists each node's neighbours in slot order, smallest first
        table = g.neighbor_table
        rows = sorted_neighbors(g)
        assert (rows[2], rows[0]) == ([1, 3, 4], [1])
        for node, row in enumerate(rows):
            assert table.neighbors[table.owners == node].tolist() == row


class TestMatrices:
    def test_two_node_incidence(self):
        g = Graph.from_one_based(2, [(1, 2)])
        b = incidence_matrix(g)
        assert b.dtype == np.int64
        assert b.tolist() == [[1], [-1]]

    def test_incidence_column_sums_zero(self):
        b = incidence_matrix(demo_tree())
        assert b.shape == (8, 7)
        assert np.all(b.sum(axis=0) == 0)

    def test_laplacian_is_b_bt(self):
        g = demo_tree()
        b = incidence_matrix(g)
        lap = b @ b.T
        # off the diagonal, L = -A with A the adjacency of the edge list
        adjacency = np.zeros((8, 8), dtype=np.int64)
        for i, row in enumerate(sorted_neighbors(g)):
            adjacency[i, row] = 1
        assert np.array_equal(lap - np.diag(np.diag(lap)), -adjacency)
        assert np.array_equal(lap, lap.T)
        assert np.all(lap.sum(axis=1) == 0)
        # degree sequence of the bundled tree
        assert np.diag(lap).tolist() == [1, 2, 3, 2, 2, 2, 1, 1]

    def test_edge_laplacian(self):
        g = demo_tree()
        b = incidence_matrix(g)
        # B.T @ B: 2 on the diagonal, +-1 where two edges share a node
        shared = [[len(set(e) & set(f)) for f in g.edges] for e in g.edges]
        assert np.array_equal(np.abs(b.T @ b), shared)

    def test_relative_coordinate_orientation(self):
        g = Graph.from_one_based(3, [(1, 2), (3, 2)])
        x = np.array([5.0, 2.0, 7.0])
        z = incidence_matrix(g).T @ x
        # z_k = x_tail - x_head
        assert z.tolist() == [3.0, 5.0]


class TestTreeCheck:
    def test_demo_tree_is_spanning_tree(self):
        check = demo_tree().check_spanning_tree()
        assert check.is_tree
        assert check.connected
        assert check.n_components == 1
        assert not check.has_cycle

    def test_triangle_has_cycle(self):
        g = Graph.from_one_based(3, [(1, 2), (2, 3), (3, 1)])
        check = g.check_spanning_tree()
        assert not check.is_tree
        assert check.connected
        assert check.has_cycle
        assert "cycle" in check.message

    def test_disconnected(self):
        g = Graph.from_one_based(4, [(1, 2)])
        check = g.check_spanning_tree()
        assert not check.is_tree
        assert not check.connected
        assert check.n_components == 3
        assert "disconnected" in check.message

    def test_disconnected_with_cycle(self):
        g = Graph.from_one_based(5, [(1, 2), (2, 3), (3, 1)])
        check = g.check_spanning_tree()
        assert not check.is_tree
        assert check.has_cycle
        assert not check.connected

    def test_chain_is_tree(self):
        g = Graph.from_one_based(5, [(i, i + 1) for i in range(1, 5)])
        assert g.check_spanning_tree().is_tree

    def test_single_node_is_tree(self):
        assert Graph(n_nodes=1).check_spanning_tree().is_tree


class TestLabelledCheck:
    """check_spanning_tree equals the breadth-first oracle, field by field."""

    @pytest.mark.parametrize("n", [8, 512, 16384])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_named_shapes(self, shape, n):
        check = assert_matches_bfs(Graph(n, shape_edges(shape, n)))
        assert check.is_tree == (shape not in ("two-tree-forest", "cycle"))
        assert check.n_components == (2 if shape == "two-tree-forest" else 1)

    @pytest.mark.parametrize(
        "n,edges,components",
        [
            (1, (), 1),
            (5, ((0, 1), (1, 2), (2, 0)), 3),
            (9, ((3, 7), (7, 5), (5, 3), (8, 2), (2, 0)), 5),
            (6, (), 6),
            (6, ((5, 4), (4, 3)), 4),
        ],
        ids=["one-node", "disconnected-with-cycle", "cycle-and-tree-apart",
             "isolated-nodes", "isolated-and-a-path"],
    )
    def test_small_cases(self, n, edges, components):
        assert assert_matches_bfs(Graph(n, edges)).n_components == components

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(g=edge_sets())
    def test_random_edge_sets(self, g):
        assert_matches_bfs(g)

    def test_relabelled_path_scenario_of_16384_drones(self):
        n = 16384
        doc = {
            "name": "relabelled-path",
            "speed_mps": 16.0,
            "dt_s": 0.02,
            "t_end_s": 1.0,
            "seed": 1,
            "graph": {"n_drones": n, "edges": [[i + 1, j + 1] for i, j in
                                               shape_edges("relabelled-path", n)]},
            "paths": {"alpha_rad": 0.0, "origin_m": [0.0, 0.0], "spacing_m": 50.0},
            "oscillation": {"w_gamma_rad_s": 0.6},
            "consensus": {"k_u": 0.06, "r_m": 150.0},
            "initial": {"parameter_span_m": [-50.0, 50.0]},
        }
        assert validate_mapping(doc) == []
        sc = build_scenario(doc)
        assert sc.n_drones == n and sc.graph.check_spanning_tree().is_tree
        # one edge moved to close a cycle leaves two components
        edges = doc["graph"]["edges"]
        doc["graph"]["edges"] = edges[:n // 2] + edges[n // 2 + 1:] + [[edges[0][0], edges[1][1]]]
        assert validate_mapping(doc) == [
            "graph: must be a spanning tree, graph is disconnected (2 components)"
        ]
