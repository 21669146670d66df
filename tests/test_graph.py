import numpy as np
import pytest

from gvfswarm.graph import DEMO_TREE_EDGES, Graph


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


class TestConstruction:
    def test_from_one_based_shifts_indices(self):
        g = Graph.from_one_based(3, [(1, 2), (2, 3)])
        assert g.edges == ((0, 1), (1, 2))
        assert g.n_nodes == 3
        assert g.n_edges == 2

    def test_single_node_no_edges(self):
        g = Graph(n_nodes=1)
        assert g.n_edges == 0
        assert g.neighbors(0) == ()

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

    @pytest.mark.parametrize("edges", [((0, 1, 2),), ((0, 1), (2,)), (0, 1), ((0, 1), 2)])
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
        offsets, neighbors = g.adjacency
        assert offsets.tolist() == [0, 1, 4, 5, 6]
        assert neighbors.tolist() == [1, 0, 2, 3, 1, 1]
        for a in (g.edge_array, offsets, neighbors):
            assert a.dtype == np.int64 and not a.flags.writeable
        assert g == Graph(4, ((0, 1), (1, 2), (3, 1)))
        assert Graph(1).edge_array.shape == (0, 2)

    def test_first_duplicate_in_edge_order_is_named(self):
        with pytest.raises(ValueError, match=r"^duplicate edge \(2, 1\)$"):
            Graph(4, ((0, 1), (1, 2), (2, 1), (0, 1)))
        with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1\)$"):
            Graph(4, ((1, 0), (0, 1)))

    def test_neighbors_sorted(self):
        g = demo_tree()
        # node 3 (0-based 2) touches nodes 2, 4, 5 (0-based 1, 3, 4)
        assert g.neighbors(2) == (1, 3, 4)
        assert g.neighbors(0) == (1,)
        with pytest.raises(ValueError):
            g.neighbors(8)


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
        # off the diagonal, L = -A with A the adjacency of Graph.neighbors
        adjacency = np.zeros((8, 8), dtype=np.int64)
        for i in range(8):
            adjacency[i, list(g.neighbors(i))] = 1
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
