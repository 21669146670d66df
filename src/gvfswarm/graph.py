"""Undirected communication graphs for the coordination layer.

Nodes are numbered 1..N in user-facing inputs (scenario files, CLI) and
0..N-1 internally. Edges are ordered pairs (tail, head); the orientation
fixes the sign of the relative coordinate z_k = x_tail - x_head,
nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

__all__ = [
    "Graph",
    "NeighborTable",
    "TreeCheck",
    "DEMO_TREE_EDGES",
]

# 8-node spanning tree used by the bundled demo scenario (1-based pairs).
DEMO_TREE_EDGES: tuple[tuple[int, int], ...] = (
    (1, 2),
    (2, 3),
    (3, 4),
    (3, 5),
    (4, 6),
    (5, 7),
    (6, 8),
)


@dataclass(frozen=True)
class TreeCheck:
    """Diagnostics from a spanning-tree check."""

    is_tree: bool
    connected: bool
    n_components: int
    has_cycle: bool
    message: str


@dataclass(frozen=True, eq=False)
class NeighborTable:
    """Every (owner, neighbor) pair of a graph, 2M entries, slot-major.

    Slot s holds the s-th smallest neighbor of every node of degree
    > s, the nodes in descending-degree order (ties by id), so slot s
    occupies rows bounds[s]:bounds[s + 1] and its owners are the first
    bounds[s + 1] - bounds[s] nodes of that order. ``inverse[i]`` is
    node i's place in the order. The table makes its arrays read-only.

    Derived on first use, then kept: ``slots`` pairs slot s's rows
    with its owners' places, and ``ordered`` says that ``inverse`` is
    the identity, so each node's place is its id (see ``relabelled``).

    Tables compare and hash by identity: the arrays have no single
    truth value to compare fields by.
    """

    owners: np.ndarray
    neighbors: np.ndarray
    bounds: tuple[int, ...]
    inverse: np.ndarray

    def __post_init__(self) -> None:
        for a in (self.owners, self.neighbors, self.inverse):
            a.flags.writeable = False

    @cached_property
    def slots(self) -> tuple[tuple[slice, slice], ...]:
        """(rows, places) slices of each slot, for the batched sums: about
        175 bytes a slot, so a caller that only sums rows builds none."""
        b = self.bounds
        return tuple((slice(start, stop), slice(0, stop - start)) for start, stop in zip(b[:-1], b[1:]))

    @cached_property
    def ordered(self) -> bool:
        return bool(np.array_equal(self.inverse, np.arange(len(self.inverse))))

    def relabelled(self) -> "NeighborTable":
        """The same entries, each node named by its place: inverse[owner], inverse[neighbor].

        Every node keeps its terms in the same rows, in the same slot
        order, so a sum over this table is bitwise the node-order sum,
        read in place order; its ``inverse`` is the identity.
        """
        inverse = self.inverse
        return NeighborTable(inverse[self.owners], inverse[self.neighbors], self.bounds,
                             np.arange(len(inverse)))


def _id_array(edges) -> np.ndarray:
    """The (tail, head) pairs as a new int64 (M, 2) array.

    An int64 (M, 2) array is taken as typed and copied. Otherwise
    ValueError unless every id is an integer: a bool, a float (even an
    integral one) or a string is refused, never rounded.
    """
    if isinstance(edges, np.ndarray) and edges.dtype == np.int64 and edges.shape[1:] == (2,):
        return edges.copy()
    try:
        # a two-key mapping or set would pass for a pair, in its own order
        pairs = set(map(len, edges)) <= {2} and all(
            issubclass(kind, (list, tuple, np.ndarray)) for kind in set(map(type, edges)))
        kinds = set(map(type, chain.from_iterable(edges)))
    except TypeError:
        pairs = False
    if not pairs:
        raise ValueError("edges must be (tail, head) pairs")
    for kind in kinds:
        if issubclass(kind, bool) or not issubclass(kind, (int, np.integer)):
            raise ValueError(f"node ids must be integers, got {kind.__name__}")
    try:
        ids = np.fromiter(chain.from_iterable(edges), dtype=np.int64, count=2 * len(edges))
    except OverflowError:
        raise ValueError("node id beyond the int64 range") from None
    return ids.reshape(len(edges), 2)


@dataclass(frozen=True, init=False, repr=False, eq=False)
class Graph:
    """Undirected graph with oriented edges, stored 0-based.

    Parameters
    ----------
    n_nodes : int
        Number of nodes, at least 1.
    edges : sequence of (int, int), or an int64 (M, 2) array
        Oriented edges (tail, head), 0-based integer ids, no self
        loops, no duplicates in either orientation. Kept once, as
        ``edge_array``; an array is copied, never kept. ``edges`` reads
        them back as a tuple of int pairs, and ``==`` and ``hash`` see
        the same (n_nodes, edges) as that tuple would.
    """

    n_nodes: int
    # the edges as a read-only int64 (M, 2) array of (tail, head)
    edge_array: np.ndarray
    # what every neighbor sum reads; its order fixes each sum's bits
    neighbor_table: NeighborTable

    def __init__(self, n_nodes: int, edges=()) -> None:
        n = n_nodes
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError(f"n_nodes must be an integer, got {type(n).__name__}")
        if n < 1:
            raise ValueError(f"graph needs at least one node, got {n}")
        # range, self loops and duplicates on the array
        e = _id_array(edges)
        bad = np.flatnonzero(((e < 0) | (e >= n)).any(axis=1))
        if bad.size:
            raise ValueError(f"edge {tuple(e[bad[0]].tolist())} out of range for {n} nodes")
        bad = np.flatnonzero(e[:, 0] == e[:, 1])
        if bad.size:
            raise ValueError(f"self loop at node {e[bad[0], 0]}")
        # both orientations of every edge, sorted by (owner, neighbor):
        # an edge listed twice, either way round, repeats a key
        owners, neighbors = np.concatenate([e, e[:, ::-1]]).T
        key = owners * n + neighbors
        order = np.argsort(key, kind="stable")
        same = np.flatnonzero(key[order[1:]] == key[order[:-1]])
        if same.size:
            later = np.maximum(order[same] % len(e), order[same + 1] % len(e)).min()
            raise ValueError(f"duplicate edge {tuple(e[later].tolist())}")
        # a slot is the index past the owner's first entry; the table sorts by (slot, rank)
        owners, neighbors = owners[order], neighbors[order]
        degree = np.bincount(owners, minlength=n)
        slot = np.arange(len(owners)) - (np.cumsum(degree) - degree)[owners]
        inverse = np.empty(n, dtype=np.int64)
        inverse[np.argsort(-degree, kind="stable")] = np.arange(n)
        entries = np.argsort(slot * n + inverse[owners], kind="stable")
        bounds = np.concatenate([[0], np.cumsum(np.bincount(slot))])
        table = NeighborTable(owners[entries], neighbors[entries], tuple(bounds.tolist()), inverse)
        e.flags.writeable = False
        object.__setattr__(self, "n_nodes", n)
        object.__setattr__(self, "edge_array", e)
        object.__setattr__(self, "neighbor_table", table)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as (tail, head) int pairs, built from ``edge_array`` on each read."""
        return tuple(map(tuple, self.edge_array.tolist()))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n_nodes == other.n_nodes and np.array_equal(self.edge_array, other.edge_array)

    def __hash__(self) -> int:
        return hash((self.n_nodes, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n_nodes={self.n_nodes!r}, edges={self.edges!r})"

    @classmethod
    def from_one_based(cls, n_nodes: int, edges) -> "Graph":
        """Build from 1-based (tail, head) pairs as written in scenario files."""
        return cls(n_nodes=n_nodes, edges=_id_array(edges) - 1)

    @property
    def n_edges(self) -> int:
        return len(self.edge_array)

    def check_spanning_tree(self) -> TreeCheck:
        """Check connectivity and acyclicity by hooking and pointer jumping.

        While an edge joins two component labels (each node's own id at
        first), every edge hooks its larger label onto its smaller, then
        labels jump to their label's label until none moves (Shiloach &
        Vishkin, J. Algorithms 1982). Each pass hooks a root and labels
        only go down, so both loops end; the roots left count components.
        """
        n = self.n_nodes
        tails, heads = self.edge_array.T
        label = np.arange(n)
        while not np.array_equal(a := label[tails], b := label[heads]):
            np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
            while not np.array_equal(up := label[label], label):
                label = up
        n_components = int(np.count_nonzero(label == np.arange(n)))
        connected = n_components == 1
        # For a graph with c components and no cycles, M = N - c exactly.
        has_cycle = self.n_edges > n - n_components
        is_tree = connected and not has_cycle
        if is_tree:
            message = "spanning tree"
        elif not connected:
            message = f"graph is disconnected ({n_components} components)"
        else:
            message = "graph contains a cycle"
        return TreeCheck(
            is_tree=is_tree,
            connected=connected,
            n_components=n_components,
            has_cycle=has_cycle,
            message=message,
        )
