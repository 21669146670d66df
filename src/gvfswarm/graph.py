"""Undirected communication graphs for the coordination layer.

Nodes are numbered 1..N in user-facing inputs (scenario files, CLI) and
0..N-1 internally. Edges are ordered pairs (tail, head); the orientation
fixes the sign of the relative coordinate z_k = x_tail - x_head,
nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Graph",
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


@dataclass(frozen=True)
class Graph:
    """Undirected graph with oriented edges, stored 0-based.

    Parameters
    ----------
    n_nodes : int
        Number of nodes, at least 1.
    edges : tuple of (int, int)
        Oriented edges (tail, head), 0-based, no self loops, no
        duplicates in either orientation.
    """

    n_nodes: int
    edges: tuple[tuple[int, int], ...] = field(default_factory=tuple)
    # sorted neighbors of each node, built with the edge checks
    _adjacency: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"graph needs at least one node, got {self.n_nodes}")
        seen: set[frozenset[int]] = set()
        adj: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for tail, head in self.edges:
            if not (0 <= tail < self.n_nodes and 0 <= head < self.n_nodes):
                raise ValueError(f"edge ({tail}, {head}) out of range for {self.n_nodes} nodes")
            if tail == head:
                raise ValueError(f"self loop at node {tail}")
            key = frozenset((tail, head))
            if key in seen:
                raise ValueError(f"duplicate edge ({tail}, {head})")
            seen.add(key)
            adj[tail].append(head)
            adj[head].append(tail)
        object.__setattr__(self, "_adjacency", tuple(tuple(sorted(a)) for a in adj))

    @classmethod
    def from_one_based(cls, n_nodes: int, edges) -> "Graph":
        """Build from 1-based (tail, head) pairs as written in scenario files."""
        shifted = tuple((int(i) - 1, int(j) - 1) for i, j in edges)
        return cls(n_nodes=n_nodes, edges=shifted)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, node: int) -> tuple[int, ...]:
        """Sorted 0-based neighbors of ``node``."""
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} out of range")
        return self._adjacency[node]

    def check_spanning_tree(self) -> TreeCheck:
        """Check connectivity and acyclicity by breadth-first search."""
        n = self.n_nodes
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
                for nbr in self._adjacency[node]:
                    if not visited[nbr]:
                        visited[nbr] = True
                        queue.append(nbr)
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
