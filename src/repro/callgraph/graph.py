"""Directed call-graph structure with reachability traversal."""

from collections import deque


class CallGraph:
    """A directed graph over method nodes.

    Nodes are :class:`~repro.dex.MethodRef`-like keys — we use
    ``(class_name, method_name, descriptor)`` tuples internally, exposed as
    MethodRef objects at the API edge by the builder. Supports O(1) edge
    insertion and BFS reachability, which the pipeline runs from every
    entry point.
    """

    def __init__(self):
        self._successors = {}

    # -- construction ----------------------------------------------------------

    def add_node(self, node):
        if node not in self._successors:
            self._successors[node] = []
        return node

    def add_edge(self, caller, callee):
        self.add_node(caller)
        self.add_node(callee)
        self._successors[caller].append(callee)

    # -- accessors --------------------------------------------------------------

    @property
    def node_count(self):
        return len(self._successors)

    @property
    def edge_count(self):
        return sum(len(edges) for edges in self._successors.values())

    # -- traversal ----------------------------------------------------------------

    def reachable_from(self, roots):
        """Return the set of nodes reachable from ``roots`` (inclusive)."""
        visited = set()
        queue = deque()
        for root in roots:
            if root in self._successors and root not in visited:
                visited.add(root)
                queue.append(root)
        while queue:
            node = queue.popleft()
            for successor in self._successors[node]:
                if successor not in visited:
                    visited.add(successor)
                    queue.append(successor)
        return visited

    def __repr__(self):
        return "CallGraph(%d nodes, %d edges)" % (
            self.node_count, self.edge_count
        )
