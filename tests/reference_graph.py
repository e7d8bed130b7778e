"""`Graph`'s builders as they were before `add_edge` skipped the id check
of endpoints already in the graph, kept as a reference for the
differential tests: every id, new or not, goes through `add_node`."""

from chordalg import Graph


class ReferenceGraph(Graph):
    __slots__ = ()

    def __init__(self, edges=(), nodes=()):
        self.adj = {}
        for v in nodes:
            self.add_node(v)
        for u, v in edges:
            self.add_edge(u, v)

    def add_node(self, v):
        if not isinstance(v, int) or v <= 0:
            raise ValueError("node ids must be positive integers, got %r" % (v,))
        if v not in self.adj:
            self.adj[v] = set()

    def add_edge(self, u, v):
        if u == v:
            raise ValueError("self-loops are not allowed")
        self.add_node(u)
        self.add_node(v)
        self.adj[u].add(v)
        self.adj[v].add(u)
