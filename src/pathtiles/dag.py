"""Weighted acyclic digraphs, path generating functions, and the
vertex-disjoint path-family enumeration oracle.

Graphs are finite, multi-edges are allowed, and edge weights live in any
commutative ring (int, Fraction, QtPolynomial).  A family of paths is
nonintersecting when the paths are pairwise vertex-disjoint; a length-zero
path sitting at a vertex blocks that vertex.  One walker, ``_families``,
is the module's only path search: it walks every path of a family on one
explicit stack, does not recurse, and spends one budget state per vertex it
steps to.  The family oracle sums the weights of the families it yields,
path-set listing reads the one-path families, and the compatibility check
makes one walk per start pair and stops at the first family.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .budget import Budget, BudgetExceeded  # re-exported: callers catch dag.BudgetExceeded
from .linalg import ExactMatrix, sum_max_minors_pfaffian, sum_max_minors_squared
from .ring import parse_scalar, scalar_str


class CycleError(ValueError):
    """The supplied edge set contains a directed cycle."""


class WeightedDag:
    """Finite acyclic directed graph with ring-valued edge weights."""

    def __init__(self, vertices, edges):
        self.vertices = list(vertices)
        index = {}
        for v in self.vertices:
            if v in index:
                raise ValueError(f"duplicate vertex id {v!r}")
            index[v] = len(index)
        self._index = index
        self.edges = []
        self._out: dict[object, list[tuple[object, object]]] = {v: [] for v in self.vertices}
        indegree = {v: 0 for v in self.vertices}
        for src, dst, weight in edges:
            if src not in index or dst not in index:
                raise ValueError(f"edge {src!r} -> {dst!r} uses an unknown vertex")
            self.edges.append((src, dst, weight))
            self._out[src].append((dst, weight))
            indegree[dst] += 1
        self._topo = self._toposort(indegree)

    def _toposort(self, indegree) -> list:
        order = []
        ready = [v for v in self.vertices if indegree[v] == 0]
        while ready:
            v = ready.pop()
            order.append(v)
            for w, _ in self._out[v]:
                indegree[w] -= 1
                if indegree[w] == 0:
                    ready.append(w)
        if len(order) != len(self.vertices):
            raise CycleError("graph has a directed cycle")
        return order

    def __contains__(self, vertex) -> bool:
        return vertex in self._index

    def out_edges(self, vertex):
        return self._out[vertex]

    def out_degree(self, vertex) -> int:
        return len(self._out[vertex])

    def topological_order(self) -> list:
        return list(self._topo)

    def to_json(self, starts=None, ends=None) -> dict:
        doc = {
            "vertices": [_json_id(v) for v in self.vertices],
            "edges": [
                {"from": _json_id(s), "to": _json_id(d), "w": scalar_str(w)}
                for s, d, w in self.edges
            ],
        }
        if starts is not None:
            doc["starts"] = [_json_id(v) for v in starts]
        if ends is not None:
            doc["ends"] = [_json_id(v) for v in ends]
        return doc

    @classmethod
    def from_json(cls, doc) -> tuple["WeightedDag", "EndpointSpec | None"]:
        if not isinstance(doc, dict):
            raise ValueError("graph file must hold a JSON object")
        vertices, edges, starts, ends = doc["vertices"], doc["edges"], doc.get("starts", []), doc.get("ends", [])
        for key, value in zip(("vertices", "edges", "starts", "ends"), (vertices, edges, starts, ends)):
            if not isinstance(value, list):
                raise ValueError(f"graph field {key!r} must be an array")
        if not all(isinstance(e, dict) for e in edges):
            raise ValueError("every edge must be an object with 'from' and 'to'")
        edge_ends = [e[key] for e in edges for key in ("from", "to")]
        for v in [*vertices, *edge_ends, *starts, *ends]:
            if not isinstance(v, (str, int)):
                raise ValueError(f"vertex id {v!r} must be a string or an integer")
        g = cls(vertices, [(e["from"], e["to"], parse_scalar(str(e.get("w", "1")))) for e in edges])
        spec = None
        if starts and ends:
            spec = EndpointSpec(tuple(starts), tuple(ends))
        return g, spec


def _json_id(v):
    return v if isinstance(v, (str, int)) else str(v)


@dataclass(frozen=True)
class EndpointSpec:
    """Ordered start and end tuples; starts may not outnumber ends."""

    starts: tuple
    ends: tuple

    def __post_init__(self):
        if len(set(self.starts)) != len(self.starts):
            raise ValueError("start vertices must be distinct")
        if len(set(self.ends)) != len(self.ends):
            raise ValueError("end vertices must be distinct")
        if len(self.starts) > len(self.ends):
            raise ValueError("need at least as many ends as starts")

    def validate(self, graph: WeightedDag) -> None:
        for v in itertools.chain(self.starts, self.ends):
            if v not in graph:
                raise ValueError(f"vertex {v!r} not in graph")


def gf_from(graph: WeightedDag, source):
    """Generating function of all paths from source to every vertex."""
    if source not in graph:
        raise ValueError(f"vertex {source!r} not in graph")
    gf = {v: 0 for v in graph.vertices}
    gf[source] = 1
    for v in graph.topological_order():
        value = gf[v]
        if value == 0:
            continue
        for w, weight in graph.out_edges(v):
            gf[w] = gf[w] + value * weight
    return gf


def path_gf(graph: WeightedDag, a, b):
    """Sum of weights of all directed paths from a to b; 1 when a == b."""
    if b not in graph:
        raise ValueError(f"vertex {b!r} not in graph")
    return gf_from(graph, a)[b]


def path_matrix(graph: WeightedDag, spec: EndpointSpec) -> ExactMatrix:
    """Matrix of pairwise path generating functions, starts x ends."""
    spec.validate(graph)
    rows = []
    for u in spec.starts:
        gf = gf_from(graph, u)
        rows.append([gf[v] for v in spec.ends])
    return ExactMatrix.from_rows(rows)


def iter_path_vertex_sets(graph: WeightedDag, a, b, budget: Budget):
    """Yield (vertex frozenset, weight) for every directed path a -> b.

    A query on the family walker: the one-path families from a to the end b.
    """
    if a not in graph or b not in graph:
        raise ValueError("unknown vertex")
    for weight, seen in _families(graph, (a,), {b: 0}.get, budget):
        yield frozenset(seen), weight


def permutation_sign(perm) -> int:
    inversions = sum(
        1 for i, j in itertools.combinations(range(len(perm)), 2) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def _families(graph: WeightedDag, starts, end_of, budget: Budget):
    """Yield (weight, live vertex set) for every family of disjoint paths.

    The k-th path runs from starts[k] to a vertex v with end index
    end_of(v) above that of path k - 1.  The set is the walker's own and
    changes once the generator resumes.  Starts must not be empty.
    """
    # Stack entries: (family weight, vertex, untried out-edges, path number,
    # least admissible end index); a path's bottom entry only holds the edge
    # into its start, and seen holds every vertex on the stack.  An admissible
    # end yields the family or starts the next path, then the walk goes on.
    bottom = object()  # the vertex of a bottom entry: no graph vertex, not even None
    spend, out_edges = budget.spend, graph.out_edges
    m = len(starts)
    seen: set = set()
    stack = [(1, bottom, iter(((starts[0], 1),)), 0, 0)]
    while stack:
        weight, _, edges, k, min_j = stack[-1]
        for y, w in edges:
            if y not in seen:
                break
        else:
            seen.discard(stack.pop()[1])
            continue
        spend()
        seen.add(y)
        weight = weight * w
        stack.append((weight, y, iter(out_edges(y)), k, min_j))
        j = end_of(y)
        if j is not None and j >= min_j:
            if k + 1 == m:
                yield weight, seen
            else:  # the bottom entry skips a start already taken, without spending
                stack.append((weight, bottom, iter(((starts[k + 1], 1),)), k + 1, j + 1))


def nonintersecting_gf(graph: WeightedDag, spec: EndpointSpec, perm=None, budget: Budget | None = None):
    """Weight sum over families of vertex-disjoint paths, by exhaustion.

    The k-th path runs from starts[perm[k]] to ends[j_k] for strictly
    increasing end indices j_1 < ... < j_m.  This is the oracle every formula
    in the package is checked against.
    """
    spec.validate(graph)
    m = len(spec.starts)
    if perm is None:
        perm = tuple(range(m))
    if sorted(perm) != list(range(m)):
        raise ValueError("perm must be a permutation of the start indices")
    if budget is None:
        budget = Budget()
    if m == 0:
        return 1
    starts = [spec.starts[i] for i in perm]
    end_of = {v: j for j, v in enumerate(spec.ends)}.get
    return sum(weight for weight, _ in _families(graph, starts, end_of, budget))


def _permutation_terms(graph: WeightedDag, spec: EndpointSpec, budget: Budget):
    """Yield (perm, nonintersecting_gf under perm) for every permutation of
    the starts, the identity first."""
    for perm in itertools.permutations(range(len(spec.starts))):
        yield perm, nonintersecting_gf(graph, spec, perm, budget)


def _signed_sum(terms):
    """The sum of sign(perm) * value over (perm, value) terms, from 0."""
    return sum(permutation_sign(perm) * value for perm, value in terms if value != 0)


def signed_path_sum(graph: WeightedDag, spec: EndpointSpec, budget: Budget | None = None):
    """Permutation-signed sum of nonintersecting-family generating functions."""
    if budget is None:
        budget = Budget()
    return _signed_sum(_permutation_terms(graph, spec, budget))


def is_compatible(graph: WeightedDag, spec: EndpointSpec, budget: Budget | None = None) -> bool:
    """Whether the endpoints are compatible in Stembridge's sense.

    Every path from an earlier start to a later end must meet every path
    from a later start to an earlier end; edge weights play no part.  The
    family walker makes one walk per start pair a before b, from (b, a)
    over all the ends: a family it finds is a path b -> c and a disjoint
    path a -> d with c before d, a crossing pair that does not meet, so the
    first family decides.  Exhaustive, so only suitable for small graphs.
    Vacuously true for a single start.
    """
    spec.validate(graph)
    if budget is None:
        budget = Budget()
    end_of = {v: j for j, v in enumerate(spec.ends)}.get
    return all(
        next(_families(graph, (b, a), end_of, budget), None) is None
        for a, b in itertools.combinations(spec.starts, 2)
    )


def signed_sum_squared_dets(graph: WeightedDag, spec: EndpointSpec):
    """The two determinant evaluations of the squared signed path sum.

    Returns (det[M U M^T], det[M U^T M^T]) for the path matrix M; both equal
    the square of signed_path_sum regardless of compatibility.
    """
    return sum_max_minors_squared(path_matrix(graph, spec))


def unfixed_end_pfaffian(graph: WeightedDag, spec: EndpointSpec):
    """Pfaffian formula for path families with unfixed ending points.

    Wraps linalg.sum_max_minors_pfaffian on the path matrix: Pf[M E M^T],
    whose entries are sums of 2x2 path-matrix minors over end pairs s < t,
    bordered for an odd number of starts by the path-matrix row sums (the
    phantom start-equals-end vertex).  No starts give 1.
    """
    return sum_max_minors_pfaffian(path_matrix(graph, spec))


def grid_graph(width: int, height: int, weight=1) -> WeightedDag:
    """Up/right lattice on the vertex rectangle [0, width] x [0, height]."""
    vertices = [(x, y) for x in range(width + 1) for y in range(height + 1)]
    edges = []
    for x in range(width + 1):
        for y in range(height + 1):
            if x < width:
                edges.append(((x, y), (x + 1, y), weight))
            if y < height:
                edges.append(((x, y), (x, y + 1), weight))
    return WeightedDag(vertices, edges)
