"""Mirrored-graph construction and the reflection principle for path families.

Given a graph whose ordered ends are sinks, the graph is doubled with a
reversed mirror copy and the two halves are joined by 3n - 2 unit-weight
cross edges.  The two join variants realize the upper-triangular matrix of
ones-and-twos and its transpose as the sink-to-mirrored-sink path matrix, so
the squared signed path sum on the original graph equals the signed path sum
from the starts to their mirror images on either enlarged graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dag import (
    Budget,
    EndpointSpec,
    WeightedDag,
    _permutation_terms,
    _signed_sum,
    is_compatible,
)
from .ring import scalar_str

VARIANTS = ("bar", "tilde")


@dataclass(frozen=True)
class ReflectionInput:
    """A graph plus endpoints whose ends are sinks, in caller-chosen order.

    The order of ``spec.ends`` is trusted to be the boundary (cyclic) order;
    only sink-ness and acyclicity of the construction are verified here.
    """

    graph: WeightedDag
    spec: EndpointSpec

    def __post_init__(self):
        self.spec.validate(self.graph)
        for v in self.spec.ends:
            if self.graph.out_degree(v) != 0:
                raise ValueError(f"end vertex {v!r} is not a sink")


def mirrored_id(vertex) -> str:
    return f"{vertex}'"


def build_mirrored_graph(inp: ReflectionInput, variant: str = "bar") -> tuple[WeightedDag, EndpointSpec]:
    """Union of the graph and its reversed mirror copy, joined at the sinks.

    Variant "bar" directs the cross edges toward higher-index mirrored sinks
    (v_i -> v_i', v_i -> v_{i+1}', v_i' -> v_{i+1}'); variant "tilde" toward
    lower-index ones (v_i -> v_i', v_{i+1} -> v_i', v_{i+1}' -> v_i').
    Returns the enlarged graph and the spec from the starts to their mirror
    images.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    g, spec = inp.graph, inp.spec
    mirror = {v: mirrored_id(v) for v in g.vertices}
    source = {}
    for v, image in mirror.items():
        if source.setdefault(image, v) is not v:
            raise ValueError(f"mirrored ids collide: vertices {source[image]!r} and {v!r} both mirror to {image!r}")
    clash = set(mirror.values()) & {v for v in g.vertices}
    if clash:
        raise ValueError(f"mirrored ids collide with existing vertices: {sorted(clash)!r}")

    vertices = list(g.vertices) + [mirror[v] for v in g.vertices]
    edges = list(g.edges)
    # Mirror edges run backwards with the same weight.
    edges += [(mirror[dst], mirror[src], w) for src, dst, w in g.edges]

    ends = spec.ends
    n = len(ends)
    for i in range(n):
        edges.append((ends[i], mirror[ends[i]], 1))
    if variant == "bar":
        for i in range(n - 1):
            edges.append((ends[i], mirror[ends[i + 1]], 1))
            edges.append((mirror[ends[i]], mirror[ends[i + 1]], 1))
    else:
        for i in range(n - 1):
            edges.append((ends[i + 1], mirror[ends[i]], 1))
            edges.append((mirror[ends[i + 1]], mirror[ends[i]], 1))

    doubled = WeightedDag(vertices, edges)  # constructor re-verifies acyclicity
    new_spec = EndpointSpec(spec.starts, tuple(mirror[u] for u in spec.starts))
    return doubled, new_spec


@dataclass
class ReflectionReport:
    """Values and verdicts of one reflection-principle check."""

    squared_signed_sum: object
    bar_signed_sum: object
    tilde_signed_sum: object
    compatible: bool
    unsigned_values: tuple | None

    @property
    def signed_ok(self) -> bool:
        return self.squared_signed_sum == self.bar_signed_sum == self.tilde_signed_sum

    @property
    def unsigned_ok(self) -> bool:
        if self.unsigned_values is None:
            return True
        lhs, bar, tilde = self.unsigned_values
        return lhs == bar == tilde

    @property
    def passed(self) -> bool:
        return self.signed_ok and self.unsigned_ok

    def lines(self) -> list[str]:
        out = [
            f"signed: lhs^2={scalar_str(self.squared_signed_sum)} "
            f"bar={scalar_str(self.bar_signed_sum)} "
            f"tilde={scalar_str(self.tilde_signed_sum)} "
            f"{'ok' if self.signed_ok else 'MISMATCH'}"
        ]
        if self.unsigned_values is not None:
            lhs, bar, tilde = self.unsigned_values
            out.append(
                f"unsigned (compatible): lhs^2={scalar_str(lhs)} "
                f"bar={scalar_str(bar)} tilde={scalar_str(tilde)} "
                f"{'ok' if self.unsigned_ok else 'MISMATCH'}"
            )
        return out


def check_reflection_identity(inp: ReflectionInput, budget: Budget | None = None) -> ReflectionReport:
    """Compare the squared signed sum with both mirrored-graph signed sums.

    When the endpoints are compatible the unsigned (identity permutation)
    version is checked as well; its values are the identity terms of the
    signed sums, so no family is walked twice.
    """
    if budget is None:
        budget = Budget()

    def signed_sum_and_identity_term(graph, spec):
        terms = list(_permutation_terms(graph, spec, budget))  # signed_path_sum's terms
        return _signed_sum(terms), terms[0][1]

    base, lhs = signed_sum_and_identity_term(inp.graph, inp.spec)
    bar_graph, bar_spec = build_mirrored_graph(inp, "bar")
    tilde_graph, tilde_spec = build_mirrored_graph(inp, "tilde")
    bar_value, bar_u = signed_sum_and_identity_term(bar_graph, bar_spec)
    tilde_value, tilde_u = signed_sum_and_identity_term(tilde_graph, tilde_spec)

    compatible = is_compatible(inp.graph, inp.spec, budget)
    unsigned = (lhs * lhs, bar_u, tilde_u) if compatible else None

    return ReflectionReport(
        squared_signed_sum=base * base,
        bar_signed_sum=bar_value,
        tilde_signed_sum=tilde_value,
        compatible=compatible,
        unsigned_values=unsigned,
    )
