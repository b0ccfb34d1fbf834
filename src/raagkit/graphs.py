"""Finite reflexive graphs and their homomorphisms.

Graphs here are simple and symmetric, and every vertex carries an implicit
self-loop: ``adjacent(g, v, v)`` is always true, but loops are never stored
and may not appear in the edge set.  Vertex names are non-empty strings over
``[A-Za-z0-9_]``, which ``validate_graph`` lists in byte-wise lexicographic
order; vertex order is the single source of truth for every canonical choice
made downstream.

A graph never changes, so what is derived from it alone (its vertex index, its
dense adjacency table and its default group handle) is built on first use and
kept on the graph: it lives exactly as long as the graph, and no module cache
holds graphs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Mapping

from .errors import (
    DuplicateVertex,
    ExplicitSelfLoop,
    InvalidVertexName,
    MismatchedEnds,
    NotAHom,
    SearchSpaceTooLarge,
    UnknownEndpoint,
    UnknownVertex,
)

_NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")

_HOM_SPACE_LIMIT = 10 ** 6
_ISO_VERTEX_LIMIT = 10


@dataclass(frozen=True)
class Graph:
    """An undirected reflexive graph with ordered vertices and loop-free edges."""

    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def has_vertex(self, v: str) -> bool:
        return v in self.vertex_index

    @property
    def vertex_index(self) -> dict[str, int]:
        idx = self.__dict__.get("_vertex_index")
        if idx is None:
            idx = {v: i for i, v in enumerate(self.vertices)}
            object.__setattr__(self, "_vertex_index", idx)
        return idx

    @property
    def adjacency(self) -> list[list[bool]]:
        """Reflexive adjacency as a dense table over vertex indices."""
        adj = self.__dict__.get("_adjacency")
        if adj is None:
            index = self.vertex_index
            adj = [[i == j for j in range(len(index))] for i in range(len(index))]
            for u, v in self.edges:
                adj[index[u]][index[v]] = adj[index[v]][index[u]] = True
            object.__setattr__(self, "_adjacency", adj)
        return adj

    def degree(self, v: str) -> int:
        if not self.has_vertex(v):
            raise UnknownVertex(f"no vertex {v!r}")
        return sum(1 for e in self.edges if v in e)

    def sorted_edges(self) -> list[tuple[str, str]]:
        return sorted(self.edges)


def validate_graph(vertices: Iterable[str], edges: Iterable[tuple[str, str]]) -> Graph:
    """Build a Graph, rejecting bad names, duplicates, loops and stray endpoints."""
    vlist = list(vertices)
    for v in vlist:
        if not isinstance(v, str) or not _NAME_RE.match(v):
            raise InvalidVertexName(f"bad vertex name {v!r}")
    if len(set(vlist)) != len(vlist):
        seen: set[str] = set()
        for v in vlist:
            if v in seen:
                raise DuplicateVertex(f"vertex {v!r} listed twice")
            seen.add(v)
    vset = set(vlist)
    norm: set[tuple[str, str]] = set()
    for e in edges:
        u, v = e
        if u not in vset:
            raise UnknownEndpoint(f"edge endpoint {u!r} is not a vertex")
        if v not in vset:
            raise UnknownEndpoint(f"edge endpoint {v!r} is not a vertex")
        if u == v:
            raise ExplicitSelfLoop(
                f"self-loop at {u!r}: loops are implicit and may not be listed"
            )
        norm.add((u, v) if u < v else (v, u))
    return Graph(tuple(sorted(vlist)), frozenset(norm))


def adjacent(g: Graph, u: str, v: str) -> bool:
    """Reflexive adjacency: true on equal vertices, else edge membership."""
    if not g.has_vertex(u):
        raise UnknownVertex(f"no vertex {u!r}")
    if not g.has_vertex(v):
        raise UnknownVertex(f"no vertex {v!r}")
    if u == v:
        return True
    return ((u, v) if u < v else (v, u)) in g.edges


@dataclass(frozen=True)
class GraphHom:
    """A vertex map between graphs that sends edges to edges or collapses them."""

    source: Graph
    target: Graph
    pairs: tuple[tuple[str, str], ...]
    _map: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_map", dict(self.pairs))

    @property
    def mapping(self) -> dict[str, str]:
        return dict(self._map)

    def __call__(self, v: str) -> str:
        try:
            return self._map[v]
        except KeyError:
            raise UnknownVertex(f"no vertex {v!r} in the source") from None


def validate_hom(source: Graph, target: Graph, mapping: Mapping[str, str]) -> GraphHom:
    """Check totality and edge preservation, returning the validated hom."""
    for v in mapping:
        if not source.has_vertex(v):
            raise UnknownVertex(f"map defined on {v!r}, not a source vertex")
    missing = [v for v in source.vertices if v not in mapping]
    if missing:
        raise UnknownVertex(f"map undefined on source vertex {missing[0]!r}")
    for v, img in mapping.items():
        if not target.has_vertex(img):
            raise UnknownVertex(f"{v!r} maps to {img!r}, not a target vertex")
    for u, v in sorted(source.edges):
        if not adjacent(target, mapping[u], mapping[v]):
            raise NotAHom(
                f"edge ({u},{v}) maps to non-adjacent ({mapping[u]},{mapping[v]})",
                witness=(u, v),
            )
    pairs = tuple((v, mapping[v]) for v in source.vertices)
    return GraphHom(source, target, pairs)


def identity_hom(g: Graph) -> GraphHom:
    return GraphHom(g, g, tuple((v, v) for v in g.vertices))


def compose_homs(f: GraphHom, g: GraphHom) -> GraphHom:
    """Apply f first, then g.  Requires f.target == g.source."""
    if f.target != g.source:
        raise MismatchedEnds("cannot compose: middle graphs differ")
    pairs = tuple((v, g(f(v))) for v in f.source.vertices)
    return GraphHom(f.source, g.target, pairs)


def full_subgraph(g: Graph, keep: Iterable[str]) -> Graph:
    """The subgraph induced on ``keep`` (all edges among kept vertices)."""
    kept = set(keep)
    for v in kept:
        if not g.has_vertex(v):
            raise UnknownVertex(f"no vertex {v!r}")
    edges = {e for e in g.edges if e[0] in kept and e[1] in kept}
    return Graph(tuple(v for v in g.vertices if v in kept), frozenset(edges))


def equalizer(alpha: GraphHom, beta: GraphHom) -> tuple[Graph, GraphHom]:
    """The full subgraph where two parallel homs agree, with its inclusion."""
    if alpha.source != beta.source or alpha.target != beta.target:
        raise MismatchedEnds("equalizer needs a parallel pair")
    agree = [v for v in alpha.source.vertices if alpha(v) == beta(v)]
    sub = full_subgraph(alpha.source, agree)
    incl = GraphHom(sub, alpha.source, tuple((v, v) for v in sub.vertices))
    return sub, incl


def is_coreflexive_pair(alpha: GraphHom, beta: GraphHom, rho: GraphHom) -> bool:
    """True iff rho is a common retraction: rho∘alpha = rho∘beta = id."""
    if alpha.source != beta.source or alpha.target != beta.target:
        raise MismatchedEnds("alpha and beta must be parallel")
    if rho.source != alpha.target or rho.target != alpha.source:
        raise MismatchedEnds("rho must run back from the target to the source")
    ident = identity_hom(alpha.source)
    return compose_homs(alpha, rho) == ident and compose_homs(beta, rho) == ident


def enumerate_homs(source: Graph, target: Graph) -> list[GraphHom]:
    """All graph homs source -> target, in lexicographic order of the map table."""
    n = len(source.vertices)
    m = len(target.vertices)
    if m ** n > _HOM_SPACE_LIMIT:
        raise SearchSpaceTooLarge(f"{m}^{n} candidate maps exceed the limit")
    src_edges = [(source.vertex_index[u], source.vertex_index[v])
                 for u, v in sorted(source.edges)]
    out = []
    for images in product(target.vertices, repeat=n):
        ok = True
        for i, j in src_edges:
            if not adjacent(target, images[i], images[j]):
                ok = False
                break
        if ok:
            pairs = tuple(zip(source.vertices, images))
            out.append(GraphHom(source, target, pairs))
    return out


def graphs_isomorphic(g1: Graph, g2: Graph) -> GraphHom | None:
    """Search for an isomorphism by backtracking with degree pruning.

    Returns a witness hom or None.  Desk scale only: raises past 10 vertices.
    """
    if len(g1.vertices) != len(g2.vertices):
        return None
    if len(g1.vertices) > _ISO_VERTEX_LIMIT or len(g2.vertices) > _ISO_VERTEX_LIMIT:
        raise SearchSpaceTooLarge("isomorphism search is limited to 10 vertices")
    if len(g1.edges) != len(g2.edges):
        return None
    deg1 = sorted(g1.degree(v) for v in g1.vertices)
    deg2 = sorted(g2.degree(v) for v in g2.vertices)
    if deg1 != deg2:
        return None

    order = sorted(g1.vertices, key=lambda v: -g1.degree(v))
    assigned: dict[str, str] = {}
    used: set[str] = set()

    def extend(k: int) -> bool:
        if k == len(order):
            return True
        v = order[k]
        dv = g1.degree(v)
        for w in g2.vertices:
            if w in used or g2.degree(w) != dv:
                continue
            if all(adjacent(g1, v, u) == adjacent(g2, w, assigned[u])
                   for u in assigned):
                assigned[v] = w
                used.add(w)
                if extend(k + 1):
                    return True
                del assigned[v]
                used.discard(w)
        return False

    if not extend(0):
        return None
    pairs = tuple((v, assigned[v]) for v in g1.vertices)
    return GraphHom(g1, g2, pairs)
