"""Shared small-graph corpus and helpers for the test suite."""

from raagkit import validate_graph


def graph(vertex_text, edge_text=""):
    """Build a graph from 'a b c' vertices and 'ab bc' single-letter edges."""
    vertices = vertex_text.split()
    edges = [(e[0], e[1]) for e in edge_text.split()]
    return validate_graph(vertices, edges)


CORPUS = {
    "one": graph("v"),
    "delta2": graph("a b"),
    "delta3": graph("a b c"),
    "k2": graph("a b", "ab"),
    "k3": graph("a b c", "ab ac bc"),
    "k4": graph("a b c d", "ab ac ad bc bd cd"),
    "p3": graph("a b c", "ab bc"),
    "p4": graph("a b c d", "ab bc cd"),
    "square": graph("a b c d", "ab bc cd da"),
    "star": graph("a b c z", "za zb zc"),
    "c5": graph("a b c d e", "ab bc cd de ea"),
    "paw": graph("a b c d", "ab ac bc cd"),
}

SQUARE = CORPUS["square"]


def in_generators(group, el):
    """A reference rewrite of el as (exposed name, exponent) factors, read off
    ``group.runs``: each run spelled out k-fold, or raised in place if its
    expression is one factor."""
    out = []
    for expr, k in group.runs(el):
        if k < 0:
            expr, k = tuple((n, -e) for n, e in reversed(expr)), -k
        out.extend(expr * k if len(expr) != 1 else [(expr[0][0], expr[0][1] * k)])
    return tuple(out)
