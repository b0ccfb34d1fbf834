"""Shared small-graph corpus and helpers for the test suite."""

from hypothesis import strategies as st

from raagkit import (
    ACWord,
    apply_structure,
    canonical_coalgebra,
    canonical_form,
    handle_with_generators,
    make_coalgebra,
    parse_word,
    raag_of_graph,
    validate_graph,
)
from raagkit.functors import _normalize_letters


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


def disguised_handle(g):
    """g's group with a disguised generating set: the first vertex exposed as
    itself times the last (inverted on a one-vertex graph)."""
    first, last = g.vertices[0], g.vertices[-1]
    generators = {v: v for v in g.vertices}
    generators[first] = f"{first}^-1" if first == last else f"{first} {last}"
    return handle_with_generators(g, generators)


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


@st.composite
def structure_maps(draw):
    """A structure map on a corpus graph's default or disguised handle: the
    canonical structure carried over, with some generators' images replaced
    by words in a few symbols, the identity among them."""
    g = CORPUS[draw(st.sampled_from(sorted(CORPUS)))]
    handle = disguised_handle(g) if draw(st.booleans()) else raag_of_graph(g)
    canon = canonical_coalgebra(g)
    vs = g.vertices
    pool = [""] + [t for v in vs for t in (v, f"{v}^2")] + [
        f"{u} {v}" for u in vs for v in vs if u != v]
    symbols = [canonical_form(parse_word(g, t)) for t in pool]
    letter = st.tuples(st.sampled_from(symbols), st.sampled_from((1, -1, 2)))
    images = {}
    for name, el in handle.generator_items():
        letters = apply_structure(canon, el).letters
        if draw(st.integers(0, 2)) == 0:
            letters = draw(st.lists(letter, min_size=1, max_size=3))
        images[name] = ACWord(handle, _normalize_letters(letters))
    return make_coalgebra(handle, images)
