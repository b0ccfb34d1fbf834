"""Words in a graph group, with a canonical normal form.

Elements of the group presented by a graph (one generator per vertex, with two
generators commuting exactly when their vertices are adjacent) are carried
around as syllable words: sequences of (generator, nonzero exponent) pairs over
the graph's vertices.  ``canonical_form`` picks one distinguished representative
per group element, so words are equal in the group iff their canonical forms
are syllable-wise identical.

The canonical representative is built in two stages.  First the word is fully
reduced: whenever two syllables share a generator and everything strictly
between commutes with it, they are merged (dropping zero exponents), until no
such move remains.  Then the reduced word is cut into left-greedy central
blocks, each block the maximal front set of pairwise-commuting syllables that
can be shuffled to the start of what remains; blocks are emitted in order with
their syllables sorted by vertex order.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import (
    GraphMismatch,
    UnknownGenerator,
    UnknownVertex,
    WordSyntaxError,
    ZeroExponent,
)
from .graphs import Graph


class Syllable(NamedTuple):
    gen: str
    exp: int


@dataclass(frozen=True)
class Word:
    """A (not necessarily canonical) syllable word over a graph's vertices."""

    graph: Graph
    syllables: tuple[Syllable, ...]

    def __len__(self) -> int:
        """Total letter length: the sum of absolute exponents."""
        return sum(abs(s.exp) for s in self.syllables)

    def is_identity_word(self) -> bool:
        return not self.syllables


@dataclass(frozen=True)
class CentralForm:
    """The block decomposition of a canonical word."""

    graph: Graph
    blocks: tuple[tuple[Syllable, ...], ...]


# Per-graph working context: vertex indices plus a dense reflexive adjacency
# table.  Every canonical-form call needs it, and graphs are immutable.
_CTX_CACHE_SIZE = 50_000


@functools.lru_cache(maxsize=_CTX_CACHE_SIZE)
def _ctx(graph: Graph) -> tuple[dict[str, int], list[list[bool]]]:
    index = graph.vertex_index
    n = len(graph.vertices)
    adj = [[False] * n for _ in range(n)]
    for i in range(n):
        adj[i][i] = True
    for u, v in graph.edges:
        i, j = index[u], index[v]
        adj[i][j] = True
        adj[j][i] = True
    return index, adj


# An exponent, as every parser reads it: ASCII digits only (``\d`` also
# matches other scripts' digits), and few enough of them that int() stays far
# inside its string-length limit.
_MAX_EXPONENT_DIGITS = 100
_EXPONENT = rf"\^(-?[0-9]{{1,{_MAX_EXPONENT_DIGITS}}})(?![0-9])"
_TOKEN_RE = re.compile(rf"([A-Za-z0-9_]+)(?:{_EXPONENT})?\Z")


def parse_word(graph: Graph, text: str) -> Word:
    """Parse whitespace-separated ``gen`` / ``gen^k`` tokens; '' is the identity."""
    sylls: list[Syllable] = []
    for token in text.split():
        m = _TOKEN_RE.match(token)
        if not m:
            raise WordSyntaxError(f"bad token {token!r}")
        gen, exp_text = m.group(1), m.group(2)
        if not graph.has_vertex(gen):
            raise UnknownGenerator(f"unknown generator {gen!r}")
        exp = 1 if exp_text is None else int(exp_text)
        if exp == 0:
            raise ZeroExponent(f"zero exponent in {token!r}")
        sylls.append(Syllable(gen, exp))
    return Word(graph, tuple(sylls))


def word_text(w: Word) -> str:
    """Render a word; the identity renders as the empty string."""
    return " ".join(s.gen if s.exp == 1 else f"{s.gen}^{s.exp}" for s in w.syllables)


def word_from_pairs(graph: Graph, pairs: Iterable[tuple[str, int]]) -> Word:
    sylls = []
    for gen, exp in pairs:
        if not graph.has_vertex(gen):
            raise UnknownGenerator(f"unknown generator {gen!r}")
        if exp == 0:
            raise ZeroExponent(f"zero exponent on {gen!r}")
        sylls.append(Syllable(gen, exp))
    return Word(graph, tuple(sylls))


def _reduce(adj: list[list[bool]], sylls: list[tuple[int, int]]) -> list[tuple[int, int]]:
    # Merge adjacent equal-generator syllables first, then run the long-range
    # merge to a fixpoint.  Restarting after each merge keeps the logic simple;
    # words at desk scale are short.
    out: list[tuple[int, int]] = []
    for g, e in sylls:
        if out and out[-1][0] == g:
            merged = out[-1][1] + e
            if merged == 0:
                out.pop()
            else:
                out[-1] = (g, merged)
        else:
            out.append((g, e))
    changed = True
    while changed:
        changed = False
        for i in range(len(out)):
            g = out[i][0]
            row = adj[g]
            for j in range(i + 1, len(out)):
                g2 = out[j][0]
                if g2 == g:
                    merged = out[i][1] + out[j][1]
                    del out[j]
                    if merged == 0:
                        del out[i]
                    else:
                        out[i] = (g, merged)
                    changed = True
                    break
                if not row[g2]:
                    break
            if changed:
                break
    return out


def _blocks(adj: list[list[bool]], sylls: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    blocks: list[list[tuple[int, int]]] = []
    rem = sylls
    while rem:
        block: list[tuple[int, int]] = []
        rest: list[tuple[int, int]] = []
        for g, e in rem:
            movable = all(adj[g2][g] for g2, _ in rest)
            clique = all(adj[g2][g] for g2, _ in block)
            if movable and clique:
                block.append((g, e))
            else:
                rest.append((g, e))
        block.sort(key=lambda s: s[0])
        blocks.append(block)
        rem = rest
    return blocks


def _canonical_indexed(graph: Graph, w: Word) -> list[tuple[int, int]]:
    index, adj = _ctx(graph)
    sylls = [(index[s.gen], s.exp) for s in w.syllables]
    reduced = _reduce(adj, sylls)
    return [s for b in _blocks(adj, reduced) for s in b]


def canonical_form(w: Word) -> Word:
    """The canonical representative of w's group element."""
    names = w.graph.vertices
    return Word(w.graph, tuple(Syllable(names[g], e)
                               for g, e in _canonical_indexed(w.graph, w)))


def canonical_key(w: Word) -> tuple[tuple[int, int], ...]:
    """A hashable key identifying w's group element (canonical form, indexed)."""
    return tuple(_canonical_indexed(w.graph, w))


def central_form(w: Word) -> CentralForm:
    """The left-greedy block decomposition of the canonical form."""
    index, adj = _ctx(w.graph)
    sylls = [(index[s.gen], s.exp) for s in w.syllables]
    names = w.graph.vertices
    blocks = tuple(
        tuple(Syllable(names[g], e) for g, e in block)
        for block in _blocks(adj, _reduce(adj, sylls))
    )
    return CentralForm(w.graph, blocks)


def _require_same_graph(w1: Word, w2: Word) -> None:
    if w1.graph != w2.graph:
        raise GraphMismatch("words live over different graphs")


def equals(w1: Word, w2: Word) -> bool:
    """Group equality, decided by comparing canonical forms."""
    _require_same_graph(w1, w2)
    return _canonical_indexed(w1.graph, w1) == _canonical_indexed(w2.graph, w2)


def is_identity(w: Word) -> bool:
    return not _canonical_indexed(w.graph, w)


def multiply(w1: Word, w2: Word) -> Word:
    _require_same_graph(w1, w2)
    return canonical_form(Word(w1.graph, w1.syllables + w2.syllables))


def invert(w: Word) -> Word:
    flipped = tuple(Syllable(s.gen, -s.exp) for s in reversed(w.syllables))
    return canonical_form(Word(w.graph, flipped))


def power(w: Word, k: int) -> Word:
    if k == 0:
        return Word(w.graph, ())
    base = w.syllables if k > 0 else tuple(
        Syllable(s.gen, -s.exp) for s in reversed(w.syllables))
    return canonical_form(Word(w.graph, base * abs(k)))


def commutes(g: Word, h: Word) -> bool:
    """True iff gh(hg)^-1 is the identity."""
    _require_same_graph(g, h)
    return is_identity(multiply(multiply(g, h), invert(multiply(h, g))))


def support(w: Word) -> set[str]:
    """Generators appearing in the canonical form."""
    names = w.graph.vertices
    return {names[g] for g, _ in _canonical_indexed(w.graph, w)}


def in_special_subgroup(w: Word, vertices: Iterable[str]) -> bool:
    """Membership in the subgroup generated by a vertex subset."""
    allowed = set(vertices)
    for v in allowed:
        if not w.graph.has_vertex(v):
            raise UnknownVertex(f"no vertex {v!r}")
    return support(w) <= allowed


def sort_key(w: Word) -> tuple:
    """Deterministic element order: canonical length, then syllable-wise
    (vertex order, sign, magnitude)."""
    canon = _canonical_indexed(w.graph, w)
    letters = sum(abs(e) for _, e in canon)
    return (letters, tuple((g, 0 if e > 0 else 1, abs(e)) for g, e in canon))
