"""Words in a graph group, with a canonical normal form.

Elements of the group presented by a graph (one generator per vertex, with two
generators commuting exactly when their vertices are adjacent) are carried
around as syllable words: sequences of (generator, nonzero exponent) pairs over
the graph's vertices.  ``canonical_form`` picks one distinguished representative
per group element, so words are equal in the group iff their canonical forms
are syllable-wise identical.

The canonical representative comes from one left-to-right pass and one
layering pass.  The first pass keeps, per generator, the positions of its
surviving syllables; a new syllable merges into its generator's last survivor
when every survivor after that one commutes with it, and a zero exponent
drops the survivor.  The result is fully reduced, and reduced words for one
element differ only by swapping commuting neighbours.  The second pass gives
each syllable depth 1 + the largest depth among earlier syllables that share
its generator or do not commute with it.  Syllables of equal depth form a
block, emitted in order of depth with its syllables sorted by vertex order.
These are the left-greedy central blocks (the Cartier-Foata normal form): a
syllable of depth i+1 can be shuffled to the front once blocks 1..i are
removed, and not before, since its deepest blocker lies in block i.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import (
    GraphMismatch,
    SearchSpaceTooLarge,
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


# An exponent, as every parser reads it: ASCII digits only (``\d`` also
# matches other scripts' digits), and few enough of them that int() stays far
# inside its string-length limit.
_MAX_EXPONENT_DIGITS = 100
_EXPONENT = rf"\^(-?[0-9]{{1,{_MAX_EXPONENT_DIGITS}}})(?![0-9])"
_TOKEN_RE = re.compile(rf"([A-Za-z0-9_]+)(?:{_EXPONENT})?\Z")

# The most syllables (or symbol-word letters) a power may build: squaring keeps
# a short result's cost logarithmic in |k|, and this caps a long one.
_MAX_POWER_SYLLABLES = 100_000


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


def _layers(w: Word) -> list[list[tuple[int, int]]]:
    """The Foata layers of w's reduced word, as (vertex index, exponent)."""
    index, adj = w.graph.vertex_index, w.graph.adjacency
    out: list[tuple[int, int] | None] = []
    # Per generator, the positions in out of its surviving syllables.
    alive: dict[int, list[int]] = {}
    for s in w.syllables:
        g = index[s.gen]
        row = adj[g]
        mine = alive.get(g)
        if mine and all(row[h] or not at or at[-1] < mine[-1]
                        for h, at in alive.items()):
            p = mine[-1]
            merged = out[p][1] + s.exp
            if merged:
                out[p] = (g, merged)
            else:
                out[p] = None
                mine.pop()
        else:
            alive.setdefault(g, []).append(len(out))
            out.append((g, s.exp))
    layers: list[list[tuple[int, int]]] = []
    # Per generator, the depth of its latest (so deepest) syllable so far.
    depth: dict[int, int] = {}
    for s in out:
        if s is None:
            continue
        g = s[0]
        row = adj[g]
        d = max([dh for h, dh in depth.items() if h == g or not row[h]], default=0)
        depth[g] = d + 1
        if d == len(layers):
            layers.append([])
        layers[d].append(s)
    for layer in layers:
        layer.sort()
    return layers


def _canonical_indexed(w: Word) -> list[tuple[int, int]]:
    return [s for layer in _layers(w) for s in layer]


def canonical_form(w: Word) -> Word:
    """The canonical representative of w's group element."""
    names = w.graph.vertices
    return Word(w.graph, tuple(Syllable(names[g], e)
                               for g, e in _canonical_indexed(w)))


def canonical_key(w: Word) -> tuple[tuple[int, int], ...]:
    """A hashable key identifying w's group element (canonical form, indexed)."""
    return tuple(_canonical_indexed(w))


def central_form(w: Word) -> CentralForm:
    """The left-greedy block decomposition of the canonical form."""
    names = w.graph.vertices
    return CentralForm(w.graph, tuple(
        tuple(Syllable(names[g], e) for g, e in layer)
        for layer in _layers(w)))


def _require_same_graph(w1: Word, w2: Word) -> None:
    if w1.graph != w2.graph:
        raise GraphMismatch("words live over different graphs")


def equals(w1: Word, w2: Word) -> bool:
    """Group equality, decided by comparing canonical forms."""
    _require_same_graph(w1, w2)
    return _canonical_indexed(w1) == _canonical_indexed(w2)


def is_identity(w: Word) -> bool:
    return not _canonical_indexed(w)


def multiply(w1: Word, w2: Word) -> Word:
    _require_same_graph(w1, w2)
    return canonical_form(Word(w1.graph, w1.syllables + w2.syllables))


def product(graph: Graph, words: Iterable[Word]) -> Word:
    """The product of words over graph, canonicalized once."""
    sylls: list[Syllable] = []
    for w in words:
        if w.graph != graph:
            raise GraphMismatch("words live over different graphs")
        sylls += w.syllables
    return canonical_form(Word(graph, tuple(sylls)))


def invert(w: Word) -> Word:
    flipped = tuple(Syllable(s.gen, -s.exp) for s in reversed(w.syllables))
    return canonical_form(Word(w.graph, flipped))


def _power(base: tuple, k: int, reduce) -> tuple:
    """reduce(base * k) for k > 0, by repeated squaring: one reduce per binary
    digit of k.  Raises SearchSpaceTooLarge rather than build more than
    ``_MAX_POWER_SYLLABLES`` entries."""
    acc = reduce(base)
    for bit in bin(k)[3:]:
        if 2 * len(acc) + len(base) > _MAX_POWER_SYLLABLES:
            raise SearchSpaceTooLarge(
                f"a power would build more than {_MAX_POWER_SYLLABLES} syllables")
        acc = reduce(acc * 2 + (base if bit == "1" else ()))
    return acc


def power(w: Word, k: int) -> Word:
    """w^k, canonical, by repeated squaring (see ``_power``)."""
    if k == 0:
        return Word(w.graph, ())
    base = w.syllables if k > 0 else tuple(
        Syllable(s.gen, -s.exp) for s in reversed(w.syllables))
    return Word(w.graph, _power(base, abs(k),
                                lambda sylls: canonical_form(Word(w.graph, sylls)).syllables))


def commutes(g: Word, h: Word) -> bool:
    """True iff gh and hg have the same canonical form."""
    _require_same_graph(g, h)
    return (_canonical_indexed(Word(g.graph, g.syllables + h.syllables))
            == _canonical_indexed(Word(g.graph, h.syllables + g.syllables)))


def support(w: Word) -> set[str]:
    """Generators appearing in the canonical form."""
    names = w.graph.vertices
    return {names[g] for g, _ in _canonical_indexed(w)}


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
    canon = _canonical_indexed(w)
    letters = sum(abs(e) for _, e in canon)
    return (letters, tuple((g, 0 if e > 0 else 1, abs(e)) for g, e in canon))
