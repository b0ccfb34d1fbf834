"""Graph groups, their homomorphisms, and the commutation-symbol construction.

``GroupHandle`` wraps a presentation graph together with a chosen generating
set (by default, the vertices themselves) and answers element queries: words
over the graph are multiplied, inverted, canonicalized and compared here.

On top of a handle sits the free commutation-symbol group: words whose letters
are formal symbols ``[g]``, one per group element, where ``[g]`` and ``[h]``
commute exactly when ``g`` and ``h`` commute in the base group.  A letter is
held as (canonical element, exponent).  That group is never materialized;
every computation is localized to the finite commutation graph spanned by the
symbols actually in play.  ``ACGroupHandle`` makes the construction iterable,
so symbol words over symbol words (built by the public ``delta``; no axiom
check needs them) run through the same code path.  Every symbol word reaches
its commutation graph through ``_symbol_graph``, which finds it by the set of
the word's canonical symbols in one bounded cache; a new graph keys and names
each symbol once and orders them by a key of the symbol alone.
``ac_canonical``, ``ac_key`` and ``ac_equals`` all read one canonical form,
computed on the word's own graph.  What derives from a handle alone, such as
the vertex expressions of an obfuscated one, is kept on it, and a graph keeps
its default handle.

Words in generators are multiplied out by one evaluator, ``_evaluate``: it
powers each (element, k) factor by squaring and canonicalizes once.  Homs,
``epsilon`` (a symbol word's letters as they stand) and the structure maps of
``coalgebra``, which are homs into the symbol group, all go through it.
"""

from __future__ import annotations

import functools
import re
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Union

from . import words as W
from .errors import (
    BaseMismatch,
    IdentitySymbolWarning,
    NotAHomomorphism,
    SearchSpaceTooLarge,
    UnknownGenerator,
    WordSyntaxError,
    ZeroExponent,
)
from .graphs import _NAME_RE, Graph, GraphHom, validate_graph, validate_hom
from .words import Word

_EXPRESSION_RADIUS_CAP = 8
_EXPRESSION_STATE_CAP = 200_000


@dataclass(frozen=True)
class GroupHandle:
    """A graph group with a distinguished generating set.

    ``exposed`` lists (name, element) pairs.  The default handle exposes each
    vertex under its own name; an obfuscated handle may expose any generating
    set of non-identity elements, with generation asserted by the caller and
    verified here only by bounded search when an expression is first needed.
    """

    graph: Graph
    exposed: tuple[tuple[str, Word], ...]

    def __hash__(self) -> int:
        # Every symbol word over this handle hashes it, so keep the value.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.graph, self.exposed))
            object.__setattr__(self, "_hash", h)
        return h

    # -- structure ----------------------------------------------------------

    @property
    def is_default(self) -> bool:
        flag = self.__dict__.get("_is_default")
        if flag is None:
            flag = tuple(name for name, _ in self.exposed) == self.graph.vertices and all(
                w.syllables == (W.Syllable(name, 1),) for name, w in self.exposed
            )
            object.__setattr__(self, "_is_default", flag)
        return flag

    def generator_items(self) -> tuple[tuple[str, Word], ...]:
        return self.exposed

    # -- element operations -------------------------------------------------

    def identity(self) -> Word:
        return Word(self.graph, ())

    def canonical(self, el: Word) -> Word:
        return W.canonical_form(el)

    def key(self, el: Word):
        return W.canonical_key(el)

    def text(self, el: Word) -> str:
        return W.word_text(el)

    def multiply(self, a: Word, b: Word) -> Word:
        return W.multiply(a, b)

    def product(self, els: Iterable[Word]) -> Word:
        return W.product(self.graph, els)

    def invert(self, el: Word) -> Word:
        return W.invert(el)

    def power(self, el: Word, k: int) -> Word:
        return W.power(el, k)

    def commutes(self, a: Word, b: Word) -> bool:
        return W.commutes(a, b)

    def sort_key(self, el: Word):
        return W.sort_key(el)

    def parse_element(self, text: str) -> Word:
        return W.parse_word(self.graph, text)

    def runs(self, el: Word) -> tuple:
        """One (expression of v in exposed generators, k) run per syllable v^k."""
        if self.is_default:
            return tuple((((s.gen, 1),), s.exp) for s in el.syllables)
        exprs = self.__dict__.get("_vertex_expressions")
        if exprs is None:
            exprs = _vertex_expressions(self)
            object.__setattr__(self, "_vertex_expressions", exprs)
        return tuple((exprs[s.gen], s.exp) for s in el.syllables)


def raag_of_graph(graph: Graph) -> GroupHandle:
    """The default handle: one exposed generator per vertex, kept on the graph."""
    handle = graph.__dict__.get("_raag")
    if handle is None:
        exposed = tuple((v, Word(graph, (W.Syllable(v, 1),))) for v in graph.vertices)
        handle = GroupHandle(graph, exposed)
        object.__setattr__(graph, "_raag", handle)
    return handle


def handle_with_generators(graph: Graph,
                           generators: Mapping[str, Union[Word, str]]) -> GroupHandle:
    """A handle exposing the given named generating set.

    Generator elements must be non-identity; the caller asserts that they
    generate the whole group.
    """
    exposed = []
    for name in generators:
        if not _NAME_RE.match(name):
            raise WordSyntaxError(f"bad generator name {name!r}")
        el = generators[name]
        if isinstance(el, str):
            el = W.parse_word(graph, el)
        el = W.canonical_form(el)
        if not el.syllables:
            raise ZeroExponent(f"exposed generator {name!r} is the identity")
        exposed.append((name, el))
    if len({n for n, _ in exposed}) != len(exposed):
        raise WordSyntaxError("duplicate exposed generator name")
    return GroupHandle(graph, tuple(exposed))


def _spheres(group, steps):
    """Breadth-first search from the identity: yield the sphere of each radius
    in turn, as a list of (element, key, expression) in discovery order.

    ``steps`` lists (name, element, sign) moves, tried in that order from each
    element of the previous sphere; an element's expression is the sequence of
    (name, sign) moves along the first path that reached it.
    """
    ident = group.identity()
    sphere = [(ident, group.key(ident), ())]
    seen = {sphere[0][1]}
    while sphere:
        yield sphere
        nxt = []
        for el, _, expr in sphere:
            for name, step, sign in steps:
                nel = group.multiply(el, step)
                k = group.key(nel)
                if k not in seen:
                    seen.add(k)
                    nxt.append((nel, k, expr + ((name, sign),)))
        sphere = nxt


def _vertex_expressions(handle: GroupHandle) -> dict[str, tuple[tuple[str, int], ...]]:
    graph = handle.graph
    wanted = {W.canonical_key(Word(graph, (W.Syllable(v, 1),))): v
              for v in graph.vertices}
    found: dict[str, tuple[tuple[str, int], ...]] = {}
    steps = [(name, el, 1) for name, el in handle.exposed]
    steps += [(name, W.invert(el), -1) for name, el in handle.exposed]
    states = 0
    for radius, sphere in enumerate(_spheres(handle, steps)):
        for _, k, expr in sphere:
            v = wanted.get(k)
            if v is not None:
                found[v] = expr
        if len(found) == len(wanted):
            return found
        states += len(sphere)
        if radius == _EXPRESSION_RADIUS_CAP or states > _EXPRESSION_STATE_CAP:
            break
    missing = sorted(set(graph.vertices) - set(found))
    raise SearchSpaceTooLarge(
        f"could not express vertices {missing} in the exposed generators"
    )


# ---------------------------------------------------------------------------
# Evaluating words in generators, and group homomorphisms
# ---------------------------------------------------------------------------

def _evaluate(group, factors: Iterable[tuple[object, int]]):
    """The product of el^k over the (el, k) factors, in group: each factor
    powered by squaring, the product canonicalized once."""
    return group.product([el if k == 1 else group.power(el, k) for el, k in factors])


@dataclass(frozen=True)
class GroupHom:
    """A homomorphism given by images of the source's exposed generators.  Both
    ends may be any handles: a structure map is one into the symbol group."""

    source: GroupHandle
    target: GroupHandle
    images: tuple[tuple[str, Word], ...]
    _img: dict = field(init=False, repr=False, compare=False)
    _memo: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_img", dict(self.images))
        # run expression -> image, seeded with each generator's own
        object.__setattr__(self, "_memo", {((n, 1),): img for n, img in self.images})

    def image_of(self, name: str) -> Word:
        try:
            return self._img[name]
        except KeyError:
            raise UnknownGenerator(f"no exposed generator {name!r}") from None

    def _noncommuting_edge(self) -> tuple[str, str] | None:
        """The first source edge whose vertex images do not commute, if any."""
        graph = self.source.graph
        for u, v in graph.sorted_edges():
            fu, fv = (self.apply(Word(graph, (W.Syllable(x, 1),))) for x in (u, v))
            if not self.target.commutes(fu, fv):
                return u, v
        return None

    def apply(self, el: Word) -> Word:
        runs = self.source.runs(el)
        for expr, _ in runs:
            if expr not in self._memo:
                self._memo[expr] = _evaluate(
                    self.target, ((self.image_of(n), e) for n, e in expr))
        return _evaluate(self.target, ((self._memo[expr], k) for expr, k in runs))

    __call__ = apply


def group_hom(source: GroupHandle, target: GroupHandle,
              images: Mapping[str, Union[Word, str]]) -> GroupHom:
    """Validate generator images against the source's defining relations."""
    names = [name for name, _ in source.generator_items()]
    if set(images) != set(names):
        raise UnknownGenerator("images must cover exactly the exposed generators")
    pairs = []
    for name in names:
        img = images[name]
        if isinstance(img, str):
            img = W.parse_word(target.graph, img)
        pairs.append((name, W.canonical_form(img)))
    f = GroupHom(source, target, tuple(pairs))
    edge = f._noncommuting_edge()
    if edge is not None:
        raise NotAHomomorphism(
            f"images of commuting generators ({edge[0]},{edge[1]}) do not commute",
            witness=edge)
    return f


def a_on_hom(phi: GraphHom) -> GroupHom:
    """The induced homomorphism of graph groups: each vertex to one letter."""
    src = raag_of_graph(phi.source)
    dst = raag_of_graph(phi.target)
    images = tuple(
        (v, Word(dst.graph, (W.Syllable(phi(v), 1),))) for v in phi.source.vertices
    )
    return GroupHom(src, dst, images)


# ---------------------------------------------------------------------------
# Commutation-symbol words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ACWord:
    """A word in commutation symbols over a base group handle: each letter is
    (canonical base element, exponent), the element standing for its symbol.
    Canonical elements are a precondition, which ``ac_word`` and
    ``parse_ac_word`` establish and every other operation here keeps.

    Structural equality is syntactic; group equality is ``ac_equals``.
    """

    base: object
    letters: tuple[tuple[object, int], ...]


@dataclass(frozen=True)
class ACGroupHandle:
    """The commutation-symbol group over a base handle, as a handle itself.

    Elements are ``ACWord`` values whose ``base`` is the wrapped handle.
    """

    base: object

    def identity(self) -> ACWord:
        return ACWord(self.base, ())

    def canonical(self, el: ACWord) -> ACWord:
        return ac_canonical(el)

    def key(self, el: ACWord):
        return ac_key(el)

    def text(self, el: ACWord) -> str:
        return ac_text(el)

    def multiply(self, a: ACWord, b: ACWord) -> ACWord:
        return ac_concat(a, b)

    def product(self, els: Iterable[ACWord]) -> ACWord:
        return ac_concat(self.identity(), *els)

    def invert(self, el: ACWord) -> ACWord:
        return ac_invert(el)

    def power(self, el: ACWord, k: int) -> ACWord:
        return ac_power(el, k)

    def commutes(self, a: ACWord, b: ACWord) -> bool:
        return ac_equals(ac_concat(a, b), ac_concat(b, a))


def _normalize_letters(letters: Iterable[tuple[object, int]]) -> tuple:
    out: list[tuple[object, int]] = []
    for el, exp in letters:
        if exp == 0:
            continue
        if out and out[-1][0] == el:
            merged = out[-1][1] + exp
            if merged == 0:
                out.pop()
            else:
                out[-1] = (el, merged)
        else:
            out.append((el, exp))
    return tuple(out)


def ac_word(base, letters: Iterable[tuple[object, int]]) -> ACWord:
    """Build a symbol word from (element, exponent) pairs.

    Elements are canonicalized; a zero exponent is rejected; using the group
    identity as a symbol is legal but flagged with a warning.
    """
    prepared = []
    for el, exp in letters:
        if exp == 0:
            raise ZeroExponent("zero exponent in a symbol word")
        canon = base.canonical(el)
        if canon == base.identity():
            warnings.warn("symbol word uses the identity as a symbol",
                          IdentitySymbolWarning, stacklevel=2)
        prepared.append((canon, exp))
    return ACWord(base, _normalize_letters(prepared))


def ac_concat(a: ACWord, *rest: ACWord) -> ACWord:
    """The product a b ..., freely reduced once."""
    letters = list(a.letters)
    for b in rest:
        if a.base != b.base:
            raise BaseMismatch("symbol words live over different bases")
        letters += b.letters
    return ACWord(a.base, _normalize_letters(letters))


def ac_invert(a: ACWord) -> ACWord:
    flipped = tuple((el, -exp) for el, exp in reversed(a.letters))
    return ACWord(a.base, flipped)


def ac_power(a: ACWord, k: int) -> ACWord:
    """a^k, freely reduced, by repeated squaring (see ``words._power``)."""
    if k == 0:
        return ACWord(a.base, ())
    base = a.letters if k > 0 else ac_invert(a).letters
    return ACWord(a.base, W._power(base, abs(k), _normalize_letters))


def ac_map_symbols(a: ACWord, fn: Callable, new_base) -> ACWord:
    """Apply fn to every symbol's element, keeping outer exponents."""
    letters = [(new_base.canonical(fn(el)), exp) for el, exp in a.letters]
    return ACWord(new_base, _normalize_letters(letters))


# ---------------------------------------------------------------------------
# Commutation graphs and equality
# ---------------------------------------------------------------------------

def _symbol_graph(base, elements) -> tuple[Graph, dict, list[str]]:
    """The commutation graph on the distinct elements, a map from its vertex
    names to (element, key), and the vertex name of each element in turn.
    The elements must be canonical, as a symbol word's letters are (``ac_word``
    and ``parse_ac_word`` make them so): the graph is found by the set of
    them, so a cached one costs no key, no canonical form and no sort.  It
    lists its vertices in symbol order (see ``_named_commutation_graph``),
    which is name order unless two texts share a plain name."""
    graph, by_name, name_of = _named_commutation_graph(base, frozenset(elements))
    return graph, by_name, [name_of[el] for el in elements]


# Localized commutation graphs, keyed by the base and the set of canonical
# elements on their vertices: symbol words over the same symbols share one.
_CGRAPH_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=_CGRAPH_CACHE_SIZE)
def _named_commutation_graph(base, elements: frozenset) -> tuple[Graph, dict, dict]:
    """Vertices are named after the elements' texts, taken in text order:
    characters outside ``[A-Za-z0-9_]`` become '_' (the plain name), the empty
    text becomes 'e', and a name already taken gets '_' appended until it is
    new.  Canonical forms follow vertex order, and a suffix depends on which
    other symbols are present, so the graph lists its vertices by a key of the
    symbol alone, (plain name, text, key), rather than by name.  Returns the
    graph, a map from names to (element, key), and the name of each element."""
    items = sorted(((base.text(c), base.key(c), c) for c in elements),
                   key=lambda t: (t[0], repr(t[1])))
    plain = [re.sub(r"[^A-Za-z0-9_]", "_", text) or "e" for text, _, _ in items]
    names: list[str] = []
    for name in plain:
        while name in names:
            name += "_"
        names.append(name)
    edges = [(names[i], names[j]) for i in range(len(names))
             for j in range(i + 1, len(names)) if base.commutes(items[i][2], items[j][2])]
    order = sorted(range(len(names)), key=plain.__getitem__)
    graph = Graph(tuple(names[i] for i in order), validate_graph(names, edges).edges)
    return (graph, {name: (c, k) for name, (_, k, c) in zip(names, items)},
            {c: name for name, (_, _, c) in zip(names, items)})


def commutation_graph(base, elements) -> tuple[Graph, dict]:
    """The commutation graph on the given elements, deduplicated, with its
    vertices in name order.

    Returns the graph together with a labeling from vertex names back to the
    canonical elements.
    """
    graph, by_name, _ = _named_commutation_graph(
        base, frozenset(base.canonical(el) for el in elements))
    return (Graph(tuple(sorted(graph.vertices)), graph.edges),
            {name: el for name, (el, _) in by_name.items()})


def _canonical_letters(a: ACWord) -> tuple:
    """The canonical letters of a, as ((element, key), exponent), computed on
    the word's own symbol graph."""
    if not a.letters:
        return ()
    graph, by_name, names = _symbol_graph(a.base, [el for el, _ in a.letters])
    canon = W.canonical_form(Word(graph, tuple(
        W.Syllable(name, exp) for name, (_, exp) in zip(names, a.letters))))
    return tuple((by_name[s.gen], s.exp) for s in canon.syllables)


def ac_equals(a: ACWord, b: ACWord) -> bool:
    """Group equality of symbol words: their canonical letters agree, as
    (element, key) pairs, exactly when their keys do."""
    if a.base != b.base:
        raise BaseMismatch("symbol words live over different bases")
    return _canonical_letters(a) == _canonical_letters(b)


def ac_canonical(a: ACWord) -> ACWord:
    """A canonical representative, computed on the word's own symbol graph."""
    if not a.letters:
        return a
    return ACWord(a.base, tuple((el, exp) for (el, _), exp in _canonical_letters(a)))


def ac_key(a: ACWord) -> tuple:
    return tuple((k, exp) for (_, k), exp in _canonical_letters(a))


# ---------------------------------------------------------------------------
# The comonad operations
# ---------------------------------------------------------------------------

def epsilon(a: ACWord):
    """Multiply the symbols out in the base group."""
    return _evaluate(a.base, a.letters)


def delta(a: ACWord) -> ACWord:
    """Rewrap every symbol: [g] becomes [[g]], exponents unchanged."""
    outer = ACGroupHandle(a.base)
    return ACWord(outer, tuple((ACWord(a.base, ((el, 1),)), exp) for el, exp in a.letters))


def ac_on_hom(f: GroupHom, a: ACWord) -> ACWord:
    """The induced map on symbol words: each symbol [g] to [f(g)]."""
    if a.base != f.source:
        raise BaseMismatch("word base does not match the hom's source")
    return ac_map_symbols(a, f.apply, f.target)


def eta(graph: Graph) -> GraphHom:
    """Embed a graph into the commutation graph of its one-letter generators."""
    gens = [Word(graph, (W.Syllable(v, 1),)) for v in graph.vertices]
    cg, _, names = _symbol_graph(raag_of_graph(graph), gens)
    return validate_hom(graph, cg, dict(zip(graph.vertices, names)))


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def ac_text(a: ACWord) -> str:
    """Render a symbol word; the identity renders as the empty string."""
    base = a.base
    parts = []
    for el, exp in a.letters:
        body = f"[{base.text(el)}]"
        parts.append(body if exp == 1 else f"{body}^{exp}")
    return " ".join(parts)


def parse_ac_word(base, text: str) -> ACWord:
    """Parse bracketed symbol-word text like ``[a b^2]^-1 [c]``."""
    if isinstance(base, ACGroupHandle):
        raise WordSyntaxError("nested symbol words have no text format")
    letters: list[tuple[Word, int]] = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        if text[pos] != "[":
            raise WordSyntaxError(f"expected '[' at position {pos}")
        close = text.find("]", pos)
        if close < 0:
            raise WordSyntaxError("unbalanced '['")
        inner = text[pos + 1:close]
        pos = close + 1
        exp = 1
        if pos < n and text[pos] == "^":
            m = re.match(W._EXPONENT, text[pos:])
            if not m:
                raise WordSyntaxError(f"bad exponent at position {pos}")
            exp = int(m.group(1))
            pos += m.end()
        if pos < n and not text[pos].isspace():
            raise WordSyntaxError(f"unexpected character at position {pos}")
        letters.append((base.parse_element(inner), exp))
    return ac_word(base, letters)
