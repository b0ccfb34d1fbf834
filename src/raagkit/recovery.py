"""Recovering the presentation graph from a structured group.

Vertices are found among enumerated elements as exactly those g whose image
under the structure map is the single symbol [g], by the fixed-symbol test
that also decides coassociativity (``coalgebra._fixes_symbol``); how many to
look for is the rank of the abelianization, computed from a finite
presentation via an exact integer Smith normal form.  Adjacency between
recovered vertices is commuting.  A search that runs out of budget raises or
returns accordingly: exhaustion is a statement about the budget, never about
nonexistence.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator

from . import words as W
from .coalgebra import CoalgebraMap, _fixes_symbol, check_coalgebra
from .errors import (
    BudgetExhausted,
    UnknownGenerator,
    WordSyntaxError,
)
from .functors import (
    ACWord,
    _normalize_letters,
    _spheres,
    ac_key,
    ac_text,
    commutation_graph,
)
from .graphs import Graph, validate_graph
from .words import Word

IntegerMatrix = "list[list[int]]"


# ---------------------------------------------------------------------------
# Presentations and integer linear algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FinitePresentation:
    """Generators and relators; relators are free words over the generators."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]


def presentation(generators: Iterable[str], relators: Iterable) -> FinitePresentation:
    gens = tuple(generators)
    if len(set(gens)) != len(gens):
        raise WordSyntaxError("duplicate generator in presentation")
    free = validate_graph(gens, [])
    rels = []
    for r in relators:
        if isinstance(r, str):
            r = W.parse_word(free, r)
        else:
            for s in r.syllables:
                if s.gen not in gens:
                    raise UnknownGenerator(f"relator uses unknown generator {s.gen!r}")
        rels.append(r)
    return FinitePresentation(gens, tuple(rels))


def exponent_matrix(p: FinitePresentation) -> list[list[int]]:
    """Relators-by-generators matrix of exponent sums."""
    cols = {g: j for j, g in enumerate(p.generators)}
    out = []
    for r in p.relators:
        row = [0] * len(p.generators)
        for s in r.syllables:
            row[cols[s.gen]] += s.exp
        out.append(row)
    return out


def validate_matrix(matrix) -> list[list[int]]:
    rows = [list(row) for row in matrix]
    if rows:
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise ValueError("matrix rows have unequal lengths")
            for v in row:
                if not isinstance(v, int):
                    raise ValueError(f"matrix entry {v!r} is not an integer")
    return rows


def smith_normal_form(matrix) -> tuple[tuple[int, ...], int]:
    """Exact integer diagonalization.

    Returns the positive invariant factors (d1 | d2 | ...) and the rank.  The
    pivot is always a minimal-magnitude nonzero entry; rows and columns are
    reduced alternately, and any entry not divisible by the pivot gets its row
    folded into the pivot row, which strictly shrinks the pivot and so
    terminates.
    """
    a = validate_matrix(matrix)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    invariants: list[int] = []
    t = 0
    while True:
        best = None
        pi = pj = -1
        for i in range(t, rows):
            for j in range(t, cols):
                v = a[i][j]
                if v != 0 and (best is None or abs(v) < best):
                    best = abs(v)
                    pi, pj = i, j
        if best is None:
            break
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        while True:
            moved = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        for j in range(t, cols):
                            a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        moved = True
                        break
            if moved:
                continue
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        for i in range(t, rows):
                            a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        moved = True
                        break
            if moved:
                continue
            ok = True
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % a[t][t]:
                        for jj in range(t, cols):
                            a[t][jj] += a[i][jj]
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                break
        invariants.append(abs(a[t][t]))
        t += 1
    return tuple(invariants), len(invariants)


def abelianization_rank(p: FinitePresentation) -> int:
    """Free rank of the abelianized group: generators minus matrix rank."""
    _, rank = smith_normal_form(exponent_matrix(p))
    return len(p.generators) - rank


def commutator_presentation(graph: Graph) -> FinitePresentation:
    """The defining presentation of a graph group: one commutator per edge."""
    free = validate_graph(graph.vertices, [])
    rels = tuple(
        Word(free, (W.Syllable(u, 1), W.Syllable(v, 1),
                    W.Syllable(u, -1), W.Syllable(v, -1)))
        for u, v in graph.sorted_edges()
    )
    return FinitePresentation(graph.vertices, rels)


# ---------------------------------------------------------------------------
# Element enumeration
# ---------------------------------------------------------------------------

def _elements_with_depth(group, max_length: int) -> Iterator[tuple[object, int]]:
    steps = [step for name, el in group.generator_items()
             for step in ((name, el, 1), (name, group.invert(el), -1))]
    for depth, sphere in enumerate(_spheres(group, steps)):
        for el in sorted((el for el, _, _ in sphere), key=group.sort_key):
            yield el, depth
        if depth >= max_length:
            return


def enumerate_elements(group, max_length: int) -> Iterator:
    """Distinct elements writable as at most ``max_length`` exposed-generator
    factors, identity first, then per length in deterministic order."""
    for el, _ in _elements_with_depth(group, max_length):
        yield el


# ---------------------------------------------------------------------------
# Vertex recovery
# ---------------------------------------------------------------------------

def find_vertices(c: CoalgebraMap, rank: int, max_length: int) -> list:
    """The first ``rank`` non-identity elements fixed as single symbols by the
    structure map.  Raises BudgetExhausted if the ball runs out first."""
    found = []
    for el, depth in _elements_with_depth(c.group, max_length):
        if depth == 0:
            continue
        if _fixes_symbol(c, el):
            found.append(el)
            if len(found) == rank:
                return found
    raise BudgetExhausted(
        f"found {len(found)} of {rank} vertices within length {max_length}",
        found=len(found), wanted=rank,
    )


def recover_graph(c: CoalgebraMap, rank: int, max_length: int) -> tuple[Graph, dict]:
    """Rebuild the presentation graph: the commutation graph of the recovered
    vertices, with a labeling from vertex names to group elements."""
    return commutation_graph(c.group, find_vertices(c, rank, max_length))


# ---------------------------------------------------------------------------
# Coalgebra search
# ---------------------------------------------------------------------------

def search_coalgebra(p: FinitePresentation, wp, symbol_budget: int,
                     image_length_budget: int) -> CoalgebraMap | None:
    """Look for a structure map on the group presented by p, within budgets.

    ``wp`` answers word-problem queries for that group and must expose the
    presentation's generators.  Candidate images use symbols from the ball of
    radius ``symbol_budget`` and at most ``image_length_budget`` letters, with
    exponent magnitudes bounded by the same figure; assignments are tried in
    increasing total size and the first one passing the relator and coalgebra
    checks wins.  None means the budget was exhausted, nothing more.
    """
    exposed = dict(wp.generator_items())
    if set(p.generators) != set(exposed):
        raise UnknownGenerator(
            "presentation generators do not match the handle's exposed set")

    pool = list(_elements_with_depth(wp, symbol_budget))
    max_exp = image_length_budget
    letters = []
    for el, depth in pool:
        for mag in range(1, max_exp + 1):
            for exp in (mag, -mag):
                value = wp.power(el, exp)
                letters.append((el, exp, depth, value, wp.key(value)))

    by_key: dict = {}
    for entry in letters:
        by_key.setdefault(entry[4], []).append(entry)

    identity = ACWord(wp, ())

    def candidates_for(target) -> list[tuple[int, str, ACWord]]:
        # All images with epsilon(image) == target, deduplicated by canonical
        # key, listed as (size, text, word).
        target_key = wp.key(target)
        out: dict = {}

        def note(seq):
            word = ACWord(wp, _normalize_letters((el, exp) for el, exp, _, _, _ in seq))
            size = sum(abs(exp) * (1 + depth) for _, exp, depth, _, _ in seq)
            key = ac_key(word)
            text = ac_text(word)
            prev = out.get(key)
            if prev is None or (size, text) < (prev[0], prev[1]):
                out[key] = (size, text, word)

        def extend(prefix, acc, length):
            if length == image_length_budget:
                return
            if length + 1 <= image_length_budget:
                # close the word now: last letter must supply acc^-1 * target
                need = wp.multiply(wp.invert(acc), target)
                for entry in by_key.get(wp.key(need), ()):  # el, exp, depth, value, key
                    note(prefix + [entry])
            for entry in letters:
                extend(prefix + [entry], wp.multiply(acc, entry[3]), length + 1)

        if wp.key(wp.identity()) == target_key:
            out[()] = (0, "", identity)
        extend([], wp.identity(), 0)
        return sorted(out.values(), key=lambda t: (t[0], t[1]))

    names = list(p.generators)
    cand = {name: candidates_for(exposed[name]) for name in names}
    if any(not cand[name] for name in names):
        return None

    mins = [min(size for size, _, _ in cand[n]) for n in names]
    maxs = [max(size for size, _, _ in cand[n]) for n in names]
    suffix_min = [0] * (len(names) + 1)
    for i in range(len(names) - 1, -1, -1):
        suffix_min[i] = suffix_min[i + 1] + mins[i]

    def try_assignment(images: dict) -> CoalgebraMap | None:
        c = CoalgebraMap(wp, tuple((n, images[n]) for n in names))
        verdict = check_coalgebra(c, relators=p.relators)
        return c if verdict.ok else None

    for total in range(sum(mins), sum(maxs) + 1):
        chosen: dict = {}

        def assign(i: int, budget: int) -> CoalgebraMap | None:
            if i == len(names):
                return try_assignment(chosen) if budget == 0 else None
            name = names[i]
            for size, _, word in cand[name]:
                if size > budget - suffix_min[i + 1]:
                    break
                chosen[name] = word
                got = assign(i + 1, budget - size)
                if got is not None:
                    return got
                del chosen[name]
            return None

        got = assign(0, total)
        if got is not None:
            return got
    return None


# ---------------------------------------------------------------------------
# Finite groups by multiplication table
# ---------------------------------------------------------------------------

class FiniteTableGroup:
    """A finite group as a multiplication table, usable wherever a word-problem
    handle is expected.  Elements are row indices."""

    def __init__(self, names: list[str], table: list[list[int]],
                 generators: list[tuple[str, int]]):
        self.names = list(names)
        self.table = [list(row) for row in table]
        n = len(self.names)
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise ValueError("table must be square over the element list")
        ident = None
        for e in range(n):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(n)):
                ident = e
                break
        if ident is None:
            raise ValueError("table has no identity element")
        self._identity = ident
        self._inverse = [None] * n
        for x in range(n):
            for y in range(n):
                if self.table[x][y] == ident:
                    self._inverse[x] = y
        if any(v is None for v in self._inverse):
            raise ValueError("table has a non-invertible element")
        self.generators = list(generators)
        steps = [step for name, g in self.generators
                 for step in ((name, g, 1), (name, self._inverse[g], -1))]
        self._expressions = {el: expr for sphere in _spheres(self, steps)
                             for el, _, expr in sphere}
        if len(self._expressions) != n:
            raise ValueError("generators do not generate the table group")

    # -- handle protocol ----------------------------------------------------

    def identity(self) -> int:
        return self._identity

    def generator_items(self):
        return tuple(self.generators)

    def canonical(self, el: int) -> int:
        return el

    def key(self, el: int) -> int:
        return el

    def text(self, el: int) -> str:
        return self.names[el]

    def multiply(self, a: int, b: int) -> int:
        return self.table[a][b]

    def product(self, els) -> int:
        return functools.reduce(self.multiply, els, self._identity)

    def invert(self, el: int) -> int:
        return self._inverse[el]

    def power(self, el: int, k: int) -> int:
        # Every element's order divides the group's.
        base = el if k >= 0 else self._inverse[el]
        return self.product([base] * (abs(k) % len(self.names)))

    def commutes(self, a: int, b: int) -> bool:
        return self.table[a][b] == self.table[b][a]

    def sort_key(self, el: int) -> int:
        return el

    def parse_element(self, text: str) -> int:
        acc = self._identity
        index = {name: i for i, name in enumerate(self.names)}
        for token in text.split():
            m = W._TOKEN_RE.match(token)
            if not m or m.group(1) not in index:
                raise WordSyntaxError(f"bad element token {token!r}")
            exp = 1 if m.group(2) is None else int(m.group(2))
            acc = self.table[acc][self.power(index[m.group(1)], exp)]
        return acc

    def runs(self, el: int):
        return ((self._expressions[el], 1),)
