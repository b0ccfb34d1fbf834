"""Deliberately naive reference checks used to validate the fast paths.

``bf_equals`` decides equality by breadth-first search over letter sequences,
using only two moves: swap adjacent commuting letters, cancel an adjacent
inverse pair.  No normal forms, no shortcuts, no insertions.  ``bf_is_a_phi``
recognizes induced homomorphisms by scanning every graph hom and comparing
images generator by generator.
"""

from __future__ import annotations

import functools
from collections import deque

from . import words as W
from .errors import GraphMismatch, SearchSpaceTooLarge
from .functors import GroupHom
from .graphs import Graph, GraphHom, enumerate_homs
from .words import Word

_MAX_LETTERS = 14


def _letters(w: Word) -> tuple[int, ...]:
    index = w.graph.vertex_index
    out = []
    for gen, exp in w.syllables:
        letter = index[gen] + 1
        out.extend([letter if exp > 0 else -letter] * abs(exp))
    return tuple(out)


def _adjacency(graph: Graph) -> list[list[bool]]:
    n = len(graph.vertices)
    index = graph.vertex_index
    adj = [[False] * n for _ in range(n)]
    for i in range(n):
        adj[i][i] = True
    for u, v in graph.edges:
        i, j = index[u], index[v]
        adj[i][j] = True
        adj[j][i] = True
    return adj


def bf_equals(graph: Graph, w1: Word, w2: Word) -> bool:
    """True iff w1*w2^-1 can be shuffled and cancelled down to nothing."""
    if w1.graph != graph or w2.graph != graph:
        raise GraphMismatch("words do not live over the given graph")
    a = _letters(w1)
    b = _letters(w2)
    if len(a) + len(b) > _MAX_LETTERS:
        raise SearchSpaceTooLarge(
            f"combined length {len(a) + len(b)} exceeds {_MAX_LETTERS} letters")
    start = a + tuple(-x for x in reversed(b))
    if not start:
        return True
    adj = _adjacency(graph)
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        last = len(cur) - 1
        for i in range(last):
            x, y = cur[i], cur[i + 1]
            if x == -y:
                nxt = cur[:i] + cur[i + 2:]
                if not nxt:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
            if x != y and adj[abs(x) - 1][abs(y) - 1]:
                nxt = cur[:i] + (y, x) + cur[i + 2:]
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return False


# Hom lists are reused across many oracle queries on the same graph pair.
_HOMS_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_HOMS_CACHE_SIZE)
def _homs(src: Graph, dst: Graph) -> list[GraphHom]:
    return enumerate_homs(src, dst)


def bf_is_a_phi(f: GroupHom, src: Graph, dst: Graph) -> GraphHom | None:
    """Scan all graph homs for one inducing f; return it, or None."""
    for phi in _homs(src, dst):
        if all(W.equals(f.image_of(v), Word(dst, (W.Syllable(phi(v), 1),)))
               for v in src.vertices):
            return phi
    return None
