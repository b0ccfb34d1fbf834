"""Structure maps into the commutation-symbol group, and their axioms.

A structure map assigns to each exposed generator of a group a symbol word,
extends multiplicatively, and is a coalgebra when three axioms hold: it is a
homomorphism into the symbol group, multiplying each image out returns the
generator (counit), and rewrapping symbols agrees with pushing the map inside
them (coassociativity).  A cohomomorphism between two structured groups is a
group homomorphism that intertwines the structure maps.

A structure map is that homomorphism (``CoalgebraMap`` is a ``GroupHom``), so
it and relators are multiplied out by ``functors._evaluate``, which freely
reduces each symbol word once.  Its verdict is kept on the map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from . import words as W
from .errors import EndsMismatch, NotACoalgebra, NotAHomomorphism, UnknownGenerator
from .functors import (
    ACGroupHandle,
    ACWord,
    GroupHom,
    GraphHom,
    _evaluate,
    ac_equals,
    ac_map_symbols,
    ac_on_hom,
    ac_text,
    ac_word,
    delta,
    epsilon,
    parse_ac_word,
    raag_of_graph,
)
from .graphs import validate_hom
from .words import Word


class CoalgebraMap(GroupHom):
    """A candidate structure map: the hom from a group into its symbol group
    given by one symbol word per exposed generator."""

    def __init__(self, group, images: tuple[tuple[str, ACWord], ...]):
        super().__init__(group, ACGroupHandle(group), images)

    @property
    def group(self):
        return self.source


@dataclass(frozen=True)
class CoalgebraVerdict:
    """Outcome of the full axiom check: ok, or the first failure with witness."""

    ok: bool
    failed: str | None = None
    witness: object = None

    def describe(self) -> str:
        if self.ok:
            return "coalgebra"
        if self.failed == "homomorphism":
            if isinstance(self.witness, tuple):
                u, v = self.witness
                return f"homomorphism failed at ({u},{v})"
            return f"homomorphism failed at relator {W.word_text(self.witness)}"
        return f"{self.failed} failed at {self.witness}"


@dataclass(frozen=True)
class CohomWitness:
    """A generator where the two routes around the cohomomorphism square differ."""

    generator: str
    lhs: ACWord
    rhs: ACWord

    def __str__(self):
        return f"{self.generator}: {ac_text(self.lhs)} != {ac_text(self.rhs)}"


def make_coalgebra(group, images: Mapping[str, Union[ACWord, str]]) -> CoalgebraMap:
    """Assemble a CoalgebraMap from per-generator symbol words or their texts."""
    names = [name for name, _ in group.generator_items()]
    if set(images) != set(names):
        raise UnknownGenerator("images must cover exactly the exposed generators")
    pairs = []
    for name in names:
        img = images[name]
        if isinstance(img, str):
            img = parse_ac_word(group, img)
        pairs.append((name, img))
    return CoalgebraMap(group, tuple(pairs))


def canonical_coalgebra(graph) -> CoalgebraMap:
    """The vertex-wise structure map v -> [v] on the default handle."""
    handle = raag_of_graph(graph)
    pairs = tuple(
        (name, ac_word(handle, [(el, 1)])) for name, el in handle.generator_items()
    )
    return CoalgebraMap(handle, pairs)


def apply_structure(c: CoalgebraMap, el) -> ACWord:
    """Extend the structure map multiplicatively to an arbitrary element."""
    return c.apply(el)


def is_homomorphism_to_acg(c: CoalgebraMap) -> tuple[bool, object]:
    """Check that images of presentation-graph edges commute, via pullback."""
    edge = c._noncommuting_edge()
    return edge is None, edge


def _relators_preserved(c: CoalgebraMap, relators: Iterable) -> tuple[bool, object]:
    symbols = c.target
    for rel in relators:
        image = _evaluate(symbols, ((c.image_of(s.gen), s.exp) for s in rel.syllables))
        if not ac_equals(image, symbols.identity()):
            return False, rel
    return True, None


def _counit_holds(c: CoalgebraMap) -> tuple[bool, str | None]:
    group = c.group
    for name, el in group.generator_items():
        if group.key(epsilon(c.image_of(name))) != group.key(el):
            return False, name
    return True, None


def _coassociativity_holds(c: CoalgebraMap) -> tuple[bool, str | None]:
    group = c.group
    outer = ACGroupHandle(group)
    for name, _ in group.generator_items():
        img = c.image_of(name)
        lhs = delta(img)
        rhs = ac_map_symbols(img, lambda g: apply_structure(c, g), outer)
        if not ac_equals(lhs, rhs):
            return False, name
    return True, None


def _require_homomorphism(c: CoalgebraMap) -> None:
    ok, witness = is_homomorphism_to_acg(c)
    if not ok:
        raise NotAHomomorphism(
            f"images at edge {witness} do not commute", witness=witness)


def check_counit(c: CoalgebraMap) -> tuple[bool, str | None]:
    """Multiplying each generator's image out must return the generator.

    The structure map must already be a homomorphism; an edge whose images
    fail to commute is an error here, not a false verdict.
    """
    _require_homomorphism(c)
    return _counit_holds(c)


def check_coassociativity(c: CoalgebraMap) -> tuple[bool, str | None]:
    """Rewrapping symbols must agree with mapping the structure inside them."""
    _require_homomorphism(c)
    return _coassociativity_holds(c)


def check_coalgebra(c: CoalgebraMap, relators: Iterable | None = None) -> CoalgebraVerdict:
    """Run the three axioms in order, reporting the first failure.

    When the group carries no presentation graph (word-problem handles built
    from tables), pass the presentation's relators; preserving them is the
    homomorphism check in that case.
    """
    if relators is None:
        return _graph_verdict(c)
    ok, witness = _relators_preserved(c, relators)
    if not ok:
        return CoalgebraVerdict(False, "homomorphism", witness)
    return _comonad_verdict(c)


def _graph_verdict(c: CoalgebraMap) -> CoalgebraVerdict:
    """The check against the group's own graph, which is also the one
    is_cohomomorphism needs.  The verdict is kept on the map, so a structure
    map already checked is not checked again there."""
    verdict = c.__dict__.get("_verdict")
    if verdict is None:
        if not hasattr(c.group, "graph"):
            raise NotACoalgebra("no presentation graph and no relators to check against")
        ok, witness = is_homomorphism_to_acg(c)
        verdict = (_comonad_verdict(c) if ok
                   else CoalgebraVerdict(False, "homomorphism", witness))
        object.__setattr__(c, "_verdict", verdict)
    return verdict


def _comonad_verdict(c: CoalgebraMap) -> CoalgebraVerdict:
    ok, witness = _counit_holds(c)
    if not ok:
        return CoalgebraVerdict(False, "counit", witness)
    ok, witness = _coassociativity_holds(c)
    if not ok:
        return CoalgebraVerdict(False, "coassociativity", witness)
    return CoalgebraVerdict(True)


def is_cohomomorphism(f: GroupHom, c_src: CoalgebraMap,
                      c_dst: CoalgebraMap) -> tuple[bool, CohomWitness | None]:
    """Does f intertwine the two structure maps?  Checked on generators."""
    if f.source != c_src.group or f.target != c_dst.group:
        raise EndsMismatch("hom ends do not match the structured groups")
    for c in (c_src, c_dst):
        verdict = _graph_verdict(c)
        if not verdict.ok:
            raise NotACoalgebra(verdict.describe())
    for name, el in f.source.generator_items():
        lhs = apply_structure(c_dst, f.apply(el))
        rhs = ac_on_hom(f, c_src.image_of(name))
        if not ac_equals(lhs, rhs):
            return False, CohomWitness(name, lhs, rhs)
    return True, None


def cohom_to_graph_hom(f: GroupHom, c_src: CoalgebraMap,
                       c_dst: CoalgebraMap) -> GraphHom | None:
    """Extract the underlying vertex map of a cohomomorphism between canonical
    structures; None when f is not a cohomomorphism."""
    ok, _ = is_cohomomorphism(f, c_src, c_dst)
    if not ok:
        return None
    mapping = {}
    for v in f.source.graph.vertices:
        img = f.apply(Word(f.source.graph, (W.Syllable(v, 1),)))
        if len(img.syllables) != 1 or img.syllables[0].exp != 1:
            raise NotACoalgebra(
                f"cohomomorphism image of {v!r} is not a single generator"
            )
        mapping[v] = img.syllables[0].gen
    return validate_hom(f.source.graph, f.target.graph, mapping)
