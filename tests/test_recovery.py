import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import CORPUS, SQUARE, disguised_handle, graph, in_generators, structure_maps
from raagkit import (
    ACWord,
    BudgetExhausted,
    FiniteTableGroup,
    UnknownGenerator,
    WordSyntaxError,
    abelianization_rank,
    ac_equals,
    ac_text,
    apply_structure,
    canonical_coalgebra,
    check_coalgebra,
    commutator_presentation,
    enumerate_elements,
    exponent_matrix,
    find_vertices,
    graphs_isomorphic,
    handle_with_generators,
    make_coalgebra,
    parse_ac_word,
    parse_word,
    presentation,
    raag_of_graph,
    recover_graph,
    search_coalgebra,
    smith_normal_form,
    validate_matrix,
    word_text,
)
from raagkit.coalgebra import _fixes_symbol
from raagkit.fileio import graph_data

OBFUSCATED_RELATORS = [
    "x y x^-1 y^-1",
    "y z y^-1 z^-1",
    "z w x^-1 z^-1 x w^-1",
    "w x w^-1 x^-1",
]


# -- integer matrices --------------------------------------------------------

def test_snf_worked_examples():
    assert smith_normal_form([[2, 4], [6, 8]]) == ((2, 4), 2)
    assert smith_normal_form([[2, 0], [0, 3]]) == ((1, 6), 2)
    assert smith_normal_form([[0, 0], [0, 0]]) == ((), 0)


def test_snf_empty_and_rectangular():
    assert smith_normal_form([]) == ((), 0)
    assert smith_normal_form([[3, 0, 0]]) == ((3,), 1)
    assert smith_normal_form([[0], [5]]) == ((5,), 1)


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def test_snf_divisibility_and_determinant():
    rng = random.Random(4242)
    checked = 0
    while checked < 200:
        m = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        det = _det3(m)
        if det == 0:
            continue
        invariants, rank = smith_normal_form(m)
        assert rank == 3
        assert all(d > 0 for d in invariants)
        for i in range(len(invariants) - 1):
            assert invariants[i + 1] % invariants[i] == 0
        prod = 1
        for d in invariants:
            prod *= d
        assert prod == abs(det)
        checked += 1


def test_validate_matrix_rejects_bad_shapes():
    with pytest.raises(Exception):
        validate_matrix([[1, 2], [3]])
    with pytest.raises(Exception):
        validate_matrix([[1, "x"]])


# -- presentations and abelianization ----------------------------------------

def test_presentation_rejects_unknown_generator():
    with pytest.raises(UnknownGenerator):
        presentation(["x"], ["x y"])
    with pytest.raises(WordSyntaxError):
        presentation(["x", "x"], [])


def test_exponent_matrix():
    p = presentation(["x", "y"], ["x y x^-1 y^-1", "x^2"])
    assert exponent_matrix(p) == [[0, 0], [2, 0]]


def test_abelianization_ranks():
    assert abelianization_rank(presentation(["x"], ["x^2"])) == 0
    assert abelianization_rank(presentation(["x", "y"], ["x y x^-1 y^-1"])) == 2
    assert abelianization_rank(presentation(["x", "y"], [])) == 2
    for name, g in CORPUS.items():
        assert abelianization_rank(commutator_presentation(g)) == len(g.vertices)


def test_commutator_presentation_relators():
    p = commutator_presentation(CORPUS["k2"])
    assert p.generators == ("a", "b")
    assert [word_text(r) for r in p.relators] == ["a b a^-1 b^-1"]


# -- element enumeration -----------------------------------------------------

def test_enumeration_order_one_vertex():
    h = raag_of_graph(CORPUS["one"])
    texts = [word_text(e) for e in enumerate_elements(h, 2)]
    assert texts == ["", "v", "v^-1", "v^2", "v^-2"]


def test_enumeration_deduplicates():
    h = raag_of_graph(CORPUS["k2"])
    els = list(enumerate_elements(h, 2))
    texts = [word_text(e) for e in els]
    assert len(texts) == len(set(texts))
    assert "a b" in texts
    assert "b a" not in texts


def test_enumeration_counts_free_group():
    # the rank-2 free group has 4*3^(n-1) reduced words of length n
    h = raag_of_graph(CORPUS["delta2"])
    els = list(enumerate_elements(h, 3))
    assert len(els) == 1 + 4 + 12 + 36


def test_enumeration_zero_budget():
    h = raag_of_graph(SQUARE)
    els = list(enumerate_elements(h, 0))
    assert len(els) == 1
    assert word_text(els[0]) == ""


# -- vertex detection and reconstruction -------------------------------------

def test_find_vertices_on_square():
    c = canonical_coalgebra(SQUARE)
    found = find_vertices(c, 4, 2)
    assert sorted(word_text(e) for e in found) == ["a", "b", "c", "d"]


def test_find_vertices_budget_exhausted():
    c = canonical_coalgebra(SQUARE)
    with pytest.raises(BudgetExhausted) as info:
        find_vertices(c, 5, 2)
    assert info.value.found == 4
    assert info.value.wanted == 5


def test_find_vertices_of_the_trivial_group():
    c = canonical_coalgebra(graph(""))
    for radius in (0, 2):
        assert find_vertices(c, 0, radius) == []
    recovered, labeling = recover_graph(c, 0, 2)
    assert graph_data(recovered) == {"vertices": [], "edges": []}
    assert labeling == {}
    # asking for nothing finds nothing, on any group
    assert find_vertices(canonical_coalgebra(SQUARE), 0, 2) == []


def test_find_vertices_excludes_identity_and_duplicates():
    for name in ("one", "k3", "p3", "delta2"):
        g = CORPUS[name]
        c = canonical_coalgebra(g)
        found = find_vertices(c, len(g.vertices), 2)
        texts = [word_text(e) for e in found]
        assert "" not in texts
        assert len(texts) == len(set(texts))


def test_recover_round_trip_small():
    for name in ("p3", "k3", "star"):
        g = CORPUS[name]
        recovered, labeling = recover_graph(canonical_coalgebra(g), len(g.vertices), 2)
        assert graphs_isomorphic(recovered, g) is not None
        for vertex, element in labeling.items():
            assert word_text(element) == vertex


def _disguised_coalgebra(g):
    """The canonical structure on the corpus's disguised generating set."""
    handle = disguised_handle(g)
    canon = canonical_coalgebra(g)
    return make_coalgebra(handle, {name: ac_text(apply_structure(canon, el))
                                   for name, el in handle.generator_items()})


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_recover_graph_pinned_on_corpus(name):
    g = CORPUS[name]
    for c in (canonical_coalgebra(g), _disguised_coalgebra(g)):
        recovered, labeling = recover_graph(c, len(g.vertices), 2)
        assert graph_data(recovered) == graph_data(g)
        assert list(labeling) == list(g.vertices)
        assert {v: word_text(el) for v, el in labeling.items()} == \
            {v: v for v in g.vertices}


def ball_vertices(c, rank, radius):
    """Reference vertex search: every non-identity element of the ball, in
    enumeration order, tested with the fixed-symbol predicate.  Returns the
    first ``rank`` fixed ones, or how many were found when there are fewer."""
    fixed = [el for el in list(enumerate_elements(c.group, radius))[1:]
             if _fixes_symbol(c, el)]
    return fixed[:rank] if len(fixed) >= rank else ("exhausted", len(fixed), rank)


_PROPERTY = settings(derandomize=True, deadline=None, database=None,
                     max_examples=100)
_K2 = raag_of_graph(CORPUS["k2"])
_A, _B = (parse_word(CORPUS["k2"], v) for v in "ab")


@_PROPERTY
@given(structure_maps(), st.integers(0, 3), st.integers(0, 6))
@example(make_coalgebra(_K2, {"a": ACWord(_K2, ((_A, 1),)),
                              "b": ACWord(_K2, ((_K2.identity(), -1), (_B, 1)))}), 1, 2)
def test_find_vertices_agrees_with_scanning_the_ball(c, radius, rank):
    try:
        got = find_vertices(c, rank, radius)
    except BudgetExhausted as exc:
        got = ("exhausted", exc.found, exc.wanted)
    assert got == ball_vertices(c, rank, radius)


# -- structure-map search ----------------------------------------------------

def test_search_free_group_one_generator():
    h = raag_of_graph(CORPUS["one"])
    c = search_coalgebra(presentation(["v"], []), h, 1, 1)
    assert c is not None
    assert ac_text(c.image_of("v")) == "[v]"


def test_search_rank_two_abelian():
    k2 = graph("x y", "xy")
    h = raag_of_graph(k2)
    p = presentation(["x", "y"], ["x y x^-1 y^-1"])
    c = search_coalgebra(p, h, 1, 1)
    assert c is not None
    assert ac_text(c.image_of("x")) == "[x]"
    assert ac_text(c.image_of("y")) == "[y]"


def test_search_generator_mismatch():
    h = raag_of_graph(CORPUS["one"])
    with pytest.raises(UnknownGenerator):
        search_coalgebra(presentation(["q"], []), h, 1, 1)


def test_search_exhausts_on_zero_budgets():
    p3 = CORPUS["p3"]
    h = raag_of_graph(p3)
    p = presentation(["a", "b", "c"], ["a b a^-1 b^-1", "b c b^-1 c^-1"])
    assert search_coalgebra(p, h, 0, 0) is None


def test_search_exhausts_on_finite_group():
    z2 = FiniteTableGroup(["e", "g"], [[0, 1], [1, 0]], [("g", 1)])
    p = presentation(["g"], ["g^2"])
    assert search_coalgebra(p, z2, 2, 2) is None


def test_search_result_passes_relator_check():
    sq = SQUARE
    wp = handle_with_generators(sq, {"x": "a", "y": "b", "z": "c", "w": "d a"})
    p = presentation(["x", "y", "z", "w"], OBFUSCATED_RELATORS)
    c = search_coalgebra(p, wp, 2, 2)
    assert c is not None
    assert check_coalgebra(c, relators=p.relators).ok


# -- finite groups as tables -------------------------------------------------

def test_table_group_operations():
    z3 = FiniteTableGroup(["e", "g", "h"],
                          [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
                          [("g", 1)])
    assert z3.identity() == 0
    assert z3.multiply(1, 1) == 2
    assert z3.invert(1) == 2
    assert z3.power(1, 3) == 0
    assert z3.commutes(1, 2)
    assert z3.text(2) == "h"
    gens = dict(z3.generator_items())
    for el in range(3):
        acc = z3.identity()
        for name, exp in in_generators(z3, el):
            acc = z3.multiply(acc, z3.power(gens[name], exp))
        assert acc == el


def test_table_group_power_walks_exponent_modulo_order():
    z3 = FiniteTableGroup(["e", "g", "h"],
                          [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
                          [("g", 1)])
    # 10**12 leaves remainder 1 modulo 3
    assert z3.power(1, 10**12) == 1
    assert z3.power(1, 10**12 + 1) == 2
    assert z3.power(1, -(10**12 + 1)) == 1


def test_table_group_rewrite_tries_each_generator_then_its_inverse():
    z3 = FiniteTableGroup(["e", "g", "h"],
                          [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
                          [("g", 1), ("h", 2)])
    assert in_generators(z3, 2) == (("g", -1),)


def test_table_group_exponents_are_bounded_ascii_digits():
    z2 = FiniteTableGroup(["e", "g"], [[0, 1], [1, 0]], [("g", 1)])
    assert z2.parse_element("g^3") == 1
    for text in ("g^\u0663", "g^" + "1" * 5000):
        with pytest.raises(WordSyntaxError):
            z2.parse_element(text)


def test_table_group_rejects_non_group_table():
    with pytest.raises(ValueError):
        FiniteTableGroup(["a", "b"], [[0, 0], [0, 0]], [("a", 0)])


def test_table_group_requires_generating_set():
    with pytest.raises(ValueError):
        FiniteTableGroup(["e", "g", "h", "k"],
                         [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
                         [("g", 1)])


def test_table_group_coalgebra_check_needs_relators():
    z2 = FiniteTableGroup(["e", "g"], [[0, 1], [1, 0]], [("g", 1)])
    from raagkit import NotACoalgebra, make_coalgebra

    c = make_coalgebra(z2, {"g": parse_ac_word(z2, "[g]")})
    with pytest.raises(NotACoalgebra):
        check_coalgebra(c)
    verdict = check_coalgebra(c, relators=presentation(["g"], ["g^2"]).relators)
    assert not verdict.ok


@pytest.mark.parametrize("generators, relators, images", [
    (None, None, {"a": "[a]", "b": "[b]"}),
    ({"x": "a", "y": "b a"}, ["x y x^-1 y^-1"], {"x": "[a]", "y": "[a b]"}),
], ids=["commutator", "disguised"])
def test_search_finds_pinned_map_on_k2(generators, relators, images):
    k2 = CORPUS["k2"]
    if generators is None:
        wp, p = raag_of_graph(k2), commutator_presentation(k2)
    else:
        wp, p = handle_with_generators(k2, generators), presentation(list(generators), relators)
    c = search_coalgebra(p, wp, 2, 2)
    assert {name: ac_text(c.image_of(name)) for name, _ in wp.generator_items()} == images
