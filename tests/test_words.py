import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import CORPUS, SQUARE
from raagkit import (
    GraphMismatch,
    Syllable,
    UnknownGenerator,
    UnknownVertex,
    Word,
    WordSyntaxError,
    ZeroExponent,
    canonical_form,
    canonical_key,
    central_form,
    commutes,
    equals,
    in_special_subgroup,
    invert,
    is_identity,
    multiply,
    parse_word,
    power,
    sort_key,
    support,
    validate_graph,
    word_from_pairs,
    word_text,
)
from raagkit.oracle import bf_equals
from raagkit.words import _MAX_EXPONENT_DIGITS, _layers


def w(graph, text):
    return parse_word(graph, text)


def rand_word(rng, graph, max_len):
    n = rng.randint(0, max_len)
    return word_from_pairs(
        graph, [(rng.choice(graph.vertices), rng.choice((1, -1))) for _ in range(n)]
    )


# -- parsing and printing ----------------------------------------------------

def test_parse_basic():
    word = w(SQUARE, "a b^2 a^-1")
    assert word.syllables == (Syllable("a", 1), Syllable("b", 2), Syllable("a", -1))


def test_parse_empty_is_identity():
    assert w(SQUARE, "").syllables == ()
    assert is_identity(w(SQUARE, ""))


def test_parse_errors():
    with pytest.raises(UnknownGenerator):
        w(SQUARE, "a x")
    with pytest.raises(ZeroExponent):
        w(SQUARE, "a^0")
    with pytest.raises(WordSyntaxError):
        w(SQUARE, "a^")
    with pytest.raises(WordSyntaxError):
        w(SQUARE, "a^b")


def test_parse_exponents_are_bounded_ascii_digits():
    longest = "9" * _MAX_EXPONENT_DIGITS
    assert w(SQUARE, f"a^-{longest}").syllables == (Syllable("a", -int(longest)),)
    for text in ("a^\u0663", "a^1" + "0" * _MAX_EXPONENT_DIGITS, "a^" + "1" * 5000):
        with pytest.raises(WordSyntaxError):
            w(SQUARE, text)


def test_word_text_round_trip():
    for text in ("", "a", "a^-1", "a b^2 c^-3", "d a d^-1"):
        assert word_text(w(SQUARE, text)) == text


def test_word_from_pairs_rejects_zero_exponent():
    with pytest.raises(ZeroExponent):
        word_from_pairs(SQUARE, [("a", 0)])


# -- canonical form: pinned values -------------------------------------------

def test_commutator_of_adjacent_pair_vanishes():
    assert word_text(canonical_form(w(SQUARE, "a b a^-1 b^-1"))) == ""


def test_adjacent_pair_sorts():
    assert word_text(canonical_form(w(SQUARE, "b a"))) == "a b"


def test_blocked_word_normalizes():
    assert word_text(canonical_form(w(SQUARE, "d a c a^-1"))) == "a d c a^-1"


def test_central_form_blocks():
    cf = central_form(w(SQUARE, "d a c a^-1"))
    assert [[(s.gen, s.exp) for s in block] for block in cf.blocks] == [
        [("a", 1), ("d", 1)],
        [("c", 1)],
        [("a", -1)],
    ]


def test_central_form_of_identity_is_empty():
    assert central_form(w(SQUARE, "a a^-1")).blocks == ()


def test_free_pair_does_not_sort():
    d2 = CORPUS["delta2"]
    assert word_text(canonical_form(w(d2, "b a"))) == "b a"
    assert not equals(w(d2, "a b"), w(d2, "b a"))


def test_non_adjacent_pair_does_not_sort():
    assert word_text(canonical_form(w(SQUARE, "c a"))) == "c a"
    assert not equals(w(SQUARE, "a c"), w(SQUARE, "c a"))


def test_merge_across_commuting_separator():
    # b commutes with both a and c, so the two b-syllables cancel.
    assert word_text(canonical_form(w(SQUARE, "b a b^-1"))) == "a"
    assert is_identity(w(SQUARE, "b a c b^-1 c^-1 a^-1"))


def test_abelian_words_sort_fully():
    k3 = CORPUS["k3"]
    assert word_text(canonical_form(w(k3, "c b a c"))) == "a b c^2"


# -- canonical form: properties ----------------------------------------------

def test_canonical_idempotent():
    rng = random.Random(2024)
    for g in (SQUARE, CORPUS["p3"], CORPUS["k3"], CORPUS["delta3"]):
        for _ in range(200):
            word = rand_word(rng, g, 8)
            once = canonical_form(word)
            assert canonical_form(once) == once


def test_canonical_is_congruence():
    rng = random.Random(55)
    for _ in range(200):
        w1 = rand_word(rng, SQUARE, 6)
        w2 = rand_word(rng, SQUARE, 6)
        direct = canonical_form(multiply(w1, w2))
        via = canonical_form(multiply(canonical_form(w1), canonical_form(w2)))
        assert direct == via


def test_equals_iff_same_canonical_key():
    rng = random.Random(7)
    for _ in range(200):
        w1 = rand_word(rng, SQUARE, 5)
        w2 = rand_word(rng, SQUARE, 5)
        assert equals(w1, w2) == (canonical_key(w1) == canonical_key(w2))


def test_inverse_cancels():
    rng = random.Random(11)
    for g in CORPUS.values():
        if not g.vertices:
            continue
        for _ in range(40):
            word = rand_word(rng, g, 7)
            assert is_identity(multiply(word, invert(word)))
            assert is_identity(multiply(invert(word), word))


def test_central_blocks_flatten_to_canonical():
    rng = random.Random(13)
    for _ in range(150):
        word = rand_word(rng, SQUARE, 8)
        cf = central_form(word)
        flattened = tuple(s for block in cf.blocks for s in block)
        assert flattened == canonical_form(word).syllables


def test_power_conventions():
    word = w(SQUARE, "a b")
    assert is_identity(power(word, 0))
    assert equals(power(word, -2), invert(multiply(word, word)))
    assert equals(power(word, 3), multiply(word, multiply(word, word)))


# -- predicates --------------------------------------------------------------

def test_commutes_frozen_cases():
    assert commutes(w(SQUARE, "a"), w(SQUARE, "b"))
    assert not commutes(w(SQUARE, "a"), w(SQUARE, "c"))
    # words over {a,c} and words over {b,d} sit in commuting free factors
    assert commutes(w(SQUARE, "a c"), w(SQUARE, "b d^-1"))
    assert not commutes(w(SQUARE, "a c"), w(SQUARE, "c a"))


def test_word_commutes_with_its_powers():
    rng = random.Random(17)
    for _ in range(60):
        word = rand_word(rng, SQUARE, 5)
        assert commutes(word, power(word, 2))


def test_support_examples():
    assert support(w(SQUARE, "a b a^-1")) == {"b"}
    assert support(w(SQUARE, "")) == set()
    assert support(w(SQUARE, "a c^2")) == {"a", "c"}


def test_in_special_subgroup():
    assert in_special_subgroup(w(SQUARE, "a c"), {"a", "c"})
    assert not in_special_subgroup(w(SQUARE, "b"), {"a", "c"})
    assert in_special_subgroup(w(SQUARE, ""), set())
    assert in_special_subgroup(w(SQUARE, "b a b^-1"), {"a"})
    with pytest.raises(UnknownVertex):
        in_special_subgroup(w(SQUARE, "a"), {"x"})


def test_graph_mismatch_rejected():
    with pytest.raises(GraphMismatch):
        equals(w(SQUARE, "a"), w(CORPUS["k2"], "a"))


def test_sort_key_orders_by_length_then_position():
    words = [w(SQUARE, t) for t in ("a", "", "b", "a^-1", "a^2", "b a")]
    ordered = sorted(words, key=sort_key)
    assert [word_text(canonical_form(x)) for x in ordered] == [
        "", "a", "a^-1", "b", "a b", "a^2",
    ]


# -- canonical form: pinned digest over seeded words -------------------------

def _random_graph(rng, n, density):
    names = [f"v{i:02d}" for i in range(n)]
    edges = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]
             if rng.random() < density]
    return validate_graph(names, edges)


# sha256 of the canonical and central forms of 200 seeded words (0-64
# syllables, exponents in +-{1, 2, 3}) on each corpus graph and on two random
# 20-vertex graphs; any change to either normal form changes it.
_FORMS_DIGEST = "91cfcab9b58887acd29be5dd46f018f15fd88131a7d738906408a5e6df8157e7"


def test_canonical_and_central_forms_match_pinned_digest():
    rng = random.Random(2026)
    graphs = list(CORPUS.values()) + [_random_graph(rng, 20, 0.3),
                                      _random_graph(rng, 20, 0.7)]
    digest = hashlib.sha256()
    for g in graphs:
        for _ in range(200):
            word = word_from_pairs(g, [
                (rng.choice(g.vertices), rng.choice((1, 2, 3, -1, -2, -3)))
                for _ in range(rng.randint(0, 64))])
            digest.update(word_text(canonical_form(word)).encode() + b"\n")
            for block in central_form(word).blocks:
                digest.update(word_text(Word(g, block)).encode() + b"|")
            digest.update(b"\n")
    assert digest.hexdigest() == _FORMS_DIGEST


# -- canonical form: hypothesis properties -----------------------------------

_PROPERTY = settings(derandomize=True, deadline=None, database=None,
                     max_examples=150)


@st.composite
def graphs(draw, max_vertices=6):
    n = draw(st.integers(1, max_vertices))
    names = [f"v{i}" for i in range(n)]
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]]
    edges = [p for p in pairs if draw(st.booleans())]
    return validate_graph(names, edges)


def words(g, max_syllables, exponents=(1, 2, 3, -1, -2, -3)):
    syllable = st.tuples(st.sampled_from(g.vertices), st.sampled_from(exponents))
    return st.lists(syllable, max_size=max_syllables).map(
        lambda pairs: word_from_pairs(g, pairs))


@st.composite
def graph_and_word(draw, max_syllables=16):
    g = draw(graphs())
    return g, draw(words(g, max_syllables))


def _adjacent(g, u, v):
    return u != v and ((u, v) in g.edges or (v, u) in g.edges)


@st.composite
def rewritten(draw, word, max_moves=4, insert=True):
    """word after a few group-preserving moves: swaps of adjacent commuting
    syllables and, if allowed, insertions of a cancelling pair."""
    g = word.graph
    sylls = list(word.syllables)
    for _ in range(draw(st.integers(0, max_moves))):
        if insert and draw(st.booleans()):
            at = draw(st.integers(0, len(sylls)))
            gen = draw(st.sampled_from(g.vertices))
            exp = draw(st.sampled_from((1, -1, 2)))
            sylls[at:at] = [Syllable(gen, exp), Syllable(gen, -exp)]
        elif len(sylls) > 1:
            i = draw(st.integers(0, len(sylls) - 2))
            if _adjacent(g, sylls[i].gen, sylls[i + 1].gen):
                sylls[i], sylls[i + 1] = sylls[i + 1], sylls[i]
    return Word(g, tuple(sylls))


@st.composite
def oracle_pairs(draw):
    """Two words within the oracle's letter cap, equal in the group about half
    the time."""
    g = draw(graphs())
    w1 = draw(words(g, 4, exponents=(1, -1, 2, -2)).filter(lambda x: len(x) <= 5))
    if draw(st.booleans()):
        w2 = draw(words(g, 4, exponents=(1, -1, 2, -2)).filter(lambda x: len(x) <= 5))
    else:
        w2 = draw(rewritten(w1, max_moves=3, insert=len(w1) <= 3))
    return g, w1, w2


@_PROPERTY
@given(oracle_pairs())
def test_equals_agrees_with_oracle(case):
    g, w1, w2 = case
    assert equals(w1, w2) == bf_equals(g, w1, w2)


@st.composite
def oracle_commuting_pairs(draw):
    """Two words with at most 7 letters between them, so that gh and hg fit
    the oracle's letter cap; h is often a word in generators that commute with
    all of g's, so that many pairs commute."""
    g = draw(graphs())
    x = draw(words(g, 3, exponents=(1, -1, 2)).filter(lambda x: len(x) <= 4))
    pool = [v for v in g.vertices
            if all(v == s.gen or _adjacent(g, v, s.gen) for s in x.syllables)]
    vertices = g.vertices if not pool or draw(st.booleans()) else pool
    syllable = st.tuples(st.sampled_from(vertices), st.sampled_from((1, -1)))
    y = draw(st.lists(syllable, max_size=3).map(lambda p: word_from_pairs(g, p)))
    return g, x, y


@_PROPERTY
@given(oracle_commuting_pairs())
def test_commutes_agrees_with_oracle(case):
    g, x, y = case
    assert commutes(x, y) == bf_equals(g, Word(g, x.syllables + y.syllables),
                                       Word(g, y.syllables + x.syllables))


@_PROPERTY
@given(st.data())
def test_canonical_form_is_idempotent_and_move_invariant(data):
    g, word = data.draw(graph_and_word())
    canon = canonical_form(word)
    assert canonical_form(canon) == canon
    assert canonical_form(data.draw(rewritten(word))) == canon


@_PROPERTY
@given(graph_and_word())
def test_central_form_blocks_are_cliques_each_pinned_by_the_one_before(case):
    g, word = case
    blocks = central_form(word).blocks
    for block in blocks:
        gens = [s.gen for s in block]
        assert len(set(gens)) == len(gens)
        assert all(_adjacent(g, u, v) for i, u in enumerate(gens) for v in gens[i + 1:])
    for before, after in zip(blocks, blocks[1:]):
        for s in after:
            assert any(t.gen == s.gen or not _adjacent(g, t.gen, s.gen) for t in before)


@_PROPERTY
@given(graph_and_word(max_syllables=8), st.integers(-6, 6))
def test_power_is_canonical_repeated_product(case, k):
    g, word = case
    base = word.syllables if k >= 0 else invert(word).syllables
    assert power(word, k) == canonical_form(Word(g, base * abs(k)))


def test_power_of_one_costs_one_canonical_form(monkeypatch):
    calls = []
    monkeypatch.setattr("raagkit.words._layers",
                        lambda x: calls.append(x) or _layers(x))
    word = w(SQUARE, "a c b^-1")
    assert power(word, 1) == canonical_form(word)
    assert power(word, -1) == invert(word)
    assert len(calls) == 4
