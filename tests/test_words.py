import random

import pytest

from corpus import CORPUS, SQUARE
from raagkit import (
    GraphMismatch,
    Syllable,
    UnknownGenerator,
    UnknownVertex,
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
    word_from_pairs,
    word_text,
)
from raagkit.words import _MAX_EXPONENT_DIGITS


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
