import gc
import hashlib
import importlib
import pkgutil
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import raagkit

from corpus import CORPUS, SQUARE, graph, in_generators
from raagkit import (
    ACGroupHandle,
    BaseMismatch,
    GroupHandle,
    IdentitySymbolWarning,
    NotAHomomorphism,
    SearchSpaceTooLarge,
    Word,
    WordSyntaxError,
    ZeroExponent,
    a_on_hom,
    ac_canonical,
    ac_concat,
    ac_equals,
    ac_invert,
    ac_on_hom,
    ac_power,
    ac_text,
    ac_word,
    adjacent,
    canonical_coalgebra,
    canonical_form,
    commutation_graph,
    commutes,
    delta,
    enumerate_elements,
    epsilon,
    equals,
    eta,
    group_hom,
    handle_with_generators,
    identity_hom,
    invert,
    is_identity,
    make_coalgebra,
    multiply,
    parse_ac_word,
    parse_word,
    power,
    raag_of_graph,
    validate_graph,
    validate_hom,
    word_from_pairs,
    word_text,
)
from raagkit import functors
from raagkit.functors import ac_map_symbols
from raagkit.oracle import bf_equals

ONE_V = CORPUS["one"]
ONE_W = graph("w")
HV = raag_of_graph(ONE_V)
HW = raag_of_graph(ONE_W)
HSQ = raag_of_graph(SQUARE)


# -- group handles -----------------------------------------------------------

def test_default_handle_exposes_vertices():
    assert HSQ.is_default
    assert [name for name, _ in HSQ.generator_items()] == ["a", "b", "c", "d"]
    assert in_generators(HSQ, parse_word(SQUARE, "a b^-2")) == (
        ("a", 1), ("b", -2))


def test_handle_with_generators_rejects_identity_generator():
    with pytest.raises(ZeroExponent):
        handle_with_generators(SQUARE, {"x": "a a^-1"})


def test_handle_with_generators_rejects_bad_name():
    with pytest.raises(WordSyntaxError):
        handle_with_generators(SQUARE, {"x y": "a"})


def test_obfuscated_rewrite_round_trips():
    h = handle_with_generators(SQUARE, {"x": "a", "y": "b", "z": "c", "w": "d a"})
    assert not h.is_default
    exposed = dict(h.generator_items())
    for v in SQUARE.vertices:
        target = parse_word(SQUARE, v)
        expr = in_generators(h, target)
        acc = h.identity()
        for name, exp in expr:
            acc = multiply(acc, h.power(exposed[name], exp))
        assert equals(acc, target)


def test_obfuscated_rewrite_keeps_first_expression_found():
    # Breadth-first over all exposed generators, then all their inverses.
    h = handle_with_generators(SQUARE, {"x": "a", "y": "b", "z": "c", "w": "d a"})
    assert in_generators(h, parse_word(SQUARE, "d")) == (("w", 1), ("x", -1))
    h = handle_with_generators(SQUARE, {"x": "a b", "y": "b", "z": "c", "w": "d a"})
    assert in_generators(h, parse_word(SQUARE, "a")) == (("x", 1), ("y", -1))
    assert in_generators(h, parse_word(SQUARE, "d")) == (
        ("y", 1), ("x", -1), ("w", 1))


def test_rewrite_fails_when_generators_do_not_generate():
    h = handle_with_generators(ONE_V, {"x": "v^2"})
    with pytest.raises(SearchSpaceTooLarge):
        in_generators(h, parse_word(ONE_V, "v"))


# -- induced homomorphisms ---------------------------------------------------

def test_a_on_hom_one_vertex():
    phi = validate_hom(ONE_V, ONE_W, {"v": "w"})
    f = a_on_hom(phi)
    assert word_text(f.apply(parse_word(ONE_V, "v"))) == "w"
    assert word_text(f.apply(parse_word(ONE_V, "v^-3"))) == "w^-3"


def test_a_on_hom_identity():
    f = a_on_hom(identity_hom(SQUARE))
    word = parse_word(SQUARE, "d a c a^-1")
    assert equals(f.apply(word), word)


def test_a_on_hom_collapse_canonicalizes():
    k2 = CORPUS["k2"]
    one_u = graph("u")
    phi = validate_hom(k2, one_u, {"a": "u", "b": "u"})
    f = a_on_hom(phi)
    assert word_text(f.apply(parse_word(k2, "a b^2"))) == "u^3"


def test_group_hom_squaring_is_valid():
    f = group_hom(HV, HW, {"v": parse_word(ONE_W, "w^2")})
    assert word_text(f.apply(parse_word(ONE_V, "v^2"))) == "w^4"


def test_group_hom_free_swap_is_valid():
    d2 = CORPUS["delta2"]
    h = raag_of_graph(d2)
    f = group_hom(h, h, {"a": parse_word(d2, "b"), "b": parse_word(d2, "a")})
    assert word_text(f.apply(parse_word(d2, "a b"))) == "b a"


def test_group_hom_rejects_non_commuting_images():
    d2 = CORPUS["delta2"]
    k2 = CORPUS["k2"]
    with pytest.raises(NotAHomomorphism) as info:
        group_hom(raag_of_graph(k2), raag_of_graph(d2),
                  {"a": parse_word(d2, "a"), "b": parse_word(d2, "b")})
    assert info.value.witness == ("a", "b")


# -- commutation graphs ------------------------------------------------------

def test_commutation_graph_path():
    els = [parse_word(SQUARE, t) for t in ("a", "b", "c")]
    g, labeling = commutation_graph(HSQ, els)
    assert g.vertices == ("a", "b", "c")
    assert g.edges == frozenset({("a", "b"), ("b", "c")})
    assert word_text(labeling["a"]) == "a"


def test_commutation_graph_abelian_is_complete():
    k2 = CORPUS["k2"]
    h = raag_of_graph(k2)
    els = [parse_word(k2, t) for t in ("a", "b", "a b")]
    g, _ = commutation_graph(h, els)
    assert len(g.vertices) == 3
    assert len(g.edges) == 3


def test_commutation_graph_powers_commute():
    els = [parse_word(ONE_V, t) for t in ("v", "v^2")]
    g, _ = commutation_graph(HV, els)
    assert len(g.vertices) == 2
    assert len(g.edges) == 1


def test_commutation_graph_deduplicates():
    els = [parse_word(CORPUS["k2"], t) for t in ("a b", "b a")]
    g, _ = commutation_graph(raag_of_graph(CORPUS["k2"]), els)
    assert len(g.vertices) == 1


def test_commutation_graph_names_colliding_texts_in_text_order():
    g = validate_graph(["a", "b", "a_b"], [("a", "b")])
    els = [parse_word(g, t) for t in ("a b", "a_b", "b a")]
    cg, labeling = commutation_graph(raag_of_graph(g), els)
    assert cg.vertices == ("a_b", "a_b_")
    assert cg.edges == frozenset()
    assert {name: word_text(el) for name, el in labeling.items()} == \
        {"a_b": "a b", "a_b_": "a_b"}


# a_b commutes with a, b and a_b0; the text of [a b] sanitizes to a_b
COLLIDING = validate_graph(["a", "b", "a_b", "a_b0"],
                           [("a_b", "a"), ("a_b", "b"), ("a_b", "a_b0")])


def test_canonical_symbol_order_does_not_depend_on_other_symbols():
    h = raag_of_graph(COLLIDING)
    x = parse_ac_word(h, "[a b] [a_b] [a b]^-1 [a_b0]")
    y = parse_ac_word(h, "[a_b] [a_b0]")
    assert ac_equals(x, y)
    assert ac_text(ac_canonical(x)) == ac_text(ac_canonical(y)) == "[a_b] [a_b0]"
    assert functors.ac_key(x) == functors.ac_key(y)
    # the names that are output keep their '_' suffix, in name order
    els = [parse_word(COLLIDING, t) for t in ("a b", "a_b", "a_b0")]
    cg, labeling = commutation_graph(h, els)
    assert cg.vertices == ("a_b", "a_b0", "a_b_")
    assert cg.edges == frozenset({("a_b", "a_b_"), ("a_b0", "a_b_")})
    assert word_text(labeling["a_b_"]) == "a_b"


def test_commutation_graph_labeling_is_the_callers_own():
    k2 = CORPUS["k2"]
    h = raag_of_graph(k2)
    els = [parse_word(k2, t) for t in ("a", "b")]
    _, labeling = commutation_graph(h, els)
    labeling.clear()
    _, again = commutation_graph(h, els)
    assert sorted(again) == ["a", "b"]
    x = parse_ac_word(h, "[a] [b]")
    assert ac_text(ac_canonical(x)) == "[a] [b]"


# -- symbol words ------------------------------------------------------------

def test_ac_word_examples():
    x = ac_word(HW, [(parse_word(ONE_W, "w"), 2)])
    assert ac_text(x) == "[w]^2"
    y = ac_word(HW, [(parse_word(ONE_W, "w^2"), 1)])
    assert ac_text(y) == "[w^2]"
    assert ac_text(ac_word(HW, [])) == ""


def test_symbol_word_letters_are_canonical_elements():
    h = raag_of_graph(SQUARE)
    el = canonical_form(parse_word(SQUARE, "b a c"))
    assert ac_word(h, [(el, 1)]).letters == ((el, 1),)
    assert ac_word(h, [(parse_word(SQUARE, "b a c"), -2)]).letters == ((el, -2),)


def test_ac_word_zero_exponent():
    with pytest.raises(ZeroExponent):
        ac_word(HW, [(parse_word(ONE_W, "w"), 0)])


def test_identity_symbol_warns_but_is_allowed():
    with pytest.warns(IdentitySymbolWarning):
        x = ac_word(HW, [(parse_word(ONE_W, ""), 1)])
    assert len(x.letters) == 1


def test_parse_ac_word_round_trip():
    for text in ("", "[w]", "[w^2]^-1 [w]", "[w]^3 [w^-1]"):
        assert ac_text(parse_ac_word(HW, text)) == text


def test_parse_ac_word_rejects_nesting():
    with pytest.raises(WordSyntaxError):
        parse_ac_word(HW, "[[w]]")


def test_parse_ac_word_exponents_are_bounded_ascii_digits():
    for text in ("[w]^\u0663", "[w]^" + "1" * 5000, "[w^\u0663]"):
        with pytest.raises(WordSyntaxError):
            parse_ac_word(HW, text)


def test_ac_equals_separates_powers():
    two = parse_ac_word(HW, "[w]^2")
    squared = parse_ac_word(HW, "[w^2]")
    assert not ac_equals(two, squared)


def test_ac_equals_commuting_symbols():
    x = parse_ac_word(HW, "[w] [w^2]")
    y = parse_ac_word(HW, "[w^2] [w]")
    assert ac_equals(x, y)
    assert ac_equals(x, x)


def test_ac_equals_base_mismatch():
    with pytest.raises(BaseMismatch):
        ac_equals(parse_ac_word(HW, "[w]"), parse_ac_word(HV, "[v]"))


def test_ac_equals_unchanged_by_extra_symbols():
    # appending a fresh symbol to both sides must not change the verdict,
    # since equality is decided on the joint commutation graph
    x = parse_ac_word(HSQ, "[a] [c]")
    y = parse_ac_word(HSQ, "[c] [a]")
    assert not ac_equals(x, y)
    pad = parse_ac_word(HSQ, "[b d]")
    assert not ac_equals(ac_concat(x, pad), ac_concat(y, pad))
    x2 = parse_ac_word(HSQ, "[a] [b]")
    y2 = parse_ac_word(HSQ, "[b] [a]")
    assert ac_equals(x2, y2)
    assert ac_equals(ac_concat(x2, pad), ac_concat(y2, pad))


def test_ac_canonical_sorts_commuting_symbols():
    k2 = CORPUS["k2"]
    h = raag_of_graph(k2)
    x = parse_ac_word(h, "[b] [a]")
    assert ac_text(ac_canonical(x)) == "[a] [b]"


def test_ac_concat_invert_power():
    x = parse_ac_word(HW, "[w] [w^2]")
    assert ac_text(ac_invert(x)) == "[w^2]^-1 [w]^-1"
    assert ac_equals(ac_concat(x, ac_invert(x)), parse_ac_word(HW, ""))
    assert ac_text(ac_power(parse_ac_word(HW, "[w]"), 3)) == "[w]^3"
    assert ac_text(ac_power(x, 0)) == ""


# -- counit and comultiplication ---------------------------------------------

def test_epsilon_examples():
    assert word_text(epsilon(parse_ac_word(HW, "[w]^2"))) == "w^2"
    assert word_text(epsilon(parse_ac_word(HW, "[w^2] [w^-1]"))) == "w"
    assert word_text(epsilon(parse_ac_word(HW, ""))) == ""


def test_epsilon_is_a_homomorphism():
    rng = random.Random(23)
    pool = [parse_word(SQUARE, t) for t in ("a", "b", "c d", "a^-1", "d")]
    for _ in range(60):
        x = ac_word(HSQ, [(rng.choice(pool), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))])
        y = ac_word(HSQ, [(rng.choice(pool), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))])
        assert equals(epsilon(ac_concat(x, y)), multiply(epsilon(x), epsilon(y)))


def test_delta_examples():
    x = parse_ac_word(HW, "[w]^2")
    d = delta(x)
    assert ac_text(d) == "[[w]]^2"
    assert isinstance(d.base, ACGroupHandle)
    assert ac_text(delta(parse_ac_word(HW, ""))) == ""
    assert ac_text(delta(parse_ac_word(HW, "[w] [w^2]"))) == "[[w]] [[w^2]]"


def test_ac_on_hom_examples():
    double = group_hom(HV, HW, {"v": parse_word(ONE_W, "w^2")})
    assert ac_text(ac_on_hom(double, parse_ac_word(HV, "[v]"))) == "[w^2]"
    simple = group_hom(HV, HW, {"v": parse_word(ONE_W, "w")})
    assert ac_text(ac_on_hom(simple, parse_ac_word(HV, "[v]"))) == "[w]"
    ident = a_on_hom(identity_hom(SQUARE))
    x = parse_ac_word(HSQ, "[a] [b c]")
    assert ac_equals(ac_on_hom(ident, x), x)


def test_ac_on_hom_base_mismatch():
    f = group_hom(HV, HW, {"v": parse_word(ONE_W, "w")})
    with pytest.raises(BaseMismatch):
        ac_on_hom(f, parse_ac_word(HW, "[w]"))


def test_epsilon_naturality():
    rng = random.Random(31)
    k2 = CORPUS["k2"]
    hk2 = raag_of_graph(k2)
    phi = validate_hom(SQUARE, k2, {"a": "a", "b": "b", "c": "a", "d": "b"})
    f = a_on_hom(phi)
    pool = [parse_word(SQUARE, t) for t in ("a", "b c", "d^-1", "c")]
    for _ in range(40):
        x = ac_word(HSQ, [(rng.choice(pool), rng.choice((1, -1, 2))) for _ in range(rng.randint(0, 3))])
        assert equals(epsilon(ac_on_hom(f, x)), f.apply(epsilon(x)))


COMONAD_BASES = ["one", "k2", "delta2", "square"]


@pytest.mark.parametrize("name", COMONAD_BASES)
def test_comonad_counit_laws_on_generators(name):
    g = CORPUS[name]
    h = raag_of_graph(g)
    for v in g.vertices:
        s = ac_word(h, [(parse_word(g, v), 1)])
        d = delta(s)
        # outer counit: multiply the wrapped symbols back out
        assert ac_equals(epsilon(d), s)
        # inner counit: unwrap each symbol in place
        inner = ac_map_symbols(d, epsilon, h)
        assert ac_equals(inner, s)


@pytest.mark.parametrize("name", COMONAD_BASES)
def test_comonad_coassociativity_on_generators(name):
    g = CORPUS[name]
    h = raag_of_graph(g)
    for v in g.vertices:
        s = ac_word(h, [(parse_word(g, v), 1)])
        d = delta(s)
        outer_twice = delta(d)
        inner_twice = ac_map_symbols(d, delta, ACGroupHandle(ACGroupHandle(h)))
        assert ac_equals(outer_twice, inner_twice)


# -- the vertex embedding ----------------------------------------------------

def test_eta_on_square_is_injective_on_edges():
    e = eta(SQUARE)
    assert e.source == SQUARE
    assert set(e.mapping.values()) == set(e.target.vertices)
    for u, v in SQUARE.sorted_edges():
        assert adjacent(e.target, e(u), e(v))
    assert len(e.target.edges) == len(SQUARE.edges)


def test_eta_on_free_graph_has_discrete_image():
    d2 = CORPUS["delta2"]
    e = eta(d2)
    assert e.target.edges == frozenset()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_eta_on_corpus_is_the_identity_onto_a_copy(name):
    g = CORPUS[name]
    e = eta(g)
    assert e.target == g
    assert e.mapping == {v: v for v in g.vertices}


# -- symbol words: pinned digest over seeded words ---------------------------

# sha256 of ac_text(ac_canonical(x)) and ac_equals(x, x with its letters
# reversed) for 150 seeded symbol words on each corpus graph: 0-6 letters,
# exponents in +-{1, 2}, over a pool of 1-4 non-identity symbols of 1-3
# syllables each; any change to the symbol canonical form or to symbol-word
# equality changes it.
_SYMBOL_DIGEST = "c79eed27adc6fb1f53f5fd85c0c44b6701483e61c56834b9443d958a2a7f1913"


def test_symbol_words_match_pinned_digest():
    rng = random.Random(2026)
    digest = hashlib.sha256()
    for g in CORPUS.values():
        h = raag_of_graph(g)
        for _ in range(150):
            pool, size = [], rng.randint(1, 4)
            while len(pool) < size:
                el = word_from_pairs(g, [(rng.choice(g.vertices), rng.choice((1, -1, 2)))
                                         for _ in range(rng.randint(1, 3))])
                if not is_identity(el):
                    pool.append(el)
            letters = [(rng.choice(pool), rng.choice((1, -1, 2, -2)))
                       for _ in range(rng.randint(0, 6))]
            x = ac_word(h, letters)
            reverse = ac_word(h, letters[::-1])
            digest.update(f"{ac_text(ac_canonical(x))}|{ac_equals(x, reverse)}\n".encode())
    assert digest.hexdigest() == _SYMBOL_DIGEST


def test_adjacency_matches_commutation_everywhere():
    for g in CORPUS.values():
        for u in g.vertices:
            for v in g.vertices:
                if u == v:
                    continue
                wu, wv = parse_word(g, u), parse_word(g, v)
                assert adjacent(g, u, v) == commutes(wu, wv)


# -- module caches -----------------------------------------------------------

def test_module_caches_are_bounded():
    caches = {}
    for info in pkgutil.iter_modules(raagkit.__path__):
        module = importlib.import_module(f"raagkit.{info.name}")
        for obj in vars(module).values():
            if hasattr(obj, "cache_info"):
                caches[f"{obj.__module__}.{obj.__qualname__}"] = obj.cache_info().maxsize
    assert len(caches) == 2, caches
    assert all(size is not None for size in caches.values()), caches


def test_graph_adjacency_is_built_once_and_reflexive():
    g = SQUARE
    assert g.adjacency is g.adjacency
    assert [[adjacent(g, u, v) for v in g.vertices] for u in g.vertices] == g.adjacency


def test_graph_used_only_for_canonical_forms_is_collected():
    g = validate_graph(["p", "q", "r"], [("p", "q")])
    assert word_text(canonical_form(parse_word(g, "q p q^-1 r"))) == "p r"
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def test_vertex_expressions_are_computed_once_per_handle(monkeypatch):
    calls = []
    search = functors._vertex_expressions
    monkeypatch.setattr(functors, "_vertex_expressions",
                        lambda h: calls.append(h) or search(h))
    generators = {"x": "a", "y": "b", "z": "c", "w": "d a"}
    h = handle_with_generators(SQUARE, generators)
    for text in ("d", "a d^2", "c b"):
        in_generators(h, parse_word(SQUARE, text))
    assert len(calls) == 1
    # an equal handle is another object, with expressions of its own
    in_generators(handle_with_generators(SQUARE, generators), parse_word(SQUARE, "d"))
    assert len(calls) == 2


# -- hypothesis: homs and symbol-word equality -------------------------------

_PROPERTY = settings(derandomize=True, deadline=None, database=None,
                     max_examples=100)


@st.composite
def small_graphs(draw, max_vertices=4):
    names = [f"v{i}" for i in range(draw(st.integers(1, max_vertices)))]
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]]
    return validate_graph(names, [p for p in pairs if draw(st.booleans())])


def small_words(g, max_syllables, exponents=(1, -1, 2, -2, 3)):
    syllable = st.tuples(st.sampled_from(g.vertices), st.sampled_from(exponents))
    return st.lists(syllable, max_size=max_syllables).map(lambda p: word_from_pairs(g, p))


@st.composite
def homs_and_words(draw):
    """An endomorphism of a default or disguised handle (one vertex v exposed
    as v u, or v^-1 on one vertex): vertex powers v -> v^e, then conjugation."""
    g = draw(small_graphs())
    vs = g.vertices
    generators = {v: v for v in vs}
    if draw(st.booleans()):
        v = draw(st.sampled_from(vs))
        others = [u for u in vs if u != v]
        generators[v] = f"{v} {draw(st.sampled_from(others))}" if others else f"{v}^-1"
    h = handle_with_generators(g, generators)
    powers = {v: draw(st.sampled_from((1, -1, 2, -3))) for v in vs}
    conj = draw(small_words(g, 3))
    images = {}
    for name, el in h.generator_items():
        powered = word_from_pairs(g, [(s.gen, s.exp * powers[s.gen]) for s in el.syllables])
        images[name] = multiply(multiply(conj, powered), invert(conj))
    return group_hom(h, h, images), draw(small_words(g, 8))


@_PROPERTY
@given(homs_and_words())
def test_hom_apply_is_a_fold_over_the_rewrite(case):
    f, word = case
    acc = f.target.identity()
    for name, exp in in_generators(f.source, word):
        acc = multiply(acc, power(f.image_of(name), exp))
    assert f.apply(word) == acc


@st.composite
def symbol_word_pairs(draw):
    """A graph, a pool of non-identity elements, and two symbol words over
    the pool as (pool index, exponent) letters, equal about half the time."""
    g = draw(small_graphs(max_vertices=3))
    element = small_words(g, 2, exponents=(1, -1)).filter(lambda w: not is_identity(w))
    pool = draw(st.lists(element, min_size=1, max_size=3))
    letter = st.tuples(st.integers(0, len(pool) - 1), st.sampled_from((1, -1, 2, -2)))
    a = draw(st.lists(letter, max_size=3))
    if draw(st.booleans()):
        return g, pool, a, draw(st.lists(letter, max_size=3))
    b = list(a)
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()) or len(b) < 2:
            i, e = draw(letter)
            at = draw(st.integers(0, len(b)))
            b[at:at] = [(i, 1 if e > 0 else -1), (i, -1 if e > 0 else 1)]
        else:
            at = draw(st.integers(0, len(b) - 2))
            b[at], b[at + 1] = b[at + 1], b[at]
    return g, pool, a, b


@_PROPERTY
@given(symbol_word_pairs())
def test_ac_equals_agrees_with_brute_force(case):
    g, pool, a, b = case
    # the symbol commutation graph by brute force: one vertex per distinct
    # element, an edge wherever two elements commute
    reps: list[int] = []
    vertex_of = {}
    for i, el in enumerate(pool):
        same = [j for j in reps if bf_equals(g, el, pool[j])]
        vertex_of[i] = f"s{same[0] if same else i}"
        if not same:
            reps.append(i)
    edges = [(f"s{i}", f"s{j}") for i in reps for j in reps if i < j
             and bf_equals(g, multiply(pool[i], pool[j]), multiply(pool[j], pool[i]))]
    symbols = validate_graph([f"s{i}" for i in reps], edges)

    def as_symbol_word(letters):
        return ac_word(raag_of_graph(g), [(pool[i], e) for i, e in letters])

    def as_word(letters):
        return word_from_pairs(symbols, [(vertex_of[i], e) for i, e in letters])

    assert ac_equals(as_symbol_word(a), as_symbol_word(b)) == \
        bf_equals(symbols, as_word(a), as_word(b))


@st.composite
def scrambled_symbol_words(draw):
    """A symbol word over the vertices of COLLIDING (its edges and random
    others), whose symbols include colliding texts such as [a b] and [a_b],
    and an equal copy: cancelling pairs inserted, next to each other or
    around a letter whose element commutes with theirs, and neighbours whose
    elements commute swapped."""
    names = COLLIDING.vertices
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]]
    g = validate_graph(names, [p for p in pairs
                               if p in COLLIDING.edges or draw(st.booleans())])
    element = small_words(g, 2, exponents=(1, -1)).filter(lambda w: not is_identity(w))
    pool = [parse_word(g, t) for t in ("a b", "a_b", "a_b0")]
    pool += draw(st.lists(element, max_size=2))
    exponent = st.sampled_from((1, -1, 2))
    letter = st.tuples(st.integers(0, len(pool) - 1), exponent)
    # the word holds no [a b] (pool[0]), so where the copy does, [a_b] is
    # named a_b_ in the copy's symbol graph and a_b in the word's
    a = draw(st.lists(st.tuples(st.integers(1, len(pool) - 1), exponent), max_size=4))
    b = list(a)
    for _ in range(draw(st.integers(0, 6))):
        i, e = draw(letter)
        at = draw(st.integers(0, len(b)))
        around = at < len(b) and commutes(pool[i], pool[b[at][0]])
        if around and draw(st.booleans()):
            b[at:at + 1] = [(i, e), b[at], (i, -e)]
        elif 0 < at < len(b) and draw(st.booleans()):
            if commutes(pool[b[at - 1][0]], pool[b[at][0]]):
                b[at - 1], b[at] = b[at], b[at - 1]
        else:
            b[at:at] = [(i, e), (i, -e)]
    h = raag_of_graph(g)
    return (ac_word(h, [(pool[i], e) for i, e in a]),
            ac_word(h, [(pool[i], e) for i, e in b]))


@_PROPERTY
@given(scrambled_symbol_words())
def test_equal_symbol_words_have_one_canonical_form_and_key(case):
    x, y = case
    assert ac_canonical(x) == ac_canonical(y)
    assert functors.ac_key(x) == functors.ac_key(y)


# -- symbol words: canonical letters and one key per word ----------------------

@st.composite
def symbol_word_material(draw):
    """A default handle, raw (unreduced) non-identity words as symbols, a
    symbol word's letters over them, and a word in the vertices."""
    g = draw(small_graphs(max_vertices=3))
    element = small_words(g, 3).filter(lambda w: not is_identity(w))
    pool = draw(st.lists(element, min_size=1, max_size=3))
    letter = st.tuples(st.sampled_from(pool), st.sampled_from((1, -1, 2, -2)))
    return (raag_of_graph(g), draw(st.lists(letter, max_size=4)),
            draw(st.lists(letter, max_size=3)), draw(small_words(g, 4)))


@_PROPERTY
@given(symbol_word_material())
def test_symbol_word_constructors_keep_canonical_letters(case):
    h, letters, more, word = case
    g = h.graph
    x = ac_word(h, letters)
    y = parse_ac_word(h, " ".join(f"[{word_text(el)}]^{exp}" for el, exp in more))
    images = {v: ac_word(h, letters + [(parse_word(g, v), 1)]) for v in g.vertices}
    made = [x, y, ac_concat(x, y, ac_invert(x)), ac_invert(y), ac_power(x, -3),
            ac_canonical(ac_concat(y, x)),
            ac_map_symbols(x, lambda el: Word(g, el.syllables + word.syllables), h),
            canonical_coalgebra(g).apply(word), make_coalgebra(h, images).apply(word)]
    for z in made:
        assert all(h.canonical(el) == el for el, _ in z.letters)
    outer = ACGroupHandle(h)
    assert all(outer.canonical(el) == el for el, _ in delta(ac_concat(x, y)).letters)
    # the symbols that recovery and search build their words from
    assert all(h.canonical(el) == el for el in enumerate_elements(h, 2))


def test_a_cached_symbol_graph_costs_no_key_or_canonical(monkeypatch):
    g = validate_graph(["p1", "p2", "p3"], [("p1", "p2")])
    h = raag_of_graph(g)
    x = parse_ac_word(h, "[p1 p3] [p2]^2 [p3 p1]^-1 [p3]")
    y = ac_canonical(x)
    assert functors.ac_key(x) == functors.ac_key(y)
    calls = []
    for name in ("key", "canonical"):
        method = getattr(GroupHandle, name)
        monkeypatch.setattr(GroupHandle, name, lambda self, el, name=name, method=method:
                            calls.append(name) or method(self, el))
    assert functors.ac_key(x) == functors.ac_key(y)
    assert ac_equals(x, y)
    assert not ac_equals(x, ac_invert(y))
    assert calls == []


def test_default_handle_is_kept_on_its_graph():
    g = validate_graph(["q1", "q2", "q3"], [("q1", "q2")])
    assert raag_of_graph(g) is raag_of_graph(g)
    assert canonical_coalgebra(g).group is raag_of_graph(g)
    graph_ref, handle_ref = weakref.ref(g), weakref.ref(raag_of_graph(g))
    del g
    gc.collect()
    assert graph_ref() is None and handle_ref() is None
