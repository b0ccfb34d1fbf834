import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import CORPUS, SQUARE, graph
from raagkit import (
    ACGroupHandle,
    EndsMismatch,
    GroupHom,
    NotACoalgebra,
    NotAHomomorphism,
    SearchSpaceTooLarge,
    UnknownGenerator,
    a_on_hom,
    ac_concat,
    ac_equals,
    ac_map_symbols,
    ac_text,
    adjacent,
    apply_structure,
    canonical_coalgebra,
    check_coalgebra,
    check_coassociativity,
    check_counit,
    cohom_to_graph_hom,
    delta,
    group_hom,
    handle_with_generators,
    is_cohomomorphism,
    is_homomorphism_to_acg,
    make_coalgebra,
    multiply,
    parse_word,
    raag_of_graph,
    validate_graph,
    validate_hom,
    word_from_pairs,
)
from raagkit import coalgebra

ONE_V = CORPUS["one"]
ONE_W = graph("w")
HV = raag_of_graph(ONE_V)
HW = raag_of_graph(ONE_W)


def coalg(handle, images):
    return make_coalgebra(handle, images)


# -- construction and application --------------------------------------------

def test_canonical_images_are_single_symbols():
    c = canonical_coalgebra(SQUARE)
    assert [ac_text(c.image_of(v)) for v in "abcd"] == ["[a]", "[b]", "[c]", "[d]"]


def test_canonical_on_empty_graph():
    from raagkit import validate_graph

    c = canonical_coalgebra(validate_graph([], []))
    assert c.images == ()


def test_make_coalgebra_requires_exact_generator_cover():
    with pytest.raises(UnknownGenerator):
        coalg(HV, {})
    with pytest.raises(UnknownGenerator):
        coalg(HV, {"v": "[v]", "x": "[v]"})


def test_apply_structure_examples():
    c_sq = canonical_coalgebra(SQUARE)
    assert ac_text(apply_structure(c_sq, parse_word(SQUARE, "a b"))) == "[a] [b]"
    c_v = canonical_coalgebra(ONE_V)
    assert ac_text(apply_structure(c_v, parse_word(ONE_V, "v^3"))) == "[v]^3"
    assert ac_text(apply_structure(c_v, parse_word(ONE_V, ""))) == ""


def test_structure_map_is_the_hom_into_its_symbol_group():
    c = canonical_coalgebra(SQUARE)
    assert isinstance(c, GroupHom)
    assert c.group is c.source
    assert c.target == ACGroupHandle(c.group)
    el = parse_word(SQUARE, "a b^2 c^-1 d")
    assert apply_structure(c, el) == c.apply(el)


def test_apply_structure_inverts_images():
    c = coalg(HV, {"v": "[v^2] [v^-1]"})
    assert ac_text(apply_structure(c, parse_word(ONE_V, "v^-1"))) == "[v^-1]^-1 [v^2]^-1"


# -- axiom checks ------------------------------------------------------------

def test_canonical_coalgebra_passes_everywhere():
    for g in CORPUS.values():
        assert check_coalgebra(canonical_coalgebra(g)).ok


def test_homomorphism_check_with_witness():
    h = raag_of_graph(SQUARE)
    bad = coalg(h, {"a": "[c]", "b": "[a]", "c": "[c]", "d": "[d]"})
    ok, witness = is_homomorphism_to_acg(bad)
    assert not ok
    assert witness == ("a", "b")
    verdict = check_coalgebra(bad)
    assert verdict.describe() == "homomorphism failed at (a,b)"


def test_homomorphism_check_is_only_about_commuting():
    k2 = CORPUS["k2"]
    h = raag_of_graph(k2)
    c = coalg(h, {"a": "[a]", "b": "[a b]"})
    assert is_homomorphism_to_acg(c) == (True, None)
    assert check_coalgebra(c).describe() == "counit failed at b"


def test_counit_failures():
    assert check_coalgebra(coalg(HV, {"v": "[v^2]"})).describe() == "counit failed at v"
    assert check_coalgebra(coalg(HV, {"v": "[v]^2"})).describe() == "counit failed at v"


def test_coassociativity_failure():
    verdict = check_coalgebra(coalg(HV, {"v": "[v^2] [v^-1]"}))
    assert verdict.describe() == "coassociativity failed at v"


def test_a_symbol_cancelling_from_the_image_need_not_be_fixed():
    # c(v^3) = [v]^3 is not [v^3], but [v^3] cancels from the canonical image
    assert check_coalgebra(coalg(HV, {"v": "[v^3] [v] [v^3]^-1"})).describe() == "coalgebra"


def test_transported_structure_is_still_a_coalgebra():
    # v -> [v^-1]^-1 is the canonical structure pushed through the
    # automorphism v -> v^-1; every axiom survives the transport
    c = coalg(HV, {"v": "[v^-1]^-1"})
    assert check_coalgebra(c).describe() == "coalgebra"


def test_direct_axiom_checks_demand_a_homomorphism():
    h = raag_of_graph(SQUARE)
    bad = coalg(h, {"a": "[c]", "b": "[a]", "c": "[c]", "d": "[d]"})
    with pytest.raises(NotAHomomorphism):
        check_counit(bad)
    with pytest.raises(NotAHomomorphism):
        check_coassociativity(bad)


def test_coassociativity_check_demands_the_counit():
    with pytest.raises(NotACoalgebra, match="counit failed at v"):
        check_coassociativity(coalg(HV, {"v": "[v^2]"}))


def count_axiom_runs(monkeypatch) -> list:
    """Record every map on which the homomorphism axiom, the first of the
    graph check, or the counit and coassociativity axioms run."""
    runs = []
    for name in ("is_homomorphism_to_acg", "_comonad_verdict"):
        check = getattr(coalgebra, name)
        monkeypatch.setattr(coalgebra, name,
                            lambda c, check=check, name=name: runs.append((name, c)) or check(c))
    return runs


def test_axioms_run_once_per_map_object(monkeypatch):
    runs = count_axiom_runs(monkeypatch)
    c = canonical_coalgebra(CORPUS["paw"])
    assert check_coalgebra(c).ok
    assert check_coalgebra(c).ok
    assert [name for name, _ in runs] == ["is_homomorphism_to_acg", "_comonad_verdict"]
    # an equal map is another object, with a verdict of its own
    twin = canonical_coalgebra(CORPUS["paw"])
    assert twin == c and twin is not c
    assert check_coalgebra(twin).ok
    assert len(runs) == 4 and all(m is twin for _, m in runs[2:])


def test_a_failed_verdict_is_kept_too(monkeypatch):
    runs = count_axiom_runs(monkeypatch)
    c = coalg(HV, {"v": "[v^2]"})
    assert check_coalgebra(c).describe() == "counit failed at v"
    assert check_coalgebra(c).describe() == "counit failed at v"
    assert len(runs) == 2


def test_direct_axiom_checks_on_good_input():
    c = canonical_coalgebra(SQUARE)
    assert check_counit(c) == (True, None)
    assert check_coassociativity(c) == (True, None)


# -- cohomomorphisms ---------------------------------------------------------

def test_one_vertex_map_is_a_cohomomorphism():
    f = group_hom(HV, HW, {"v": parse_word(ONE_W, "w")})
    ok, witness = is_cohomomorphism(
        f, canonical_coalgebra(ONE_V), canonical_coalgebra(ONE_W))
    assert ok and witness is None
    phi = cohom_to_graph_hom(f, canonical_coalgebra(ONE_V), canonical_coalgebra(ONE_W))
    assert phi is not None and phi("v") == "w"


def test_squaring_map_is_not_a_cohomomorphism():
    f = group_hom(HV, HW, {"v": parse_word(ONE_W, "w^2")})
    ok, witness = is_cohomomorphism(
        f, canonical_coalgebra(ONE_V), canonical_coalgebra(ONE_W))
    assert not ok
    assert str(witness) == "v: [w]^2 != [w^2]"
    assert cohom_to_graph_hom(
        f, canonical_coalgebra(ONE_V), canonical_coalgebra(ONE_W)) is None


def test_identity_is_a_cohomomorphism():
    c = canonical_coalgebra(SQUARE)
    f = a_on_hom(validate_hom(SQUARE, SQUARE, {v: v for v in SQUARE.vertices}))
    ok, _ = is_cohomomorphism(f, c, c)
    assert ok


def test_cohomomorphism_does_not_recheck_a_checked_coalgebra(monkeypatch):
    c = canonical_coalgebra(CORPUS["paw"])
    assert check_coalgebra(c).ok
    f = a_on_hom(validate_hom(c.group.graph, c.group.graph,
                              {v: v for v in c.group.graph.vertices}))
    runs = count_axiom_runs(monkeypatch)
    assert is_cohomomorphism(f, c, c)[0]
    assert runs == []


def test_identity_on_transported_coalgebra():
    c = coalg(HV, {"v": "[v^-1]^-1"})
    f = group_hom(HV, HV, {"v": parse_word(ONE_V, "v")})
    ok, _ = is_cohomomorphism(f, c, c)
    assert ok


def test_cohom_recovers_collapse_of_square():
    k2 = CORPUS["k2"]
    phi = validate_hom(SQUARE, k2, {"a": "a", "b": "b", "c": "a", "d": "b"})
    f = a_on_hom(phi)
    c_sq, c_k2 = canonical_coalgebra(SQUARE), canonical_coalgebra(k2)
    got = cohom_to_graph_hom(f, c_sq, c_k2)
    assert got is not None
    assert got.pairs == phi.pairs


def test_cohomomorphisms_compose():
    d2 = CORPUS["delta2"]
    k2 = CORPUS["k2"]
    hd, hk = raag_of_graph(d2), raag_of_graph(k2)
    f = group_hom(hd, hk, {"a": parse_word(k2, "a"), "b": parse_word(k2, "b")})
    g = group_hom(hk, hk, {"a": parse_word(k2, "b"), "b": parse_word(k2, "a")})
    cd, ck = canonical_coalgebra(d2), canonical_coalgebra(k2)
    assert is_cohomomorphism(f, cd, ck)[0]
    assert is_cohomomorphism(g, ck, ck)[0]
    composite = group_hom(hd, hk, {
        "a": g.apply(f.image_of("a")),
        "b": g.apply(f.image_of("b")),
    })
    assert is_cohomomorphism(composite, cd, ck)[0]


def test_cohomomorphism_rejects_mismatched_ends():
    f = group_hom(HV, HW, {"v": parse_word(ONE_W, "w")})
    c = canonical_coalgebra(SQUARE)
    with pytest.raises(EndsMismatch):
        is_cohomomorphism(f, c, canonical_coalgebra(ONE_W))


def test_cohomomorphism_rejects_non_coalgebras():
    f = group_hom(HV, HV, {"v": parse_word(ONE_V, "v")})
    broken = coalg(HV, {"v": "[v^2]"})
    with pytest.raises(NotACoalgebra):
        is_cohomomorphism(f, broken, canonical_coalgebra(ONE_V))


# -- pinned texts on the obfuscated square -----------------------------------

OBFUSCATED = handle_with_generators(SQUARE, {"x": "a", "y": "b", "z": "c", "w": "d a"})
OB_IMAGES = {"x": "[a]", "y": "[b]", "z": "[c]", "w": "[a] [d]"}
C_OB = coalg(OBFUSCATED, OB_IMAGES)


@pytest.mark.parametrize("word, text", [
    ("d^2", "[a] [d]^2 [a]^-1"),
    ("d^-3", "[a] [d]^-3 [a]^-1"),
    ("a^3 d^-1", "[a]^4 [d]^-1 [a]^-1"),
    ("d a^2 b^-2 c", "[a] [d] [a] [b]^-2 [c]"),
])
def test_apply_structure_texts_on_obfuscated_square(word, text):
    assert ac_text(apply_structure(C_OB, parse_word(SQUARE, word))) == text


@pytest.mark.parametrize("handle, c, images, witness", [
    (OBFUSCATED, C_OB, {"x": "a^3", "y": "b", "z": "c", "w": "d a^3"},
     "x: [a]^3 != [a^3]"),
    (OBFUSCATED, C_OB, {"x": "a", "y": "b^-2", "z": "c", "w": "d a"},
     "y: [b]^-2 != [b^-2]"),
    (raag_of_graph(SQUARE), canonical_coalgebra(SQUARE),
     {"a": "a", "b": "b", "c": "c", "d": "d^-1"}, "d: [d]^-1 != [d^-1]"),
])
def test_cohom_witness_texts(handle, c, images, witness):
    ok, got = is_cohomomorphism(group_hom(handle, handle, images), c, c)
    assert not ok
    assert str(got) == witness


@pytest.mark.parametrize("changes, text", [
    ({}, "coalgebra"),
    ({"w": "[d] [a]"}, "coalgebra"),
    ({"x": "[a]^3"}, "homomorphism failed at (c,d)"),
    ({"x": "[c]"}, "homomorphism failed at (a,d)"),
    ({"w": "[d a]"}, "homomorphism failed at (c,d)"),
    ({"y": "[b^2]"}, "counit failed at y"),
    ({"y": "[b^3] [b^-2]"}, "coassociativity failed at y"),
])
def test_verdict_texts_on_obfuscated_square(changes, text):
    assert check_coalgebra(coalg(OBFUSCATED, {**OB_IMAGES, **changes})).describe() == text


def test_relator_verdict_text():
    relators = [parse_word(validate_graph("xyzw", []), "x y x^-1 y^-1")]
    c = coalg(OBFUSCATED, {**OB_IMAGES, "y": "[c]"})
    assert check_coalgebra(c, relators=relators).describe() == \
        "homomorphism failed at relator x y x^-1 y^-1"


# -- exponents cost per syllable ---------------------------------------------

def test_cohom_witness_at_a_twelve_digit_exponent():
    k = 10**12
    f = group_hom(OBFUSCATED, OBFUSCATED,
                  {"x": f"a^{k}", "y": "b", "z": "c", "w": f"d a^{k}"})
    ok, witness = is_cohomomorphism(f, C_OB, C_OB)
    assert not ok
    assert str(witness) == f"x: [a]^{k} != [a^{k}]"


def test_coassociativity_of_a_split_power():
    k = 3000
    c = coalg(OBFUSCATED, {**OB_IMAGES, "y": f"[b^{k}] [b^{1 - k}]"})
    assert check_coalgebra(c).describe() == "coassociativity failed at y"


def test_long_power_of_a_symbol_word_is_refused():
    # ([b^k] [b^(1-k)])^k freely reduces to 2k letters
    k = 10**12
    c = coalg(OBFUSCATED, {**OB_IMAGES, "y": f"[b^{k}] [b^{1 - k}]"})
    with pytest.raises(SearchSpaceTooLarge):
        check_coalgebra(c)


# -- hypothesis: structure maps are multiplicative ---------------------------

_PROPERTY = settings(derandomize=True, deadline=None, database=None,
                     max_examples=100)


@st.composite
def structures_and_words(draw):
    """A homomorphism into the symbol group and two words: the obfuscated
    square's coalgebra, or a default handle sending each vertex v to a word
    in symbols [v^e], which commute wherever their vertices do."""
    if draw(st.booleans()):
        c, g = C_OB, SQUARE
    else:
        g = draw(st.sampled_from([CORPUS[n] for n in ("one", "k2", "delta2", "p3", "square")]))
        exps = st.sampled_from((1, -1, 2, -2))
        c = coalg(raag_of_graph(g), {
            v: " ".join(f"[{v}^{e}]^{k}" for e, k in draw(
                st.lists(st.tuples(exps, exps), min_size=1, max_size=3)))
            for v in g.vertices})
    word = st.lists(st.tuples(st.sampled_from(g.vertices), st.sampled_from((1, -1, 2, -3))),
                    max_size=6).map(lambda pairs: word_from_pairs(g, pairs))
    return c, draw(word), draw(word)


@_PROPERTY
@given(structures_and_words())
def test_apply_structure_is_multiplicative(case):
    c, g, h = case
    assert ac_equals(apply_structure(c, multiply(g, h)),
                     ac_concat(apply_structure(c, g), apply_structure(c, h)))


def nested_coassociativity(c) -> tuple[bool, str | None]:
    """Reference check of the axiom as its square reads: delta(c(x)) against c
    pushed inside the symbols of c(x), both words over symbol words."""
    outer = ACGroupHandle(c.group)
    for name, _ in c.group.generator_items():
        img = c.image_of(name)
        if not ac_equals(delta(img), ac_map_symbols(img, c.apply, outer)):
            return False, name
    return True, None


# Words in symbols [v^e] that multiply out to v.  A structure map fixes every
# symbol of v's image exactly when v's core is one of the first two.
_COUNITAL_CORES = ("[{v}]", "[{v}^-1]^-1", "[{v}^2] [{v}^-1]", "[{v}^-1] [{v}^2]",
                   "[{v}^3] [{v}^-1]^2", "[{v}^2]^-1 [{v}^3]")


@st.composite
def counital_structures(draw):
    """A homomorphism into the symbol group that passes the counit: each
    vertex v of a default handle, or y = b on the obfuscated square, goes to
    [s]^k core [s]^-k, with core one of the words above and s commuting with
    v.  Every symbol of the core is a power of v, so images of commuting
    generators commute, and [s] cancels from the canonical image."""
    if draw(st.booleans()):
        handle, images, varied = OBFUSCATED, dict(OB_IMAGES), {"y": "b"}
    else:
        g = draw(st.sampled_from([CORPUS[n] for n in ("one", "k2", "p3", "square", "paw")]))
        handle, images, varied = raag_of_graph(g), {}, {v: v for v in g.vertices}
    g = handle.graph
    for name, v in varied.items():
        core = draw(st.sampled_from(_COUNITAL_CORES)).format(v=v)
        s = draw(st.sampled_from([f"{v}^2", f"{v}^-1"] + [
            t for u in g.vertices if u != v and adjacent(g, u, v) for t in (u, f"{u}^-1 {v}")]))
        k = draw(st.sampled_from((0, 1, -1, 2)))
        images[name] = f"[{s}]^{k} {core} [{s}]^{-k}" if k else core
    return coalg(handle, images)


@_PROPERTY
@given(counital_structures())
@example(coalg(HV, {"v": "[v^2] [v^-1]"}))
@example(coalg(raag_of_graph(SQUARE), {"a": "[b]^2 [a^-1]^-1 [b]^-2", "b": "[b]",
                                       "c": "[c]", "d": "[a^-1 d] [d] [a^-1 d]^-1"}))
def test_fixed_symbol_check_agrees_with_the_nested_comparison(c):
    assert check_counit(c) == (True, None)
    ok, witness = nested_coassociativity(c)
    verdict = check_coalgebra(c)
    assert (verdict.ok, verdict.witness) == (ok, witness)
    assert verdict.failed == (None if ok else "coassociativity")
    assert check_coassociativity(c) == (ok, witness)
