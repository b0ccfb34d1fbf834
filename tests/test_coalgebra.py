import pytest

from corpus import CORPUS, SQUARE, graph
from raagkit import (
    EndsMismatch,
    NotACoalgebra,
    NotAHomomorphism,
    UnknownGenerator,
    a_on_hom,
    ac_text,
    apply_structure,
    canonical_coalgebra,
    check_coalgebra,
    check_coassociativity,
    check_counit,
    cohom_to_graph_hom,
    group_hom,
    is_cohomomorphism,
    is_homomorphism_to_acg,
    make_coalgebra,
    parse_word,
    raag_of_graph,
    validate_hom,
)
from raagkit.coalgebra import _graph_verdict

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


def test_cohomomorphism_does_not_recheck_a_checked_coalgebra():
    c = canonical_coalgebra(CORPUS["paw"])
    assert check_coalgebra(c).ok
    f = a_on_hom(validate_hom(c.group.graph, c.group.graph,
                              {v: v for v in c.group.graph.vertices}))
    hits = _graph_verdict.cache_info().hits
    assert is_cohomomorphism(f, c, c)[0]
    assert _graph_verdict.cache_info().hits == hits + 2


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
