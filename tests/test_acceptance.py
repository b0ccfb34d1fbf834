"""Acceptance sweep: one test per headline guarantee of the package.

Each test is self-contained and states in its docstring the guarantee it
pins down.  Several are exhaustive or heavily randomized and take a while;
they are the reason the full suite runs in minutes, not seconds.
"""

import itertools
import json
import random
import time

import pytest

from corpus import CORPUS, SQUARE, graph
from raagkit import (
    ACGroupHandle,
    NotAHomomorphism,
    a_on_hom,
    abelianization_rank,
    ac_equals,
    ac_map_symbols,
    ac_word,
    adjacent,
    canonical_coalgebra,
    canonical_form,
    check_coalgebra,
    commutator_presentation,
    delta,
    enumerate_homs,
    epsilon,
    equalizer,
    equals,
    graphs_isomorphic,
    group_hom,
    handle_with_generators,
    in_special_subgroup,
    is_cohomomorphism,
    is_coreflexive_pair,
    is_identity,
    parse_word,
    presentation,
    raag_of_graph,
    recover_graph,
    search_coalgebra,
    smith_normal_form,
    validate_graph,
    validate_hom,
    word_from_pairs,
)
from raagkit.cli import main as cli_main
from raagkit.fileio import graph_data, graph_from_data
from raagkit.oracle import bf_equals, bf_is_a_phi
from raagkit.words import Syllable, Word

OBFUSCATED_RELATORS = [
    "x y x^-1 y^-1",
    "y z y^-1 z^-1",
    "z w x^-1 z^-1 x w^-1",
    "w x w^-1 x^-1",
]


def signed_letters(g):
    return [(v, e) for v in g.vertices for e in (1, -1)]


def syllable_pairs(w):
    return tuple((s.gen, s.exp) for s in w.syllables)


def test_criterion_1(tmp_path, capsys):
    """The command line decides the one-generator structure question, with the
    exact witness when the squaring map fails, in under a second each way."""
    src = tmp_path / "src.json"
    src.write_text(json.dumps({"vertices": ["v"], "edges": []}))
    dst = tmp_path / "dst.json"
    dst.write_text(json.dumps({"vertices": ["w"], "edges": []}))
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"v": "w"}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"v": "w^2"}))

    start = time.perf_counter()
    rc = cli_main(["is-cohom", "--src", str(src), "--dst", str(dst),
                   "--hom", str(good)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.splitlines() == ["true", "v -> w"]
    assert elapsed < 1.0

    start = time.perf_counter()
    rc = cli_main(["is-cohom", "--src", str(src), "--dst", str(dst),
                   "--hom", str(bad)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == "false\n"
    assert "v: [w]^2 != [w^2]" in captured.err
    assert elapsed < 1.0


@pytest.mark.slow
def test_criterion_2():
    """Word equality agrees with a brute-force rewriting oracle on about a
    million checks over four graphs.

    Pairs with combined letter count up to 5 are compared directly; single
    words up to length 6 are compared against the identity.  Together these
    cover every pair of combined length up to 6, since w1 equals w2 exactly
    when w1 w2^-1 reduces to the identity.
    """
    total = 0
    for name in ("delta3", "k3", "p3", "square"):
        g = CORPUS[name]
        letters = signed_letters(g)
        empty = word_from_pairs(g, [])
        for combined in range(6):
            for l1 in range(combined + 1):
                l2 = combined - l1
                for s1 in itertools.product(letters, repeat=l1):
                    w1 = word_from_pairs(g, s1)
                    for s2 in itertools.product(letters, repeat=l2):
                        w2 = word_from_pairs(g, s2)
                        assert equals(w1, w2) == bf_equals(g, w1, w2)
                        total += 1
        for length in range(7):
            for seq in itertools.product(letters, repeat=length):
                u = word_from_pairs(g, seq)
                assert is_identity(u) == bf_equals(g, u, empty)
                total += 1
    assert total > 800_000


def exponent_model(seq, vertices):
    net = {}
    for gen, exp in seq:
        net[gen] = net.get(gen, 0) + exp
    return tuple((v, net[v]) for v in vertices if net.get(v))


def stack_model(seq):
    stack = []
    for gen, exp in seq:
        if stack and stack[-1] == (gen, -exp):
            stack.pop()
        else:
            stack.append((gen, exp))
    merged = []
    for gen, exp in stack:
        if merged and merged[-1][0] == gen:
            merged[-1][1] += exp
        else:
            merged.append([gen, exp])
    return tuple((g, e) for g, e in merged)


@pytest.mark.slow
def test_criterion_3():
    """Canonical forms realize the two structural models exhaustively to
    length 6: exponent vectors over complete graphs, free reduction over
    edgeless ones, for one to four generators."""
    for n in range(1, 5):
        vertices = [chr(ord("a") + i) for i in range(n)]
        kn = graph(" ".join(vertices),
                   " ".join(u + v for u, v in itertools.combinations(vertices, 2)))
        dn = graph(" ".join(vertices))
        letters = [(v, e) for v in vertices for e in (1, -1)]
        for length in range(7):
            for seq in itertools.product(letters, repeat=length):
                wk = word_from_pairs(kn, seq)
                assert syllable_pairs(canonical_form(wk)) == exponent_model(seq, vertices)
                wd = word_from_pairs(dn, seq)
                assert syllable_pairs(canonical_form(wd)) == stack_model(seq)


def test_criterion_4():
    """On every corpus graph the vertex-wise structure map passes the full
    axiom check, and the wrap and unwrap maps satisfy the counit and
    coassociativity laws on generators."""
    for g in CORPUS.values():
        assert check_coalgebra(canonical_coalgebra(g)).ok
        h = raag_of_graph(g)
        hh = ACGroupHandle(h)
        for v in g.vertices:
            s = ac_word(h, [(parse_word(g, v), 1)])
            d = delta(s)
            assert ac_equals(epsilon(d), s)
            assert ac_equals(ac_map_symbols(d, epsilon, h), s)
            assert ac_equals(delta(d), ac_map_symbols(d, delta, ACGroupHandle(hh)))


SMALL_CORPUS = ["one", "delta2", "k2", "delta3", "k3", "p3",
                "k4", "square", "star", "paw"]


def random_images(rng, src, dst):
    images = {}
    for v in src.vertices:
        if rng.random() < 1 / 3:
            images[v] = word_from_pairs(dst, [(rng.choice(dst.vertices), 1)])
        else:
            n = rng.randint(0, 2)
            images[v] = word_from_pairs(
                dst, [(rng.choice(dst.vertices), rng.choice((1, -1)))
                      for _ in range(n)])
    return images


@pytest.mark.slow
def test_criterion_5():
    """Structure-respecting homomorphisms are exactly the images of vertex
    maps.  Soundness: every enumerated vertex map is accepted and found again
    by brute force.  Completeness: on 500 random candidates per ordered pair
    of small graphs, acceptance coincides with the brute-force finder."""
    small = [CORPUS[name] for name in SMALL_CORPUS]
    assert all(len(g.vertices) <= 4 for g in small)
    rng = random.Random(20260823)
    for src in small:
        c_src = canonical_coalgebra(src)
        hs = raag_of_graph(src)
        for dst in small:
            c_dst = canonical_coalgebra(dst)
            hd = raag_of_graph(dst)
            vertex_maps = enumerate_homs(src, dst)
            for phi in vertex_maps:
                f = a_on_hom(phi)
                ok, witness = is_cohomomorphism(f, c_src, c_dst)
                assert ok, witness
                back = bf_is_a_phi(f, src, dst)
                assert back is not None
                assert all(back(v) == phi(v) for v in src.vertices)
            valid = 0
            draws = 0
            while valid < 500:
                draws += 1
                assert draws < 200_000
                images = random_images(rng, src, dst)
                try:
                    f = group_hom(hs, hd, images)
                except NotAHomomorphism:
                    # not a homomorphism, so no vertex map can induce it
                    for phi in vertex_maps:
                        assert any(
                            not equals(images[v],
                                       Word(dst, (Syllable(phi(v), 1),)))
                            for v in src.vertices)
                    continue
                accepted, _ = is_cohomomorphism(f, c_src, c_dst)
                matched = bf_is_a_phi(f, src, dst) is not None
                assert accepted == matched
                valid += 1


def test_criterion_6(tmp_path, capsys):
    """The presentation graph is rebuilt from the structure map alone: the
    recover command round-trips every corpus graph in bounded time with the
    vertex count confirmed by the abelianization, and a disguised generating
    set for the square is first given a structure map by search, then
    recovered."""
    for name, g in CORPUS.items():
        assert abelianization_rank(commutator_presentation(g)) == len(g.vertices)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "group": graph_data(g),
            "images": {v: f"[{v}]" for v in g.vertices}}))
        start = time.perf_counter()
        rc = cli_main(["recover", "--coalg", str(path)])
        assert time.perf_counter() - start < 10.0
        captured = capsys.readouterr()
        assert rc == 0
        assert f"rank {len(g.vertices)}" in captured.err
        recovered = graph_from_data(json.loads(captured.out))
        assert graphs_isomorphic(recovered, g)

    c = canonical_coalgebra(CORPUS["square"])
    _, labeling = recover_graph(c, 4, 2)
    for el in labeling.values():
        assert len(el.syllables) == 1 and el.syllables[0].exp == 1

    h = handle_with_generators(SQUARE,
                               {"x": "a", "y": "b", "z": "c", "w": "d a"})
    p = presentation(["x", "y", "z", "w"], OBFUSCATED_RELATORS)
    c = search_coalgebra(p, h, 2, 2)
    assert c is not None
    recovered, _ = recover_graph(c, 4, 2)
    assert graphs_isomorphic(recovered, SQUARE)


def doubled_pair(g, subset):
    prime = {v: v + "_p" for v in subset}
    vertices = list(g.vertices) + [prime[v] for v in subset]
    edges = set(g.edges)
    for v in subset:
        for u in g.vertices:
            if u != v and adjacent(g, u, v):
                edges.add(tuple(sorted((prime[v], u))))
    for u, v in itertools.combinations(subset, 2):
        if adjacent(g, u, v):
            edges.add(tuple(sorted((prime[u], prime[v]))))
    doubled = validate_graph(vertices, sorted(edges))
    alpha = validate_hom(g, doubled, {v: v for v in g.vertices})
    beta = validate_hom(g, doubled,
                        {v: prime.get(v, v) for v in g.vertices})
    back = {v: v for v in g.vertices}
    back.update({prime[v]: v for v in subset})
    rho = validate_hom(doubled, g, back)
    return alpha, beta, rho


def test_criterion_7():
    """Whenever a word has the same image under both arms of a coreflexive
    pair it lies in the subgroup on the equalizer vertices: over ten thousand
    random trials across twenty-plus doubled-vertex pairs, no violation."""
    rng = random.Random(7)
    pairs = []
    for g in CORPUS.values():
        subsets = [list(g.vertices)[:1]]
        if len(g.vertices) >= 2:
            subsets.append(list(g.vertices)[:2])
        for subset in subsets:
            pairs.append((g, doubled_pair(g, subset)))
    assert len(pairs) >= 20

    trials = 0
    agreements = 0
    for g, (alpha, beta, rho) in pairs:
        assert is_coreflexive_pair(alpha, beta, rho)
        theta, _ = equalizer(alpha, beta)
        f_alpha = a_on_hom(alpha)
        f_beta = a_on_hom(beta)
        for i in range(500):
            pool = theta.vertices if i % 2 == 0 and theta.vertices else g.vertices
            n = rng.randint(0, 8)
            w = word_from_pairs(g, [(rng.choice(pool), rng.choice((1, -1)))
                                    for _ in range(n)])
            trials += 1
            if equals(f_alpha.apply(w), f_beta.apply(w)):
                agreements += 1
                assert in_special_subgroup(w, theta.vertices)
    assert trials >= 10_000
    assert agreements > 0


def det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def test_criterion_8():
    """Invariant factors from the integer normal form are positive, divide in
    a chain, multiply to the determinant and report full rank, on a thousand
    random nonsingular 3x3 matrices and the pinned worked examples."""
    assert smith_normal_form([[2, 4], [6, 8]]) == ((2, 4), 2)
    assert smith_normal_form([[2, 0], [0, 3]]) == ((1, 6), 2)
    assert smith_normal_form([[0, 0], [0, 0]]) == ((), 0)

    rng = random.Random(823)
    seen = 0
    while seen < 1000:
        m = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        d = det3(m)
        if d == 0:
            continue
        invariants, rank = smith_normal_form([row[:] for row in m])
        assert rank == 3 and len(invariants) == 3
        assert all(x > 0 for x in invariants)
        assert invariants[1] % invariants[0] == 0
        assert invariants[2] % invariants[1] == 0
        assert invariants[0] * invariants[1] * invariants[2] == abs(d)
        seen += 1
