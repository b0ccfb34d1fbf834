"""End-to-end runs of the raag command line against files on disk."""

import json
import os
import subprocess
import sys

import pytest

import raagkit
from raagkit.cli import main

SQUARE = {"vertices": ["a", "b", "c", "d"],
          "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]]}
K2 = {"vertices": ["a", "b"], "edges": [["a", "b"]]}
DELTA2 = {"vertices": ["a", "b"], "edges": []}
ONE_V = {"vertices": ["v"], "edges": []}
ONE_W = {"vertices": ["w"], "edges": []}

OBFUSCATED_COALG = {
    "group": {"graph": SQUARE,
              "generators": {"x": "a", "y": "b", "z": "c", "w": "d a"}},
    "images": {"x": "[a]", "y": "[b]", "z": "[c]", "w": "[a] [d]"},
}


# -- nf ----------------------------------------------------------------------

def test_nf_prints_canonical_form(write_json, capsys):
    g = write_json("g.json", SQUARE)
    assert main(["nf", "--graph", g, "d a c a^-1"]) == 0
    assert capsys.readouterr().out == "a d c a^-1\n"


def test_nf_identity_prints_one(write_json, capsys):
    g = write_json("g.json", SQUARE)
    assert main(["nf", "--graph", g, "a a^-1"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_nf_central_blocks(write_json, capsys):
    g = write_json("g.json", SQUARE)
    assert main(["nf", "--graph", g, "--central", "d a c a^-1"]) == 0
    assert capsys.readouterr().out == "a d | c | a^-1\n"


def test_nf_json(write_json, capsys):
    g = write_json("g.json", SQUARE)
    assert main(["nf", "--graph", g, "--json", "b a"]) == 0
    assert json.loads(capsys.readouterr().out) == {"word": "a b"}


# -- eq and commutes ---------------------------------------------------------

def test_eq_verdicts(write_json, capsys):
    g = write_json("g.json", SQUARE)
    assert main(["eq", "--graph", g, "a b", "b a"]) == 0
    assert capsys.readouterr().out == "true\n"
    assert main(["eq", "--graph", g, "a", "b"]) == 1
    assert capsys.readouterr().out == "false\n"


def test_eq_unknown_generator_is_an_error(write_json, capsys):
    g = write_json("g.json", SQUARE)
    assert main(["eq", "--graph", g, "q", "a"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("graph, word", [
    ({"vertices": ["a", "b"], "edges": [["a"]]}, "a"),
    ({"vertices": 5, "edges": []}, "a"),
    (SQUARE, "a^" + "1" * 5000),
    (SQUARE, "a^\u0663"),
], ids=["edge_arity", "vertices_not_list", "huge_exponent", "non_ascii_digit"])
def test_malformed_input_exits_2_without_traceback(write_json, graph, word):
    g = write_json("g.json", graph)
    src = os.path.dirname(os.path.dirname(raagkit.__file__))
    proc = subprocess.run([sys.executable, "-m", "raagkit.cli", "nf", "--graph", g, word],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_missing_file_is_an_error(capsys):
    assert main(["nf", "--graph", "/no/such/file.json", "a"]) == 2
    assert "error:" in capsys.readouterr().err


def test_commutes_verdicts(write_json, capsys):
    g = write_json("g.json", SQUARE)
    assert main(["commutes", "--graph", g, "a c", "c a"]) == 1
    assert capsys.readouterr().out == "false\n"
    assert main(["commutes", "--graph", g, "a c", "b d^-1"]) == 0
    assert capsys.readouterr().out == "true\n"


# -- is-cohom ----------------------------------------------------------------

def test_is_cohom_accepts_and_prints_vertex_map(write_json, capsys):
    src = write_json("src.json", ONE_V)
    dst = write_json("dst.json", ONE_W)
    hom = write_json("hom.json", {"v": "w"})
    assert main(["is-cohom", "--src", src, "--dst", dst, "--hom", hom]) == 0
    assert capsys.readouterr().out.splitlines() == ["true", "v -> w"]


def test_is_cohom_rejects_squaring_with_witness(write_json, capsys):
    src = write_json("src.json", ONE_V)
    dst = write_json("dst.json", ONE_W)
    hom = write_json("hom.json", {"v": "w^2"})
    assert main(["is-cohom", "--src", src, "--dst", dst, "--hom", hom]) == 1
    captured = capsys.readouterr()
    assert captured.out == "false\n"
    assert "v: [w]^2 != [w^2]" in captured.err


def test_is_cohom_accepts_map_wrapper(write_json, capsys):
    src = write_json("src.json", ONE_V)
    dst = write_json("dst.json", ONE_W)
    hom = write_json("hom.json", {"map": {"v": "w"}})
    assert main(["is-cohom", "--src", src, "--dst", dst, "--hom", hom]) == 0


def test_is_cohom_json(write_json, capsys):
    src = write_json("src.json", ONE_V)
    dst = write_json("dst.json", ONE_W)
    hom = write_json("hom.json", {"v": "w"})
    rc = main(["is-cohom", "--src", src, "--dst", dst, "--hom", hom, "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == {
        "result": True, "map": {"v": "w"}, "witness": None}


def test_is_cohom_invalid_hom_is_an_error(write_json, capsys):
    src = write_json("src.json", K2)
    dst = write_json("dst.json", DELTA2)
    hom = write_json("hom.json", {"a": "a", "b": "b"})
    assert main(["is-cohom", "--src", src, "--dst", dst, "--hom", hom]) == 2
    assert "NotAHomomorphism" in capsys.readouterr().err


# -- check-coalgebra ---------------------------------------------------------

def test_check_coalgebra_ok(write_json, capsys):
    c = write_json("c.json", {"group": ONE_V, "images": {"v": "[v]"}})
    assert main(["check-coalgebra", "--coalg", c]) == 0
    assert capsys.readouterr().out == "coalgebra\n"


def test_check_coalgebra_counit_failure(write_json, capsys):
    c = write_json("c.json", {"group": ONE_V, "images": {"v": "[v^2]"}})
    assert main(["check-coalgebra", "--coalg", c]) == 1
    assert capsys.readouterr().out == "counit failed at v\n"


def test_check_coalgebra_malformed_image_is_an_error(write_json, capsys):
    c = write_json("c.json", {"group": ONE_V, "images": {"v": "v"}})
    assert main(["check-coalgebra", "--coalg", c]) == 2
    assert "error:" in capsys.readouterr().err


# -- recover -----------------------------------------------------------------

def canonical_square_coalg():
    return {"group": SQUARE,
            "images": {v: f"[{v}]" for v in "abcd"}}


def test_recover_square(write_json, capsys):
    c = write_json("c.json", canonical_square_coalg())
    assert main(["recover", "--coalg", c]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {
        "vertices": ["a", "b", "c", "d"],
        "edges": [["a", "b"], ["a", "d"], ["b", "c"], ["c", "d"]]}
    assert "rank 4" in captured.err


def test_recover_reports_budget_exhaustion(write_json, capsys):
    c = write_json("c.json", OBFUSCATED_COALG)
    assert main(["recover", "--coalg", c, "--max-length", "1"]) == 1
    assert "found 3 of 4" in capsys.readouterr().err


def test_recover_obfuscated_handle(write_json, capsys):
    c = write_json("c.json", OBFUSCATED_COALG)
    assert main(["recover", "--coalg", c]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "vertices": ["a", "b", "c", "d"],
        "edges": [["a", "b"], ["a", "d"], ["b", "c"], ["c", "d"]]}


# -- equalizer-test ----------------------------------------------------------

def identity_pair(write_json):
    k2 = write_json("k2.json", K2)
    ident = {"source": "k2.json", "target": "k2.json",
             "map": {"a": "a", "b": "b"}}
    alpha = write_json("alpha.json", ident)
    beta = write_json("beta.json", ident)
    rho = write_json("rho.json", ident)
    return alpha, beta, rho


def test_equalizer_identity_pair(write_json, capsys):
    alpha, beta, rho = identity_pair(write_json)
    rc = main(["equalizer-test", "--alpha", alpha, "--beta", beta,
               "--rho", rho, "--trials", "50"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == [
        "trials 50", "agreements 50", "violations 0"]


def test_equalizer_disjoint_images(write_json, capsys):
    alpha = write_json("alpha.json",
                       {"source": ONE_V, "target": DELTA2, "map": {"v": "a"}})
    beta = write_json("beta.json",
                      {"source": ONE_V, "target": DELTA2, "map": {"v": "b"}})
    rho = write_json("rho.json",
                     {"source": DELTA2, "target": ONE_V,
                      "map": {"a": "v", "b": "v"}})
    rc = main(["equalizer-test", "--alpha", alpha, "--beta", beta,
               "--rho", rho, "--trials", "200", "--seed", "3"])
    assert rc == 0
    assert "violations 0" in capsys.readouterr().out


def test_equalizer_rejects_non_coreflexive(write_json, capsys):
    k2 = write_json("k2.json", K2)
    ident = {"source": "k2.json", "target": "k2.json",
             "map": {"a": "a", "b": "b"}}
    swap = {"source": "k2.json", "target": "k2.json",
            "map": {"a": "b", "b": "a"}}
    alpha = write_json("alpha.json", ident)
    beta = write_json("beta.json", ident)
    rho = write_json("rho.json", swap)
    rc = main(["equalizer-test", "--alpha", alpha, "--beta", beta,
               "--rho", rho])
    assert rc == 2
    assert "not a coreflexive pair" in capsys.readouterr().err


def test_equalizer_runs_are_deterministic(write_json, capsys):
    alpha, beta, rho = identity_pair(write_json)
    args = ["equalizer-test", "--alpha", alpha, "--beta", beta, "--rho", rho,
            "--trials", "30", "--seed", "7", "--json"]
    assert main(args) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out) == first


# -- search-coalgebra --------------------------------------------------------

def test_search_finds_one_vertex_structure(write_json, capsys):
    pres = write_json("p.json", {"generators": ["v"], "relators": []})
    g = write_json("g.json", ONE_V)
    rc = main(["search-coalgebra", "--presentation", pres, "--promise-graph", g,
               "--symbol-budget", "1", "--image-budget", "1"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == {
        "group": {"vertices": ["v"], "edges": []},
        "images": {"v": "[v]"}}


def test_search_reports_exhaustion(write_json, capsys):
    pres = write_json("p.json", {"generators": ["v"], "relators": []})
    g = write_json("g.json", ONE_V)
    rc = main(["search-coalgebra", "--presentation", pres, "--promise-graph", g,
               "--symbol-budget", "0", "--image-budget", "0"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == "exhausted\n"
    assert "symbol budget 0" in captured.err


# -- malformed JSON shapes and huge exponents --------------------------------

def raag(*args):
    src = os.path.dirname(os.path.dirname(raagkit.__file__))
    return subprocess.run([sys.executable, "-m", "raagkit.cli", *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))


@pytest.mark.parametrize("files, args", [
    ({"k2.json": K2,
      "alpha.json": {"source": "k2.json", "target": "k2.json",
                     "map": {"a": ["a"], "b": "b"}}},
     ["equalizer-test", "--alpha", "alpha.json", "--beta", "alpha.json",
      "--rho", "alpha.json"]),
    ({"c.json": {"group": {"graph": ONE_V, "generators": {"x": 5}},
                 "images": {"x": "[v]"}}},
     ["check-coalgebra", "--coalg", "c.json"]),
    ({"c.json": {"group": K2, "images": {"a": 5, "b": "[b]"}}},
     ["check-coalgebra", "--coalg", "c.json"]),
    ({"p.json": {"generators": ["v"], "relators": [5]}, "g.json": ONE_V},
     ["search-coalgebra", "--presentation", "p.json", "--promise-graph", "g.json",
      "--symbol-budget", "1", "--image-budget", "1"]),
    ({"p.json": {"generators": 5, "relators": []}, "g.json": ONE_V},
     ["search-coalgebra", "--presentation", "p.json", "--promise-graph", "g.json",
      "--symbol-budget", "1", "--image-budget", "1"]),
    ({"k2.json": K2, "hom.json": {"a": 7, "b": "b"}},
     ["is-cohom", "--src", "k2.json", "--dst", "k2.json", "--hom", "hom.json"]),
], ids=["hom_map_value_list", "handle_generator_number", "image_number",
        "relator_number", "generators_number", "cohom_table_number"])
def test_non_string_json_values_exit_2_without_traceback(write_json, files, args):
    paths = {name: write_json(name, data) for name, data in files.items()}
    proc = raag(*(paths.get(arg, arg) for arg in args))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_is_cohom_with_huge_exponent_is_false(write_json):
    k2 = write_json("k2.json", K2)
    hom = write_json("hom.json", {"a": "a", "b": "b^1000000000000"})
    proc = raag("is-cohom", "--src", k2, "--dst", k2, "--hom", hom)
    assert proc.returncode == 1
    assert proc.stdout == "false\n"


def test_check_coalgebra_with_huge_symbol_exponent_fails_counit(write_json):
    c = write_json("c.json", {"group": K2,
                              "images": {"a": "[a]^1000000000000", "b": "[b]"}})
    proc = raag("check-coalgebra", "--coalg", c)
    assert proc.returncode == 1
    assert proc.stdout == "counit failed at a\n"
