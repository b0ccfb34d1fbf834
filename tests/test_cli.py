"""End-to-end runs of the raag command line against files on disk."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# -- negative counts and long powers -----------------------------------------

@pytest.mark.parametrize("args", [
    ["equalizer-test", "--alpha", "alpha.json", "--beta", "alpha.json",
     "--rho", "alpha.json", "--max-len", "-1"],
    ["equalizer-test", "--alpha", "alpha.json", "--beta", "alpha.json",
     "--rho", "alpha.json", "--trials", "-3"],
    ["recover", "--coalg", "c.json", "--max-length", "-1"],
    ["search-coalgebra", "--presentation", "p.json", "--promise-graph", "g.json",
     "--symbol-budget", "-1", "--image-budget", "1"],
    ["search-coalgebra", "--presentation", "p.json", "--promise-graph", "g.json",
     "--symbol-budget", "1", "--image-budget", "-2"],
], ids=["max_len", "trials", "max_length", "symbol_budget", "image_budget"])
def test_negative_counts_are_usage_errors(write_json, args):
    paths = {
        "k2.json": write_json("k2.json", K2),
        "alpha.json": write_json("alpha.json", {"source": "k2.json", "target": "k2.json",
                                                "map": {"a": "a", "b": "b"}}),
        "c.json": write_json("c.json", canonical_square_coalg()),
        "p.json": write_json("p.json", {"generators": ["v"], "relators": []}),
        "g.json": write_json("g.json", ONE_V),
    }
    proc = raag(*(paths.get(arg, arg) for arg in args))
    assert proc.returncode == 2
    assert "must not be negative" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("k, code, out", [
    ("3", 1, "counit failed at a\n"),
    ("1000000000000", 2, ""),
])
def test_long_power_of_an_image_exits_2(write_json, k, code, out):
    images = {"a": f"[a c]^{k}", "b": "[b]", "c": "[c]", "d": "[d]"}
    c = write_json("c.json", {"group": SQUARE, "images": images})
    proc = raag("check-coalgebra", "--coalg", c)
    assert (proc.returncode, proc.stdout) == (code, out)
    assert "Traceback" not in proc.stderr
    if code == 2:
        assert proc.stderr.startswith("error: SearchSpaceTooLarge")


# -- fuzz: every loader and subcommand, in-process ---------------------------

_VERTICES = st.sampled_from(["a", "b", "c"])
_NAMES = st.sampled_from(["a", "b", "c", "x", "y"])
_WORDS = st.lists(st.tuples(_VERTICES, st.sampled_from(["", "^-1", "^2", "^12"])),
                  max_size=3).map(lambda ts: " ".join(v + e for v, e in ts))
_SYMBOL_WORDS = st.lists(st.tuples(_WORDS, st.sampled_from(["", "^-1", "^2"])),
                         max_size=2).map(lambda ts: " ".join(f"[{w}]{e}" for w, e in ts))
_TEXTS = _WORDS | _SYMBOL_WORDS | st.text(alphabet="abcxy^-12 []", max_size=8)
_COUNTS = st.sampled_from(["-1", "0", "1", "1"])


@st.composite
def _documents(draw):
    """One file of each kind over a common vertex set, mostly well formed."""
    vs = draw(st.lists(_VERTICES, unique=True, min_size=1, max_size=3))
    pairs = [[u, v] for i, u in enumerate(vs) for v in vs[i + 1:]]
    graph = {"vertices": vs, "edges": [p for p in pairs if draw(st.booleans())]}
    names = st.sampled_from(vs) | _NAMES
    group = st.just("g.json") | st.just(graph) | st.fixed_dictionaries({
        "graph": st.just("g.json"),
        "generators": st.dictionaries(names, _WORDS, min_size=1, max_size=3)})
    return {
        "g.json": graph,
        "h.json": draw(st.just(graph) | st.just({"vertices": vs[:1], "edges": []})),
        "f.json": draw(st.fixed_dictionaries({v: _WORDS for v in vs})
                       | st.dictionaries(names, _WORDS, max_size=3)
                       | st.fixed_dictionaries({
                           "source": st.just("g.json"), "target": st.just("g.json"),
                           "map": st.fixed_dictionaries({v: st.sampled_from(vs) for v in vs})
                           | st.dictionaries(names, names, max_size=3)})),
        "c.json": draw(st.fixed_dictionaries({
            "group": group,
            "images": st.fixed_dictionaries({v: _SYMBOL_WORDS for v in vs})
            | st.dictionaries(names, _SYMBOL_WORDS, max_size=3)})),
        "p.json": draw(st.fixed_dictionaries({
            "generators": st.just(vs) | st.lists(names, max_size=3),
            "relators": st.lists(_WORDS, max_size=2)})),
    }


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | _TEXTS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["vertices", "edges", "source", "target", "map",
                                       "group", "graph", "generators", "images",
                                       "relators", "a", "x"]), inner, max_size=3),
    max_leaves=8)


@st.composite
def _invocations(draw):
    """Files (a plausible document, any JSON value, raw text, or nothing) and
    the argv of one subcommand run over them."""
    files = {}
    for name, doc in draw(_documents()).items():
        kind = draw(st.sampled_from(["doc"] * 12 + ["json", "text", "missing"]))
        if kind == "doc":
            files[name] = json.dumps(doc)
        elif kind == "json":
            files[name] = json.dumps(draw(_JSON))
        elif kind == "text":
            files[name] = draw(st.text(max_size=6))
    cmd = draw(st.sampled_from(["nf", "eq", "commutes", "is-cohom", "check-coalgebra",
                                "recover", "equalizer-test", "search-coalgebra"]))
    if cmd == "nf":
        argv = ["nf", "--graph", "g.json", draw(_TEXTS)] + draw(st.sampled_from([[], ["--central"]]))
    elif cmd in ("eq", "commutes"):
        argv = [cmd, "--graph", "g.json", draw(_TEXTS), draw(_TEXTS)]
    elif cmd == "is-cohom":
        argv = ["is-cohom", "--src", "g.json", "--dst", "h.json", "--hom", "f.json"] + draw(
            st.sampled_from([[], ["--src-coalg", "c.json"], ["--dst-coalg", "c.json"]]))
    elif cmd == "check-coalgebra":
        argv = ["check-coalgebra", "--coalg", "c.json"]
    elif cmd == "recover":
        argv = ["recover", "--coalg", "c.json", "--max-length", draw(_COUNTS)]
    elif cmd == "equalizer-test":
        argv = ["equalizer-test", "--alpha", "f.json", "--beta", "f.json", "--rho", "f.json",
                "--trials", draw(_COUNTS), "--max-len", draw(_COUNTS)]
    else:
        argv = ["search-coalgebra", "--presentation", "p.json",
                "--promise-graph", draw(st.sampled_from(["g.json", "c.json"])),
                "--symbol-budget", draw(_COUNTS), "--image-budget", draw(_COUNTS)]
    return files, argv + draw(st.sampled_from([[], ["--json"]]))


@pytest.mark.filterwarnings("ignore::raagkit.IdentitySymbolWarning")
@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(_invocations())
def test_fuzzed_invocations_keep_the_exit_code_contract(case):
    files, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = [os.path.join(tmp, a) if a.endswith(".json") else a for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
                assert code == 2
    assert code in (0, 1, 2)
