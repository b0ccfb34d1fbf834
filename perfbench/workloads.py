"""The four benchmark workloads and their query streams.

Each workload builds its fixed inputs once (``__init__``), then hands out
rounds of queries (``round(r)``).  A round has the same composition for every
``r``; its contents come from a generator seeded by the run seed and ``r``, so
the same seed always gives the same queries.  Every query carries a check that
runs after the timed call and compares the result with an answer known by
construction or by an independent reference.

Vertex names carry a per-round, per-instance prefix wherever an instance could
otherwise repeat across rounds.  Graphs and handles compare by value, so the
prefix keeps the program's module caches from carrying work from one instance
to the next: caches are shared within an instance, never across instances.

The program is touched only through the public functions of its modules,
looked up at call time, so a traced run sees every call.
"""

from __future__ import annotations

import io
import json
import os
import random
import resource
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from typing import Callable, NamedTuple

import raagkit as R
import raagkit.cli
import raagkit.fileio
from raagkit.oracle import bf_equals

ORACLE_LETTERS = 14


class Query(NamedTuple):
    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]


def _seeded(seed: int, *salt: int) -> random.Random:
    value = seed
    for s in salt:
        value = value * 1_000_003 + s
    return random.Random(value)


# -- graphs and words, built on the benchmark side ---------------------------

CORPUS = {
    "one": ("v", ""),
    "delta2": ("a b", ""),
    "delta3": ("a b c", ""),
    "k2": ("a b", "ab"),
    "k3": ("a b c", "ab ac bc"),
    "k4": ("a b c d", "ab ac ad bc bd cd"),
    "p3": ("a b c", "ab bc"),
    "p4": ("a b c d", "ab bc cd"),
    "square": ("a b c d", "ab bc cd da"),
    "star": ("a b c z", "za zb zc"),
    "c5": ("a b c d e", "ab bc cd de ea"),
    "paw": ("a b c d", "ab ac bc cd"),
}


def corpus_graph(name: str, prefix: str = ""):
    vertex_text, edge_text = CORPUS[name]
    vertices = [prefix + v for v in vertex_text.split()]
    edges = [(prefix + e[0], prefix + e[1]) for e in edge_text.split()]
    return R.validate_graph(vertices, edges)


def random_graph(rng: random.Random, names: list[str], density: float):
    """A uniformly random graph with exactly round(density * pairs) edges."""
    pairs = [(names[i], names[j])
             for i in range(len(names)) for j in range(i + 1, len(names))]
    return R.validate_graph(names, rng.sample(pairs, round(density * len(pairs))))


def adjacency(graph) -> set:
    out = set()
    for u, v in graph.edges:
        out.add((u, v))
        out.add((v, u))
    return out


def random_letters(rng, vertices, n):
    return [(rng.choice(vertices), rng.choice((1, -1))) for _ in range(n)]


def inverse_letters(seq):
    return [(v, -e) for v, e in reversed(seq)]


def scramble(rng, vertices, adj, seq, pairs):
    """An equal word: cancelling pairs inserted, then commuting swaps."""
    out = list(seq)
    for _ in range(pairs):
        i = rng.randrange(len(out) + 1)
        v, e = rng.choice(vertices), rng.choice((1, -1))
        out[i:i] = [(v, e), (v, -e)]
    for _ in range(len(out)):
        i = rng.randrange(len(out) - 1)
        if (out[i][0], out[i + 1][0]) in adj:
            out[i], out[i + 1] = out[i + 1], out[i]
    return out


def exponent_sums(pairs):
    net: dict = {}
    for v, e in pairs:
        net[v] = net.get(v, 0) + e
    return {v: e for v, e in net.items() if e}


def word(graph, seq):
    return R.word_from_pairs(graph, seq)


def text_of(seq) -> str:
    return " ".join(v if e == 1 else f"{v}^{e}" for v, e in seq)


def letter_count(seq) -> int:
    return sum(abs(e) for _, e in seq)


def oracle_agrees(graph, seq1, seq2, expected: bool) -> bool:
    """bf_equals on short pairs; longer pairs pass (the oracle's cap)."""
    if letter_count(seq1) + letter_count(seq2) > ORACLE_LETTERS:
        return True
    return bf_equals(graph, word(graph, seq1), word(graph, seq2)) == expected


def syllable_pairs(w):
    return tuple((s.gen, s.exp) for s in w.syllables)


class Workload:
    """Fixed inputs built once, then rounds of queries on demand."""

    name = ""
    trace_rounds = 1

    def __init__(self, seed: int, root: str, inprocess_cli: bool = False):
        self.seed = seed

    def warmup(self) -> list[Query]:
        raise NotImplementedError

    def round(self, r: int) -> list[Query]:
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self) -> None:
        pass


# -- wordproblem -------------------------------------------------------------

class WordProblem(Workload):
    """equals, canonical_form, commutes and power on long random words."""

    name = "wordproblem"
    trace_rounds = 4
    LENGTHS = (16, 32, 64, 128, 256, 512)
    BULK_GRAPH = 2
    BULK_LENGTH = 24
    BULK_QUERIES = 32
    OPS = ("equals_yes", "equals_no", "canonical_form", "commutes")
    COMMUTING_EXPONENTS = (250, 500, 1000, 2000)
    BIG_EXPONENTS = (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)

    # The graphs are the same for every seed, so that a seed changes the
    # words only; their structure moves query cost more than the words do.
    GRAPH_SEED = 20230913

    def __init__(self, seed: int, root: str, inprocess_cli: bool = False):
        super().__init__(seed, root)
        rng = random.Random(self.GRAPH_SEED)
        self.graphs = []
        for n, density in ((20, 0.1), (20, 0.5), (60, 0.1), (60, 0.5)):
            g = random_graph(rng, [f"v{i:02d}" for i in range(n)], density)
            adj = adjacency(g)
            apart = [(u, v) for u in g.vertices for v in g.vertices
                     if u != v and (u, v) not in adj]
            self.graphs.append((g, adj, g.sorted_edges(), apart))

    def warmup(self) -> list[Query]:
        rng = _seeded(self.seed, 2)
        out = [q for q in self.round(-1) if q.kind.endswith("@16")]
        g, _, edges, apart = self.graphs[0]
        out.append(self._power_commuting(rng, g, edges, 10))
        out.append(self._power_single(rng, g, 10))
        out.append(self._power_conjugate(rng, g, apart, 10))
        return out

    def round(self, r: int) -> list[Query]:
        """The same 69 queries by kind in every round.

        - The ladder: each length once per graph, the operation fixed by
          (graph, length), so each length meets every operation.
        - The bulk: equals on short words over one graph, half of them equal.
          Most queries are short, so the median latency is a short query's.
        - The power ladders, with the largest single-generator power twice,
          so that the tail sample falls among identical queries.
        """
        rng = _seeded(self.seed, 1, r)
        out = []
        for gi, ground in enumerate(self.graphs):
            for li, length in enumerate(self.LENGTHS):
                op = self.OPS[(gi + li) % len(self.OPS)]
                out.append(self._query(rng, op, ground, length))
        for i in range(self.BULK_QUERIES):
            out.append(self._query(rng, self.OPS[i % 2], self.graphs[self.BULK_GRAPH],
                                   self.BULK_LENGTH))
        for i in range(4):
            g, _, edges, apart = self.graphs[i]
            out.append(self._power_commuting(rng, g, edges, self.COMMUTING_EXPONENTS[i]))
            out.append(self._power_single(rng, g, self.BIG_EXPONENTS[i]))
            out.append(self._power_conjugate(rng, g, apart, self.BIG_EXPONENTS[i]))
        out.append(self._power_single(rng, self.graphs[0][0], self.BIG_EXPONENTS[-1]))
        return out

    def _query(self, rng, op, ground, length) -> Query:
        g, adj, edges, apart = ground
        vs = g.vertices
        kind = f"{op}@{length}"
        seq = random_letters(rng, vs, length)
        if op in ("equals_yes", "equals_no", "canonical_form"):
            other = scramble(rng, vs, adj, seq, max(1, length // 16))
            if op == "equals_no":
                other = other + [(rng.choice(vs), rng.choice((1, -1)))]
            w1, w2 = word(g, seq), word(g, other)
            if op == "canonical_form":
                expected_sums = exponent_sums(seq)

                def check(got):
                    pairs = syllable_pairs(got)
                    return (exponent_sums(pairs) == expected_sums
                            and letter_count(pairs) <= len(seq)
                            and got.syllables == R.canonical_form(w1).syllables)

                return Query(kind, lambda: R.canonical_form(w2), check)
            expected = op == "equals_yes"
            return Query(kind, lambda: R.equals(w1, w2), lambda got: got is expected)
        # commutes: conjugates x a x^-1 and x b x^-1 commute iff a, b do
        m = max(1, (length // 2 - 1) // 2)
        x = random_letters(rng, vs, m)
        a, b = rng.choice(apart) if rng.random() < 0.5 else rng.choice(edges)
        expected = (a, b) in adj
        left = word(g, x + [(a, 1)] + inverse_letters(x))
        right = word(g, x + [(b, 1)] + inverse_letters(x))
        return Query(kind, lambda: R.commutes(left, right), lambda got: got is expected)

    def _power_commuting(self, rng, g, edges, k) -> Query:
        """A word of two commuting letters: its power is one syllable each."""
        letters = [(v, rng.choice((1, -1))) for v in rng.choice(edges)]
        rng.shuffle(letters)
        expected = tuple(sorted((v, e * k) for v, e in letters))
        return Query(f"power_commuting@{k}",
                     lambda w=word(g, letters): R.power(w, k),
                     lambda got: syllable_pairs(got) == expected)

    def _power_single(self, rng, g, k) -> Query:
        v, e = rng.choice(g.vertices), rng.choice((1, -1))
        return Query(f"power_single@{k}",
                     lambda w=word(g, [(v, e)]): R.power(w, k),
                     lambda got: syllable_pairs(got) == ((v, e * k),))

    def _power_conjugate(self, rng, g, apart, k) -> Query:
        x, v = rng.choice(apart)
        s, e = rng.choice((1, -1)), rng.choice((1, -1))
        expected = ((x, s), (v, e * k), (x, -s))
        return Query(f"power_conjugate@{k}",
                     lambda w=word(g, [(x, s), (v, e), (x, -s)]): R.power(w, k),
                     lambda got: syllable_pairs(got) == expected)


# -- structure ---------------------------------------------------------------

class Structure(Workload):
    """Axiom checks, cohomomorphism tests and recovery on a stream of graphs."""

    name = "structure"
    trace_rounds = 3
    RANDOM_SIZES = tuple(range(6, 13))
    DENSITIES = (0.3, 0.7)
    RADIUS = 2

    def warmup(self) -> list[Query]:
        return self._instance(_seeded(self.seed, 2), corpus_graph("k2", "w_"))

    def round(self, r: int) -> list[Query]:
        """Round r's random graphs depend on r alone, not on the seed: graph
        structure moves query cost more than anything else, and the heaviest
        instances make the tail.  The seed picks the maps and homs."""
        rng = _seeded(self.seed, 3, r)
        shapes = _seeded(WordProblem.GRAPH_SEED, 3, r)
        graphs = [corpus_graph(name, f"r{r}c{i}_") for i, name in enumerate(CORPUS)]
        for n in self.RANDOM_SIZES:
            for di, density in enumerate(self.DENSITIES):
                prefix = f"r{r}n{n}d{di}_"
                names = [prefix + chr(ord("a") + i) for i in range(n)]
                graphs.append(random_graph(shapes, names, density))
        out = []
        for g in graphs:
            out.extend(self._instance(rng, g))
        return out

    def _instance(self, rng, g) -> list[Query]:
        vs = g.vertices
        n = len(vs)
        adj = adjacency(g)
        h = R.raag_of_graph(g)
        canon = R.canonical_coalgebra(g)
        disguised = self._disguised(rng, g, canon)

        def corrupt(v, image):
            images = {u: f"[{u}]" for u in vs}
            images[v] = image
            return R.make_coalgebra(h, images)

        v0 = rng.choice(vs)
        broken_edges = [(u, v, w) for u, v in g.sorted_edges() for w in vs
                        if w != v and (w, v) not in adj]
        if broken_edges:
            u, _, w = rng.choice(broken_edges)
            first = (corrupt(u, f"[{w}]"), "homomorphism")
        else:
            # edgeless and complete graphs admit no homomorphism failure
            first = (corrupt(v0, f"[{v0}^2]"), "counit")
        verdicts = [
            (canon, None),
            (disguised, None),
            first,
            (corrupt(v0, f"[{v0}]^2"), "counit"),
            (corrupt(v0, f"[{v0}^2] [{v0}^-1]"), "coassociativity"),
        ]
        out = []
        for c, failed in verdicts:
            out.append(Query(
                "check_coalgebra." + (failed or "ok"),
                lambda c=c: R.check_coalgebra(c),
                lambda got, failed=failed: got.ok is (failed is None)
                and got.failed == failed))
        induced = R.a_on_hom(self._graph_endomorphism(rng, g, adj))
        squaring = R.group_hom(h, h, {v: f"{v}^2" for v in vs})
        for f, expected in ((induced, True), (squaring, False)):
            out.append(Query(
                f"is_cohomomorphism.{'yes' if expected else 'no'}",
                lambda f=f: R.is_cohomomorphism(f, canon, canon),
                lambda got, e=expected: got[0] is e))
        for label, c in (("canonical", canon), ("disguised", disguised)):
            out.append(Query(
                f"recover_graph.{label}",
                lambda c=c: R.recover_graph(c, n, self.RADIUS),
                lambda got: recovered_correctly(got, g)))
        return out

    @staticmethod
    def _disguised(rng, g, canon):
        """The canonical structure carried over to a disguised generating set:
        one vertex v exposed as v u (or v^-1 on a one-vertex graph)."""
        vs = g.vertices
        generators = {v: v for v in vs}
        if len(vs) == 1:
            generators[vs[0]] = f"{vs[0]}^-1"
        else:
            v, u = rng.sample(vs, 2)
            generators[v] = f"{v} {u}"
        handle = R.handle_with_generators(g, generators)
        images = {name: R.ac_text(R.apply_structure(canon, el))
                  for name, el in handle.generator_items()}
        return R.make_coalgebra(handle, images)

    @staticmethod
    def _graph_endomorphism(rng, g, adj):
        """The identity with one vertex folded onto another, when that is a
        graph hom; the identity otherwise."""
        vs = g.vertices
        order = [(u, w) for u in vs for w in vs if u != w]
        rng.shuffle(order)
        for u, w in order:
            if all(x == w or (x, w) in adj for x in vs if (u, x) in adj):
                mapping = {v: v for v in vs}
                mapping[u] = w
                return R.validate_hom(g, g, mapping)
        return R.identity_hom(g)


def recovered_correctly(got, g) -> bool:
    """The recovered labeling is a vertex bijection that is an isomorphism;
    graphs_isomorphic confirms it within its ten-vertex limit."""
    recovered, labeling = got
    mapping = {}
    for name, el in labeling.items():
        if len(el.syllables) != 1 or el.syllables[0].exp != 1:
            return False
        mapping[name] = el.syllables[0].gen
    if sorted(mapping.values()) != sorted(g.vertices):
        return False
    back = {v: k for k, v in mapping.items()}
    try:
        R.validate_hom(recovered, g, mapping)
        R.validate_hom(g, recovered, back)
    except R.RaagError:
        return False
    if len(g.vertices) <= 10 and R.graphs_isomorphic(recovered, g) is None:
        return False
    return True


# -- search ------------------------------------------------------------------

OBFUSCATED_SQUARE = {"x": "a", "y": "b", "z": "c", "w": "d a"}
OBFUSCATED_SQUARE_RELATORS = (
    "x y x^-1 y^-1",
    "y z y^-1 z^-1",
    "z w x^-1 z^-1 x w^-1",
    "w x w^-1 x^-1",
)
DISGUISED = {
    # graph: (generating set, relators), each with a map within budget (2, 2)
    "k2": ({"x": "a", "y": "b a"}, ("x y x^-1 y^-1",)),
    "delta2": ({"x": "a", "y": "b a"}, ()),
    "square": (OBFUSCATED_SQUARE, OBFUSCATED_SQUARE_RELATORS),
}
Z2 = (["e", "g"], [[0, 1], [1, 0]], "g^2")
Z3 = (["e", "g", "h"], [[0, 1, 2], [1, 2, 0], [2, 0, 1]], "g^3")


class Search(Workload):
    """search_coalgebra on presentations whose outcome is known."""

    name = "search"
    trace_rounds = 1
    SMALL_BUDGET = (1, 1)
    LARGE_BUDGET = (2, 2)
    # k2 at (2, 2) runs several times a round, so that the tail sample falls
    # among identical searches for any round count from 2 to 5.
    K2_REPEATS = 4

    def warmup(self) -> list[Query]:
        return [self._corpus("w_", "k2", self.SMALL_BUDGET),
                self._table("z2", *Z2)]

    def round(self, r: int) -> list[Query]:
        """The same searches in the same order every round, quick ones first.
        The order is fixed because a search is slower straight after a slow
        one (the heap it leaves), enough to move the median.  The seed only
        renames: every instance's vertices get a seeded prefix, which keeps
        their relative order and so the work each search does."""
        rng = _seeded(self.seed, 4, r)
        tag = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(4)) + str(r)
        # the corpus runs twice at (1, 1), so that the median falls inside
        # the dense cluster of their latencies rather than at its edge
        out = [self._corpus(f"{tag}s{rep}{i}_", name, self.SMALL_BUDGET)
               for rep in range(2) for i, name in enumerate(CORPUS)]
        out.append(self._corpus(f"{tag}l_", "one", self.LARGE_BUDGET))
        for i, budget in enumerate(((1, 1), (2, 1))):
            out.append(self._disguised(f"{tag}x{i}_", "square", budget, False))
        out.append(self._table("z2", *Z2))
        out.append(self._table("z3", *Z3))
        for i in range(self.K2_REPEATS):
            out.append(self._corpus(f"{tag}k{i}_", "k2", self.LARGE_BUDGET))
        for i, name in enumerate(DISGUISED):
            out.append(self._disguised(f"{tag}d{i}_", name, self.LARGE_BUDGET, True))
        return out

    def _query(self, kind, p, wp, budget, expect_found) -> Query:
        def check(got):
            if got is None:
                return not expect_found
            return expect_found and R.check_coalgebra(got, relators=p.relators).ok

        return Query(kind, lambda: R.search_coalgebra(p, wp, *budget), check)

    def _corpus(self, prefix, name, budget) -> Query:
        g = corpus_graph(name, prefix)
        return self._query(f"commutator.{name}@{budget[0]},{budget[1]}",
                           R.commutator_presentation(g), R.raag_of_graph(g),
                           budget, True)

    def _disguised(self, prefix, name, budget, expect_found) -> Query:
        g = corpus_graph(name, prefix)
        generators, relators = DISGUISED[name]
        wp = R.handle_with_generators(
            g, {x: " ".join(prefix + t for t in w.split())
                for x, w in generators.items()})
        p = R.presentation(list(generators), relators)
        return self._query(f"disguised.{name}@{budget[0]},{budget[1]}",
                           p, wp, budget, expect_found)

    def _table(self, label, names, table, relator) -> Query:
        wp = R.FiniteTableGroup(names, table, [("g", 1)])
        return self._query(f"table.{label}@2,2", R.presentation(["g"], [relator]),
                           wp, self.LARGE_BUDGET, False)


# -- cli ---------------------------------------------------------------------

class CliResult(NamedTuple):
    code: int
    out: str
    err: str
    rss_kb: int


def clean(result: CliResult, code: int) -> bool:
    return result.code == code and "Traceback" not in result.err


# Runs one ``python -m raagkit.cli`` per line of JSON argv on stdin and
# answers with [exit code, peak RSS in KiB].  A child's peak RSS counts the
# RSS of the process that spawned it, so the children are spawned from this
# small process rather than from the benchmark, whose size varies.
LAUNCHER = r"""
import json, os, subprocess, sys
out_path, err_path = sys.argv[1:3]
for line in sys.stdin:
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen([sys.executable, "-m", "raagkit.cli", *json.loads(line)],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([proc.returncode, usage.ru_maxrss]), flush=True)
"""


class Cli(Workload):
    """The raag command, one subprocess per query, across all subcommands.

    In a traced run the same argument vectors go to ``raagkit.cli.main``
    in-process, so the layers below the command are traced as well.
    """

    name = "cli"
    trace_rounds = 3
    GRAPHS = ("p4", "square", "star", "paw")
    EQUALIZER_TRIALS = 100
    SLOW_SEARCHES = 4
    HUGE_EXPONENT_DIGITS = 5000

    def __init__(self, seed: int, root: str, inprocess_cli: bool = False):
        super().__init__(seed, root)
        self.inprocess = inprocess_cli
        self.dir = os.path.join(root, "perfbench", "out", f"cli-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        PYTHONHASHSEED="0")
        self.child_rss: list[int] = []
        self.out_path = self._path("stdout.txt")
        self.err_path = self._path("stderr.txt")
        rng = _seeded(seed, 5)
        self.square = self._write("square.json", self._graph_data(corpus_graph("square")))
        self.obfuscated = self._write("obfuscated.json", {
            "graph": "square.json", "generators": OBFUSCATED_SQUARE})
        self.obfuscated_presentation = self._write("obfuscated_presentation.json", {
            "generators": list(OBFUSCATED_SQUARE),
            "relators": list(OBFUSCATED_SQUARE_RELATORS)})
        self.bad_edge = self._write("bad_edge.json",
                                    {"vertices": ["a", "b"], "edges": [["a"]]})
        self.bad_vertices = self._write("bad_vertices.json",
                                        {"vertices": 5, "edges": []})
        self.launcher = None
        if not inprocess_cli:
            self.launcher = subprocess.Popen(
                [sys.executable, "-c", LAUNCHER, self.out_path, self.err_path],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                env=self.env, cwd=self.dir)
        digits = [str(rng.randint(1, 9))]
        digits += [str(rng.randint(0, 9)) for _ in range(self.HUGE_EXPONENT_DIGITS - 1)]
        self.huge_exponent = "".join(digits)

    def peak_rss_kb(self) -> int:
        """The largest peak RSS among the command processes run so far."""
        return max(self.child_rss, default=0) or super().peak_rss_kb()

    def close(self) -> None:
        if self.launcher is not None:
            self.launcher.stdin.close()
            self.launcher.wait(timeout=60)
            self.launcher.stdout.close()
        for name in os.listdir(self.dir):
            os.remove(os.path.join(self.dir, name))
        os.rmdir(self.dir)

    def _path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def _write(self, name: str, data) -> str:
        path = self._path(name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return path

    @staticmethod
    def _graph_data(g) -> dict:
        return {"vertices": list(g.vertices), "edges": [list(e) for e in g.sorted_edges()]}

    # -- running the command ---------------------------------------------------

    def run(self, argv: list[str]) -> CliResult:
        if self.inprocess:
            return self._run_inprocess(argv)
        self.launcher.stdin.write(json.dumps(argv) + "\n")
        self.launcher.stdin.flush()
        code, rss_kb = json.loads(self.launcher.stdout.readline())
        self.child_rss.append(rss_kb)
        with open(self.out_path) as out, open(self.err_path) as err:
            return CliResult(code, out.read(), err.read(), rss_kb)

    @staticmethod
    def _run_inprocess(argv: list[str]) -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = raagkit.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # an uncaught error ends the real process with 1
                traceback.print_exc()
                code = 1
        return CliResult(code, out.getvalue(), err.getvalue(), 0)

    # -- queries ---------------------------------------------------------------

    def warmup(self) -> list[Query]:
        return [self._query("warmup.nf", ["nf", "--graph", self.square, "b a"],
                            lambda got: clean(got, 0) and got.out == "a b\n")]

    def _query(self, kind, argv, check) -> Query:
        return Query(kind, lambda: self.run(argv), check)

    def round(self, r: int) -> list[Query]:
        rng = _seeded(self.seed, 6, r)
        g = corpus_graph(self.GRAPHS[r % len(self.GRAPHS)], f"r{r}_")
        gfile = self._write(f"g{r}.json", self._graph_data(g))
        out = (self._words(rng, g, gfile) + self._structure(rng, g, gfile, r)
               + self._search(g, gfile, r) + self._malformed(g, gfile))
        rng.shuffle(out)
        return out

    def _words(self, rng, g, gfile) -> list[Query]:
        vs, adj = g.vertices, adjacency(g)
        out = []
        seq = random_letters(rng, vs, 6)
        canon = text_of(syllable_pairs(R.canonical_form(word(g, seq)))) or "1"
        blocks = R.central_form(word(g, seq)).blocks
        central = " | ".join(text_of([(s.gen, s.exp) for s in b]) for b in blocks) or "1"
        out.append(self._query(
            "nf", ["nf", "--graph", gfile, text_of(seq)],
            lambda got, seq=seq: clean(got, 0) and got.out == canon + "\n"
            and self._nf_agrees(g, seq, got.out)))
        out.append(self._query(
            "nf.central", ["nf", "--graph", gfile, "--central", text_of(seq)],
            lambda got: clean(got, 0) and got.out == central + "\n"))

        seq = random_letters(rng, vs, 5)
        same = scramble(rng, vs, adj, seq, 1)
        other = seq + [(rng.choice(vs), 1)]
        for label, second, expected in (("yes", same, True), ("no", other, False)):
            out.append(self._query(
                f"eq.{label}", ["eq", "--graph", gfile, text_of(seq), text_of(second)],
                self._verdict(expected, lambda a=seq, b=second, e=expected:
                              oracle_agrees(g, a, b, e))))

        x = random_letters(rng, vs, 1)
        apart = [(u, v) for u in vs for v in vs if u != v and (u, v) not in adj]
        for label, (a, b) in (("yes", rng.choice(sorted(adj))), ("no", rng.choice(apart))):
            left = x + [(a, 1)] + inverse_letters(x)
            right = x + [(b, 1)] + inverse_letters(x)
            expected = label == "yes"
            out.append(self._query(
                f"commutes.{label}",
                ["commutes", "--graph", gfile, text_of(left), text_of(right)],
                self._verdict(expected, lambda p=left, q=right, e=expected:
                              oracle_agrees(g, p + q, q + p, e))))
        return out

    def _structure(self, rng, g, gfile, r) -> list[Query]:
        vs, adj = g.vertices, adjacency(g)
        out = []
        phi = Structure._graph_endomorphism(rng, g, adj)
        hom = self._write(f"hom{r}.json", phi.mapping)
        square_hom = self._write(f"square_hom{r}.json", {v: f"{v}^2" for v in vs})
        lines = "true\n" + "".join(f"{v} -> {phi(v)}\n" for v in vs)
        out.append(self._query(
            "is-cohom.yes", ["is-cohom", "--src", gfile, "--dst", gfile, "--hom", hom],
            lambda got: clean(got, 0) and got.out == lines))
        out.append(self._query(
            "is-cohom.no", ["is-cohom", "--src", gfile, "--dst", gfile, "--hom", square_hom],
            lambda got: clean(got, 1) and got.out == "false\n" and " != " in got.err))

        coalg = self._write(f"coalg{r}.json", {
            "group": self._graph_data(g), "images": {v: f"[{v}]" for v in vs}})
        v0 = rng.choice(vs)
        broken = self._write(f"broken{r}.json", {
            "group": self._graph_data(g),
            "images": {v: f"[{v}]^2" if v == v0 else f"[{v}]" for v in vs}})
        out.append(self._query(
            "check-coalgebra.ok", ["check-coalgebra", "--coalg", coalg],
            lambda got: clean(got, 0) and got.out == "coalgebra\n"))
        out.append(self._query(
            "check-coalgebra.counit", ["check-coalgebra", "--coalg", broken],
            lambda got: clean(got, 1) and got.out == f"counit failed at {v0}\n"))
        out.append(self._query(
            "recover", ["recover", "--coalg", coalg, "--max-length", "2"],
            lambda got: clean(got, 0) and f"rank {len(vs)}" in got.err
            and self._same_graph(got.out, g)))

        alpha, beta, rho = self._doubled_pair(g, [v0], r)
        trials = self.EQUALIZER_TRIALS
        out.append(self._query(
            "equalizer-test",
            ["equalizer-test", "--alpha", alpha, "--beta", beta, "--rho", rho,
             "--trials", str(trials), "--seed", str(rng.randrange(10 ** 6))],
            lambda got: clean(got, 0) and got.out.startswith(f"trials {trials}\n")
            and got.out.endswith("violations 0\n")))
        return out

    def _search(self, g, gfile, r) -> list[Query]:
        """Searches at budget (1, 1) on the round's graph, found and
        exhausted, and SLOW_SEARCHES searches at (2, 2) on fresh copies of
        delta2.  Those are the slowest queries of a round by a margin wider
        than the jitter of process start-up, so the tail sample falls among
        identical queries for any round count from 3 to 10."""
        found = self._path(f"found{r}.json")
        out = [
            self._found_query("search-coalgebra.found", g, gfile, f"{r}", 1, found),
            self._query(
                "search-coalgebra.exhausted",
                ["search-coalgebra", "--presentation", self.obfuscated_presentation,
                 "--promise-graph", self.obfuscated, "--symbol-budget", "1",
                 "--image-budget", "1"],
                lambda got: clean(got, 1) and got.out == "exhausted\n"),
        ]
        for i in range(self.SLOW_SEARCHES):
            d2 = corpus_graph("delta2", f"r{r}d{i}_")
            d2file = self._write(f"delta2_{r}_{i}.json", self._graph_data(d2))
            out.append(self._found_query("search-coalgebra.delta2", d2, d2file,
                                         f"{r}_{i}", 2, found))
        return out

    def _found_query(self, kind, g, gfile, tag, budget, found) -> Query:
        pres = self._write(f"presentation{tag}.json", {
            "generators": list(g.vertices),
            "relators": [f"{u} {v} {u}^-1 {v}^-1" for u, v in g.sorted_edges()]})
        return self._query(
            kind, ["search-coalgebra", "--presentation", pres, "--promise-graph", gfile,
                   "--symbol-budget", str(budget), "--image-budget", str(budget)],
            lambda got: clean(got, 0) and self._found_coalgebra(got.out, found, pres))

    def _malformed(self, g, gfile) -> list[Query]:
        """Inputs the exit-code contract says are errors (exit 2, no
        traceback).  At the seed each one escapes as a traceback or succeeds."""
        first = g.vertices[0]
        cases = (
            ("malformed.edge_arity", ["nf", "--graph", self.bad_edge, "a"]),
            ("malformed.vertices_not_list", ["nf", "--graph", self.bad_vertices, "a"]),
            ("malformed.huge_exponent",
             ["nf", "--graph", gfile, f"{first}^{self.huge_exponent}"]),
            ("malformed.non_ascii_digit", ["nf", "--graph", gfile, f"{first}^\u0663"]),
        )
        return [self._query(kind, argv, lambda got: clean(got, 2)) for kind, argv in cases]

    @staticmethod
    def _verdict(expected: bool, oracle: Callable[[], bool]):
        text = "true\n" if expected else "false\n"
        return lambda got: clean(got, 0 if expected else 1) and got.out == text and oracle()

    @staticmethod
    def _nf_agrees(g, seq, out_text) -> bool:
        printed = out_text.strip()
        got = R.parse_word(g, "" if printed == "1" else printed)
        return oracle_agrees(g, seq, syllable_pairs(got), True)

    @staticmethod
    def _same_graph(out_text, g) -> bool:
        recovered = raagkit.fileio.graph_from_data(json.loads(out_text))
        return R.graphs_isomorphic(recovered, g) is not None

    def _found_coalgebra(self, out_text, path, pres) -> bool:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(out_text)
        c = raagkit.fileio.load_coalgebra(path)
        p = raagkit.fileio.load_presentation(pres)
        return R.check_coalgebra(c, relators=p.relators).ok

    def _doubled_pair(self, g, subset, r) -> tuple[str, str, str]:
        """Hom files for a graph doubled on ``subset`` and its two inclusions,
        with the common retraction back onto g."""
        prime = {v: v + "_p" for v in subset}
        vertices = list(g.vertices) + [prime[v] for v in subset]
        edges = {tuple(e) for e in g.sorted_edges()}
        for v in subset:
            for u in g.vertices:
                if u != v and R.adjacent(g, u, v):
                    edges.add(tuple(sorted((prime[v], u))))
        doubled = {"vertices": vertices, "edges": sorted(list(e) for e in edges)}
        gdata = self._graph_data(g)
        back = {v: v for v in g.vertices}
        back.update({prime[v]: v for v in subset})
        files = []
        for label, src, dst, mapping in (
                ("alpha", gdata, doubled, {v: v for v in g.vertices}),
                ("beta", gdata, doubled, {v: prime.get(v, v) for v in g.vertices}),
                ("rho", doubled, gdata, back)):
            files.append(self._write(f"{label}{r}.json",
                                     {"source": src, "target": dst, "map": mapping}))
        return tuple(files)


WORKLOADS = {cls.name: cls for cls in (WordProblem, Structure, Search, Cli)}
