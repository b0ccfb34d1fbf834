"""The ``raag`` command.

Machine-readable results go to standard output, witnesses and progress notes
to standard error.  Exit codes are uniform across subcommands: 0 for an
affirmative answer or success, 1 for a negative answer or an exhausted
budget, 2 for any error.  ``--json`` switches stdout to the structured file
formats; the default is plain text, one fact per line.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import fileio
from .coalgebra import (
    canonical_coalgebra,
    check_coalgebra,
    cohom_to_graph_hom,
    is_cohomomorphism,
)
from .errors import BudgetExhausted, NotACoalgebra, RaagError
from .functors import a_on_hom, group_hom
from .graphs import equalizer, is_coreflexive_pair
from .recovery import (
    abelianization_rank,
    commutator_presentation,
    recover_graph,
    search_coalgebra,
)
from .words import (
    Word,
    canonical_form,
    central_form,
    commutes,
    equals,
    in_special_subgroup,
    parse_word,
    word_from_pairs,
    word_text,
)


def _emit(data) -> None:
    json.dump(data, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _word_display(text: str) -> str:
    return text if text else "1"


def cmd_nf(args) -> int:
    graph = fileio.load_graph(args.graph)
    w = parse_word(graph, args.word)
    if args.central:
        texts = [word_text(Word(graph, b)) for b in central_form(w).blocks]
        if args.json:
            _emit({"blocks": texts})
        else:
            print(" | ".join(texts) if texts else "1")
        return 0
    text = word_text(canonical_form(w))
    if args.json:
        _emit({"word": text})
    else:
        print(_word_display(text))
    return 0


def _verdict(args, result: bool) -> int:
    if args.json:
        _emit({"result": result})
    else:
        print("true" if result else "false")
    return 0 if result else 1


def cmd_eq(args) -> int:
    graph = fileio.load_graph(args.graph)
    w1 = parse_word(graph, args.word1)
    w2 = parse_word(graph, args.word2)
    return _verdict(args, equals(w1, w2))


def cmd_commutes(args) -> int:
    graph = fileio.load_graph(args.graph)
    w1 = parse_word(graph, args.word1)
    w2 = parse_word(graph, args.word2)
    return _verdict(args, commutes(w1, w2))


def _generator_table(path: str) -> dict:
    data = fileio._load_json(path)
    if isinstance(data, dict) and isinstance(data.get("map"), dict):
        data = data["map"]
    return fileio._texts(data, dict, f"{path}: expected an object generator -> word")


def _structure_map(coalg_path, graph_path, flag: str):
    if coalg_path:
        return fileio.load_coalgebra(coalg_path)
    if graph_path:
        return canonical_coalgebra(fileio.load_graph(graph_path))
    raise RaagError(f"need {flag} or {flag}-coalg")


def cmd_is_cohom(args) -> int:
    c_src = _structure_map(args.src_coalg, args.src, "--src")
    c_dst = _structure_map(args.dst_coalg, args.dst, "--dst")
    table = _generator_table(args.hom)
    images = {name: parse_word(c_dst.group.graph, text)
              for name, text in table.items()}
    f = group_hom(c_src.group, c_dst.group, images)
    ok, witness = is_cohomomorphism(f, c_src, c_dst)
    canonical_ends = c_src.group.is_default and c_dst.group.is_default
    if ok:
        phi = None
        if canonical_ends:
            phi = cohom_to_graph_hom(f, c_src, c_dst)
        if args.json:
            _emit({"result": True,
                   "map": phi.mapping if phi else None,
                   "witness": None})
        else:
            print("true")
            if phi is not None:
                for v in phi.source.vertices:
                    print(f"{v} -> {phi(v)}")
        return 0
    if args.json:
        _emit({"result": False, "map": None, "witness": str(witness)})
    else:
        print("false")
        print(str(witness), file=sys.stderr)
    return 1


def cmd_check_coalgebra(args) -> int:
    c = fileio.load_coalgebra(args.coalg)
    verdict = check_coalgebra(c)
    if args.json:
        _emit({"ok": verdict.ok, "verdict": verdict.describe()})
    else:
        print(verdict.describe())
    return 0 if verdict.ok else 1


def cmd_recover(args) -> int:
    c = fileio.load_coalgebra(args.coalg)
    verdict = check_coalgebra(c)
    if not verdict.ok:
        raise NotACoalgebra(verdict.describe())
    rank = abelianization_rank(commutator_presentation(c.group.graph))
    print(f"rank {rank}", file=sys.stderr)
    try:
        graph, _ = recover_graph(c, rank, args.max_length)
    except BudgetExhausted as exc:
        print(f"found {exc.found} of {exc.wanted}", file=sys.stderr)
        return 1
    _emit(fileio.graph_data(graph))
    return 0


def cmd_equalizer_test(args) -> int:
    alpha = fileio.load_hom(args.alpha)
    beta = fileio.load_hom(args.beta)
    rho = fileio.load_hom(args.rho)
    if not is_coreflexive_pair(alpha, beta, rho):
        print("error: not a coreflexive pair", file=sys.stderr)
        return 2
    theta, _ = equalizer(alpha, beta)
    f_alpha = a_on_hom(alpha)
    f_beta = a_on_hom(beta)
    src = alpha.source
    rng = random.Random(args.seed)
    agreements = 0
    violations = 0
    for _ in range(args.trials):
        n = rng.randint(0, args.max_len)
        pairs = [(rng.choice(src.vertices), rng.choice((1, -1)))
                 for _ in range(n)]
        g = word_from_pairs(src, pairs)
        if equals(f_alpha.apply(g), f_beta.apply(g)):
            agreements += 1
            if not in_special_subgroup(g, theta.vertices):
                violations += 1
    if args.json:
        _emit({"trials": args.trials, "agreements": agreements,
               "violations": violations})
    else:
        print(f"trials {args.trials}")
        print(f"agreements {agreements}")
        print(f"violations {violations}")
    return 0 if violations == 0 else 1


def cmd_search_coalgebra(args) -> int:
    p = fileio.load_presentation(args.presentation)
    wp = fileio.load_group(args.promise_graph)
    c = search_coalgebra(p, wp, args.symbol_budget, args.image_budget)
    if c is None:
        if args.json:
            _emit({"exhausted": True, "symbol_budget": args.symbol_budget,
                   "image_budget": args.image_budget})
        else:
            print("exhausted")
            print(f"symbol budget {args.symbol_budget}, "
                  f"image budget {args.image_budget}", file=sys.stderr)
        return 1
    _emit(fileio.coalgebra_data(c))
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="structured output instead of plain text")

    parser = argparse.ArgumentParser(
        prog="raag",
        description="Word problem, coalgebra checks and graph recovery "
                    "for graph groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nf", parents=[common],
                       help="canonical form of a word")
    p.add_argument("--graph", required=True, help="graph file")
    p.add_argument("--central", action="store_true",
                   help="print commuting blocks separated by ' | '")
    p.add_argument("word")
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("eq", parents=[common],
                       help="decide equality of two words")
    p.add_argument("--graph", required=True)
    p.add_argument("word1")
    p.add_argument("word2")
    p.set_defaults(func=cmd_eq)

    p = sub.add_parser("commutes", parents=[common],
                       help="decide whether two words commute")
    p.add_argument("--graph", required=True)
    p.add_argument("word1")
    p.add_argument("word2")
    p.set_defaults(func=cmd_commutes)

    p = sub.add_parser("is-cohom", parents=[common],
                       help="decide whether a homomorphism respects the "
                            "structure maps")
    p.add_argument("--src", help="source graph file")
    p.add_argument("--dst", help="target graph file")
    p.add_argument("--hom", required=True,
                   help="file mapping source generators to target words")
    p.add_argument("--src-coalg", help="coalgebra file overriding --src")
    p.add_argument("--dst-coalg", help="coalgebra file overriding --dst")
    p.set_defaults(func=cmd_is_cohom)

    p = sub.add_parser("check-coalgebra", parents=[common],
                       help="check the coalgebra axioms")
    p.add_argument("--coalg", required=True)
    p.set_defaults(func=cmd_check_coalgebra)

    p = sub.add_parser("recover", parents=[common],
                       help="rebuild the presentation graph from a coalgebra")
    p.add_argument("--coalg", required=True)
    p.add_argument("--max-length", type=int, default=3,
                   help="generator-length search radius (default 3)")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("equalizer-test", parents=[common],
                       help="sample words against the equalizer membership law")
    p.add_argument("--alpha", required=True, help="hom file")
    p.add_argument("--beta", required=True, help="hom file")
    p.add_argument("--rho", required=True, help="common retraction hom file")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--max-len", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_equalizer_test)

    p = sub.add_parser("search-coalgebra", parents=[common],
                       help="look for a structure map within budgets")
    p.add_argument("--presentation", required=True)
    p.add_argument("--promise-graph", required=True,
                   help="graph or handle file the presentation is promised "
                        "to realize")
    p.add_argument("--symbol-budget", type=int, required=True)
    p.add_argument("--image-budget", type=int, required=True)
    p.set_defaults(func=cmd_search_coalgebra)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RaagError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
