"""Batch command-line front end.

Verbs mirror the library: ``graph`` for constructions and embedding search,
``word`` for group-word operations, ``group`` for cyclic reduction, pure
factors and centralizer witnesses, ``monoid`` for the trace operations,
``search phi`` for bounded realizability, ``conceal`` for the concealment
construction. Exit codes: 0 success/found/true, 1 exhausted/none/false,
2 usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import conceal as conceal_mod
from . import raag, trace
from .commgraph import commutes_along, phi_search
from .graphs import (
    ParseError,
    co_components,
    complement,
    connected_product,
    find_embedding,
    format_graph,
    parse_graph,
    resolve_name_collisions,
)
from .trace import Word


def _load_graph(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read file ({exc.strerror})", path) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 (byte {exc.start})", path) from exc
    return parse_graph(text, filename=path)


def _parse_word(graph, text, monoid=False):
    word = Word.parse(graph, text)
    if monoid and not word.is_positive:
        raise ValueError(f"inverse letters not allowed in a monoid word: {text!r}")
    return word


def _check_bound(max_len):
    # A bound below 1 covers no element, so its "ok" would certify nothing.
    if max_len < 1:
        raise ValueError("--max-len must be >= 1")


def _bool_exit(value):
    print("true" if value else "false")
    return 0 if value else 1


# -- graph commands -----------------------------------------------------


def cmd_graph_info(args):
    g = _load_graph(args.graph)
    print(f"vertices {len(g)}: " + " ".join(g.vertices))
    print(f"edges {g.edge_count}: " + " ".join(f"{u}-{v}" for u, v in g.edges()))
    print("degrees: " + " ".join(f"{v}={g.degree(v)}" for v in g.vertices))
    blocks = " ".join("{" + ",".join(b) + "}" for b in co_components(g))
    print(f"co-components: {blocks}")
    return 0


def cmd_graph_complement(args):
    print(format_graph(complement(_load_graph(args.graph))), end="")
    return 0


def cmd_graph_product(args):
    g = _load_graph(args.left)
    h = _load_graph(args.right)
    _, renaming = resolve_name_collisions(g, h)
    for old, new in sorted(renaming.items()):
        print(f"# renamed {old} -> {new}")
    print(format_graph(connected_product(g, h)), end="")
    return 0


def cmd_graph_embed(args):
    pattern = _load_graph(args.pattern)
    host = _load_graph(args.host)
    witness = find_embedding(pattern, host)
    if witness is None:
        print("none")
        return 1
    for v in pattern.vertices:
        print(f"{v} -> {witness[v]}")
    return 0


# -- word (group) commands ------------------------------------------------


def cmd_word_reduce(args):
    g = _load_graph(args.graph)
    print(raag.group_reduce(_parse_word(g, args.word)))
    return 0


def cmd_predicate(args):
    """``word`` or ``monoid`` ``equal``/``commute``: group_* or trace_* on
    the two words."""
    g = _load_graph(args.graph)
    monoid = args.command == "monoid"
    module, prefix = (trace, "trace") if monoid else (raag, "group")
    predicate = getattr(module, f"{prefix}_{args.subcommand}")
    return _bool_exit(
        predicate(
            _parse_word(g, args.left, monoid=monoid),
            _parse_word(g, args.right, monoid=monoid),
        )
    )


# -- group commands --------------------------------------------------------


def cmd_group_cyclic_reduce(args):
    g = _load_graph(args.graph)
    decomposition = raag.cyclic_reduce(_parse_word(g, args.word))
    print(f"p = {decomposition.p}")
    print(f"h = {decomposition.h}")
    return 0


def cmd_group_pure_factors(args):
    g = _load_graph(args.graph)
    factorization = raag.pure_factors(_parse_word(g, args.word))
    print(f"factors {len(factorization.factors)}")
    for base_element, exponent in factorization.factors:
        print(f"factor {exponent} {base_element}")
    return 0


def cmd_group_centralizer(args):
    g = _load_graph(args.graph)
    outcome = raag.centralizer_witness(
        _parse_word(g, args.left), _parse_word(g, args.right)
    )
    print(f"status={outcome.status}")
    if not outcome.found:
        return 1
    w = outcome.witness
    print(f"p = {w.p}")
    for (root, _), c in zip(outcome.factorization.factors, w.exponents):
        print(f"k1 {c} {root}")
    print(f"k2 = {w.k2}")
    return 0


# -- monoid commands ---------------------------------------------------------


def cmd_monoid_root(args):
    g = _load_graph(args.graph)
    root, exponent = trace.primitive_root(_parse_word(g, args.word, monoid=True))
    print(f"root = {root}")
    print(f"exponent = {exponent}")
    return 0


def cmd_monoid_product_embed(args):
    g = _load_graph(args.graph)
    table = trace.embed_into_product(g)
    words = [(text, _parse_word(g, text, monoid=True)) for text in args.words]
    print(f"rank1 = {table.rank1_count}")
    print(f"rank2 = {table.rank2_count}")
    for v in table.rho_coords:
        print(f"rho {v}")
    for x, y in table.sigma_coords:
        print(f"sigma {x} {y}")
    for text, word in words:
        coords = iter(table.evaluate(word))  # the counts, then the subsequences
        parts = [f"rho({v})={c}" for v, c in zip(table.rho_coords, coords)]
        parts += [
            f"sigma({x},{y})={'.'.join(seq) or '-'}"
            for (x, y), seq in zip(table.sigma_coords, coords)
        ]
        print(f"coords {text}: " + " ".join(parts))
    return 0


def cmd_monoid_comm_rank(args):
    g = _load_graph(args.graph)
    print(trace.max_free_commutative_rank(g))
    return 0


# -- search -------------------------------------------------------------------


def cmd_search_phi(args):
    target = _load_graph(args.target)
    ambient = _load_graph(args.ambient)
    _check_bound(args.max_len)
    report = phi_search(
        target, ambient, args.mode, args.max_len, strict=args.strict
    )
    lines = report.serialize().splitlines()
    if args.format == "text":  # status and bound on one line, then the count
        lines[:2] = [" ".join(lines[:2])]
        lines.append(f"candidates={report.candidates}")
    print("\n".join(lines))
    return 0 if report.found else 1


# -- conceal --------------------------------------------------------------------


def cmd_conceal_check(args):
    g = _load_graph(args.graph)
    report = conceal_mod.eligible(g)
    print("eligible" if report.eligible else "ineligible")
    for line in report.diagnostics:
        print(f"# {line}")
    return 0 if report.eligible else 1


def _concealment(g, path):
    try:  # an ineligible graph names its file, as a ParseError does
        return conceal_mod.build_concealment(g)
    except ValueError as exc:
        raise ParseError(str(exc), path) from exc


def cmd_conceal_build(args):
    result = _concealment(_load_graph(args.graph), args.graph)
    print(result.serialize(), end="")
    return 0


def cmd_conceal_verify(args):
    g = _load_graph(args.graph)
    _check_bound(args.max_len)
    result = _concealment(g, args.graph)
    no_embed = conceal_mod.verify_no_embedding(result)

    matches = commutes_along(result.gamma, "monoid", conceal_mod.monoid_phi_witness(result).members)

    report = conceal_mod.verify_tau_injective(result, args.max_len)
    checks = (
        ("no-embedding", no_embed, ""),
        ("phi-witness", matches, ""),
        ("tau-morphism", not report.morphism_failures, ""),
        ("tau-injective", not report.collisions,
         f" (bound={report.bound}, elements={report.element_count})"),
    )
    for name, ok, note in checks:
        print(f"{name}: {'ok' if ok else 'FAILED'}{note}")
    return 0 if all(ok for _, ok, _ in checks) else 1


# -- parser ---------------------------------------------------------------------


_REQUIRED = {"required": True}
_FILE = (("graph", {}),)
_ON_GRAPH = (("--graph", _REQUIRED),)
_WORD = _ON_GRAPH + (("word", {}),)
_PAIR = _ON_GRAPH + (("left", {}), ("right", {}))
# Accepted so existing scripts keep working; every search runs on one thread.
_JOBS = ("--jobs", {"type": int, "default": 1, "help": "accepted and ignored"})

GROUPS = (
    ("graph", "graph constructions and queries"),
    ("word", "group-word operations"),
    ("group", "group structure operations"),
    ("monoid", "trace monoid operations"),
    ("search", "bounded realizability search"),
    ("conceal", "concealment construction"),
)

# (group, name, handler, help, arguments as (name or flag, add_argument
# keywords) pairs)
COMMANDS = (
    ("graph", "info", cmd_graph_info, "summary of a graph file", _FILE),
    ("graph", "complement", cmd_graph_complement, "complement graph", _FILE),
    ("graph", "product", cmd_graph_product, "connected product of two graphs",
     (("left", {}), ("right", {}))),
    ("graph", "embed", cmd_graph_embed, "induced-subgraph embedding search",
     (("--pattern", _REQUIRED), ("--host", _REQUIRED))),
    ("word", "reduce", cmd_word_reduce, "canonical geodesic form", _WORD),
    ("word", "equal", cmd_predicate, "group equality", _PAIR),
    ("word", "commute", cmd_predicate, "group commutation", _PAIR),
    ("group", "cyclic-reduce", cmd_group_cyclic_reduce, "p h p^-1 decomposition", _WORD),
    ("group", "pure-factors", cmd_group_pure_factors,
     "pure factors of a cyclically reduced element", _WORD),
    ("group", "centralizer", cmd_group_centralizer, "centralizer witness", _PAIR),
    ("monoid", "equal", cmd_predicate, "projection-based equality", _PAIR),
    ("monoid", "commute", cmd_predicate, "monoid commutation", _PAIR),
    ("monoid", "root", cmd_monoid_root, "primitive root and exponent", _WORD),
    ("monoid", "product-embed", cmd_monoid_product_embed, "free-product embedding table",
     _ON_GRAPH + (("words", {"nargs": "*"}),)),
    ("monoid", "comm-rank", cmd_monoid_comm_rank, "largest free commutative rank", _ON_GRAPH),
    ("search", "phi", cmd_search_phi, "realize a target commutation graph", (
        ("--target", _REQUIRED),
        ("--ambient", _REQUIRED),
        ("--mode", {"choices": ("monoid", "group"), "required": True}),
        ("--max-len", {"type": int, "required": True}),
        ("--strict", {"action": "store_true", "help": "require pairwise-distinct elements"}),
        _JOBS,
        ("--format", {"choices": ("text", "records"), "default": "text"}),
    )),
    ("conceal", "check", cmd_conceal_check, "eligibility with diagnostics", _FILE),
    ("conceal", "build", cmd_conceal_build, "build and print the concealment", _FILE),
    ("conceal", "verify", cmd_conceal_verify, "run all concealment checks",
     _FILE + (("--max-len", {"type": int, "default": 3}), _JOBS)),
)

# ``word normal-form`` prints the same canonical form as ``word reduce``.
ALIASES = {("word", "reduce"): ["normal-form"]}


@functools.cache  # one parser per process; parse_args keeps no state in it
def build_parser():
    parser = argparse.ArgumentParser(
        prog="ggm",
        description="Graph monoid and graph group toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for name, help_text in GROUPS:
        group = sub.add_parser(name, help=help_text)
        groups[name] = group.add_subparsers(dest="subcommand", required=True)
    for group, name, handler, help_text, arguments in COMMANDS:
        p = groups[group].add_parser(
            name, help=help_text, aliases=ALIASES.get((group, name), [])
        )
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=handler)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
