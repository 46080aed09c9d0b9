"""Command-line front end.

Exit codes: 0 verified/true/found, 1 false/none, 2 resource cap exceeded,
3 input error, a malformed command line included (``--help`` exits 0),
4 internal error: a broken invariant, a bug and never bad input.
"""

import argparse
import functools
import random
import sys

from .certificates import emit_certificate, parse_certificate, verify_certificate
from .covers import enumerate_expansions, expand_to_cover, transition_group
from .errors import CapExceeded, InternalInvariantError, WordInSubgroup
from .extensions import ExtensionChain, traversal_element
from .groups import DEFAULT_CAP, cayley_graph, fmt_perm
from .problems import (
    ProblemParseError,
    format_group_spec,
    parse_group_spec,
    parse_int,
    parse_integers,
    parse_problem,
    parse_words,
)
from .rational import member_product
from .separators import factorize, hall_separator, product_separator
from .stallings import contains, stallings_graph


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _problem(path):
    return parse_problem(_read(path))


def _first_subgroup(problem):
    groups = problem.subgroup_list()
    if not groups:
        raise ProblemParseError(None, "the file declares no subgroup")
    return groups[0]


def _the_word(problem, arg):
    if arg is not None:
        return problem.alphabet.parse(arg)
    if problem.word is None:
        raise ProblemParseError(None, "no word given on the command line or in the file")
    return problem.word


def _emit_dot(args, graph, base=None):
    if getattr(args, "dot", None):
        _write(args.dot, graph.to_dot(base=base))


def _emit_certificate(args, cert):
    """Print the certificate block, and write it to --out when given."""
    block = emit_certificate(cert)
    print(block, end="")
    if args.out:
        _write(args.out, block)


def cmd_stallings_build(args):
    problem = _problem(args.file)
    h = stallings_graph(problem.alphabet, _first_subgroup(problem))
    print(f"vertices: {h.graph.num_vertices}")
    print(f"geometric edges: {h.graph.num_geometric_edges}")
    print(f"rank: {h.graph.rank()}")
    _emit_dot(args, h.graph, base=h.base)
    return 0


def cmd_stallings_member(args):
    problem = _problem(args.file)
    h = stallings_graph(problem.alphabet, _first_subgroup(problem))
    ok = contains(h, problem.alphabet.parse(args.word))
    print("true" if ok else "false")
    return 0 if ok else 1


def cmd_cover_expand(args):
    problem = _problem(args.file)
    h = stallings_graph(problem.alphabet, _first_subgroup(problem))
    if args.all:
        enum = enumerate_expansions(h.graph, cap=args.cap)
        suffix = "" if enum.complete else f" (cap {args.cap} hit; enumeration incomplete)"
        print(f"expansions: {len(enum.expansions)}{suffix}")
        if not enum.complete:
            return 2
        return 0
    cover = expand_to_cover(h.graph)
    added = cover.graph.num_geometric_edges - cover.original_count
    print(f"vertices: {cover.graph.num_vertices}")
    print(f"added geometric edges: {added}")
    _emit_dot(args, cover.graph, base=h.base)
    return 0


def cmd_cover_group(args):
    problem = _problem(args.file)
    h = stallings_graph(problem.alphabet, _first_subgroup(problem))
    group = transition_group(expand_to_cover(h.graph))
    print(format_group_spec(group), end="")
    print(f"# order: {group.order(cap=args.cap)}")
    return 0


def cmd_group_cayley(args):
    group = parse_group_spec(_read(args.spec))
    cg = cayley_graph(group, cap=args.cap)
    print(f"vertices: {cg.graph.num_vertices}")
    print(f"geometric edges: {cg.graph.num_geometric_edges}")
    _emit_dot(args, cg.graph, base=cg.base)
    return 0


def cmd_ext_eval(args):
    group = parse_group_spec(_read(args.spec))
    chain = ExtensionChain(group, parse_integers(args.primes))
    word = group.alphabet.parse(args.word)
    elem = chain.top.evaluate(word)
    for lvl in range(len(chain.levels) - 1, 0, -1):
        vec, elem = elem
        print(f"level {lvl} vector ({len(vec)} edges):")
        for (src, x), c in vec:
            print(f"  ({src!r}, {group.alphabet.symbols[x - 1]}): {c}")
    print(f"group part: {fmt_perm(elem)}")
    return 0


def cmd_ext_check_star(args):
    group = parse_group_spec(_read(args.spec))
    chain = ExtensionChain(group, (args.prime,))
    rng = random.Random(args.seed)
    letters = group.alphabet.letters()
    failures = 0
    for _ in range(args.count):
        word = tuple(rng.choice(letters) for _ in range(rng.randrange(args.max_len + 1)))
        # ties both the group law and evaluate to the traversal identity
        expected = traversal_element(chain.top, word)
        product = functools.reduce(chain.top.mult, map(chain.top.gen, word),
                                   chain.top.identity)
        if chain.top.evaluate(word) != expected or product != expected:
            failures += 1
    print(f"traversal identity: {args.count - failures}/{args.count} passed")
    return 0 if failures == 0 else 1


def cmd_separate_hall(args):
    problem = _problem(args.file)
    word = _the_word(problem, args.word)
    gens = _first_subgroup(problem)
    try:
        cert = hall_separator(problem.alphabet, gens, word)
    except WordInSubgroup:
        print("the word lies in the subgroup; no separator exists")
        return 1
    print(f"separating quotient on {cert.carrier} vertices, "
          f"base vertex {cert.base} moved by the word")
    _emit_certificate(args, cert)
    return 0


def cmd_separate_product(args):
    problem = _problem(args.file)
    word = _the_word(problem, args.word)
    primes = parse_integers(args.primes) if args.primes else problem.primes
    cert = product_separator(problem.alphabet, problem.subgroup_list(), word,
                             primes=primes, cap=args.cap)
    if cert.excluded is None:
        print("partial: product image not enumerated (cap)")
    elif cert.excluded:
        print("separated: the word's image avoids the image product")
    else:
        print("not separated: the word's image lies in the image product")
    _emit_certificate(args, cert)
    if cert.excluded is None:
        return 2
    return 0 if cert.excluded else 1


def cmd_factorize(args):
    problem = _problem(args.file)
    word = _the_word(problem, args.word)
    primes = parse_integers(args.primes) if args.primes else problem.primes
    seeds = None
    if args.seeds:
        seeds = parse_words(problem.alphabet, args.seeds)
    result = factorize(problem.alphabet, problem.subgroup_list(), word,
                       seeds=seeds, primes=primes, cap=args.cap)
    if result is None:
        print("no factorization found")
        return 1
    print("factors: " + " * ".join(problem.alphabet.format(f) for f in result.factors))
    _emit_certificate(args, result)
    return 0


def cmd_oracle_member(args):
    problem = _problem(args.file)
    word = problem.alphabet.parse(args.word)
    hs = [stallings_graph(problem.alphabet, gens) for gens in problem.subgroup_list()]
    ok = member_product(hs, word)
    print("true" if ok else "false")
    return 0 if ok else 1


def cmd_verify(args):
    cert = parse_certificate(_read(args.file))
    ok, messages = verify_certificate(cert, cap=args.cap)
    for message in messages:
        print(message)
    print("verified" if ok else "REJECTED")
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 3, an input error.

    argparse's own code 2 would read as a cap hit.  Subcommand parsers
    are made of the same class.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _integer(what, low=None):
    """An argparse type: an integer in ASCII digits, at least low when given
    (0 or 1).  argparse's message names the flag."""
    def parse(text):
        try:
            value = parse_int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {what} {text!r}") from None
        if low is not None and value < low:
            bound = "positive" if low else "non-negative"
            raise argparse.ArgumentTypeError(f"{what} must be {bound}, got {value}")
        return value
    return parse


_cap = _integer("cap", 1)


def build_parser():
    parser = _Parser(
        prog="prodsep",
        description="Stallings graphs, covering expansions, and separators "
                    "for products of subgroups of free groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    # stallings
    st = sub.add_parser("stallings", help="subgroup graphs").add_subparsers(
        dest="sub", required=True)
    p = st.add_parser("build", help="build and report the subgroup graph")
    p.add_argument("file")
    p.add_argument("--dot", help="write the graph in DOT format to this path")
    p.set_defaults(func=cmd_stallings_build)
    p = st.add_parser("member", help="test membership in the subgroup")
    p.add_argument("file")
    p.add_argument("word")
    p.set_defaults(func=cmd_stallings_member)

    # cover
    cv = sub.add_parser("cover", help="covering expansions").add_subparsers(
        dest="sub", required=True)
    p = cv.add_parser("expand", help="expand the subgroup graph to a covering")
    p.add_argument("file")
    p.add_argument("--all", action="store_true", help="enumerate all expansions")
    p.add_argument("--cap", type=_cap, default=1000)
    p.add_argument("--dot")
    p.set_defaults(func=cmd_cover_expand)
    p = cv.add_parser("group", help="transition group of the canonical expansion")
    p.add_argument("file")
    p.add_argument("--cap", type=_cap, default=DEFAULT_CAP)
    p.set_defaults(func=cmd_cover_group)

    # group
    gr = sub.add_parser("group", help="permutation groups").add_subparsers(
        dest="sub", required=True)
    p = gr.add_parser("cayley", help="Cayley graph of a group spec")
    p.add_argument("spec")
    p.add_argument("--cap", type=_cap, default=DEFAULT_CAP)
    p.add_argument("--dot")
    p.set_defaults(func=cmd_group_cayley)

    # ext
    ex = sub.add_parser("ext", help="p-elementary extensions").add_subparsers(
        dest="sub", required=True)
    p = ex.add_parser("eval", help="evaluate a word in an extension chain")
    p.add_argument("spec")
    p.add_argument("word")
    p.add_argument("--prime", dest="primes", default="2",
                   help="prime, or comma-separated primes for a chain")
    p.set_defaults(func=cmd_ext_eval)
    p = ex.add_parser("check-star", help="spot-check the traversal identity")
    p.add_argument("spec")
    p.add_argument("--prime", type=_integer("prime"), default=2)
    p.add_argument("--count", type=_integer("count", 1), default=100)
    p.add_argument("--seed", type=_integer("seed"), default=0)
    p.add_argument("--max-len", type=_integer("length", 0), default=20)
    p.set_defaults(func=cmd_ext_check_star)

    # separate
    se = sub.add_parser("separate", help="separator witnesses").add_subparsers(
        dest="sub", required=True)
    p = se.add_parser("hall", help="separate a word from one subgroup")
    p.add_argument("file")
    p.add_argument("word", nargs="?")
    p.add_argument("--out", help="also write the certificate to this path")
    p.set_defaults(func=cmd_separate_hall)
    p = se.add_parser("product", help="separate a word from a product coset")
    p.add_argument("file")
    p.add_argument("word", nargs="?")
    p.add_argument("--primes")
    p.add_argument("--cap", type=_cap, default=DEFAULT_CAP)
    p.add_argument("--out")
    p.set_defaults(func=cmd_separate_product)

    # factorize
    p = sub.add_parser("factorize", help="factor a word across subgroups")
    p.add_argument("file")
    p.add_argument("word", nargs="?")
    p.add_argument("--seeds", help="comma-separated seed words, one per subgroup")
    p.add_argument("--primes")
    p.add_argument("--cap", type=_cap, default=DEFAULT_CAP)
    p.add_argument("--out")
    p.set_defaults(func=cmd_factorize)

    # oracle
    orc = sub.add_parser("oracle", help="rational-subset oracle").add_subparsers(
        dest="sub", required=True)
    p = orc.add_parser("member", help="membership in the product of the subgroups")
    p.add_argument("file")
    p.add_argument("word")
    p.set_defaults(func=cmd_oracle_member)

    # verify
    p = sub.add_parser("verify", help="re-check a certificate")
    p.add_argument("file")
    p.add_argument("--cap", type=_cap, default=DEFAULT_CAP)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help (0) or a usage error (3)
        return exc.code
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 2
    except (ProblemParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
