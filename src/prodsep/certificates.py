"""Certificate records, their text form, and their independent re-verification.

The constructions in ``separators`` return these records, and each one
is a line-oriented block that parses back to the same record.
``verify`` re-checks every claim with word, graph and group primitives
and code of its own: nothing here comes from ``separators``.

A product certificate is re-checked by one claim sequence for every
factor count (``_verify_product``).  The values come from the pullback
graphs S(H_i) x Cay(G), G the chain level one below the top (the
permutation group the certificate states, for one or two factors): one
walk per factor yields the image one level down, the tree vectors over
it and the span of the cycle vectors, from which image orders, a
two-factor product size and membership follow by GF(p) elimination.  The
word's image is stepped one level down through the same vector forms
(``_word_image``), so the verifier states the crossing rule once.  No
image at the top is enumerated; the cap bounds the base fibre of each
walk, and also the image order when the certificate states no image
sizes.  Only a stated product size of three or more factors is checked
by listing the product, a capped closure under each factor's generator
images in turn.

The vectors over Cayley edges take the form the walked level's prime
picks (``_form``).  At p = 2 they are int bitmasks over one column table
per certificate, shared by its walks, the word's image and every
translation, so that any two of them can be added: one XOR, with the
lowest set bit as pivot.  Odd primes keep dict vectors.  The span, its
rank, the fibre and the point at which a walk refutes a stated size do
not depend on the form, so neither does any verdict.
"""

import functools
import itertools
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass

from .errors import CapExceeded
from .extensions import ExtensionChain
from .groups import DEFAULT_CAP, XGroup, closure, fmt_perm, parse_perm
from .problems import (
    ProblemParseError,
    convert,
    parse_carrier,
    parse_int,
    parse_integers,
    parse_words,
    read_rows,
)
from .stallings import contains, stallings_graph
from .words import Alphabet, free_reduce


def _stated_group(cert):
    """The permutation group a certificate states: chain level 0."""
    return XGroup(cert.alphabet, cert.perms)


@dataclass(frozen=True)
class HallCertificate:
    """n = 1: every generator fixes ``base`` in the stated group, the word moves it."""
    alphabet: Alphabet
    generators: tuple
    word: tuple
    carrier: int
    base: int
    perms: tuple

    group = property(_stated_group)


@dataclass(frozen=True)
class ProductCertificate:
    """The extension chain over the stated group, with what it decides.

    The sizes are None when they were not computed; ``partial`` means a
    cap kept the construction from deciding membership.
    """
    alphabet: Alphabet
    subgroups: tuple
    word: tuple
    primes: tuple
    carrier: int
    perms: tuple
    status: str  # "excluded" | "member" | "partial"
    image_sizes: tuple = None
    product_size: int = None

    group = property(_stated_group)

    @property
    def excluded(self):
        """Whether the word's image avoids the image product; None when partial."""
        return None if self.status == "partial" else self.status == "excluded"


@dataclass(frozen=True)
class FactorizationCertificate:
    """Words h_1, ..., h_n with h_i in H_i and h_1 ... h_n = w in F."""
    alphabet: Alphabet
    subgroups: tuple
    word: tuple
    factors: tuple


def emit_certificate(cert, alphabet=None, subgroups=None, word=None):
    """The certificate's text block.

    ``alphabet``, ``subgroups`` and ``word`` are ignored: the record
    already holds the reduced values they once supplied.  They stay in
    the signature because callers still pass them positionally.
    """
    a = cert.alphabet
    if isinstance(cert, HallCertificate):
        kind, generator_sets = "hall", (cert.generators,)
    elif isinstance(cert, ProductCertificate):
        kind, generator_sets = "product-separator", cert.subgroups
    else:
        kind, generator_sets = "factorization", cert.subgroups
    lines = [f"certificate: {kind}", f"alphabet: {''.join(a.symbols)}"]
    for i, gens in enumerate(generator_sets, start=1):
        lines.append(f"subgroup H{i}: " + ", ".join(a.format(g) for g in gens))
    lines.append(f"word: {a.format(cert.word)}")
    if isinstance(cert, HallCertificate):
        lines.append(f"carrier: {cert.carrier}")
        lines.append(f"base: {cert.base}")
        for s, p in zip(a.symbols, cert.perms):
            lines.append(f"perm {s}: {fmt_perm(p)}")
    elif isinstance(cert, ProductCertificate):
        lines.append("primes: " + ", ".join(str(p) for p in cert.primes))
        lines.append(f"carrier: {cert.carrier}")
        for s, p in zip(a.symbols, cert.perms):
            lines.append(f"perm {s}: {fmt_perm(p)}")
        lines.append(f"status: {cert.status}")
        if cert.image_sizes is not None:
            for i, n in enumerate(cert.image_sizes, start=1):
                lines.append(f"image size {i}: {n}")
        if cert.product_size is not None:
            lines.append(f"product size: {cert.product_size}")
    else:
        for i, f in enumerate(cert.factors, start=1):
            lines.append(f"factor {i}: {a.format(f)}")
    return "\n".join(lines) + "\n"


STATUSES = ("excluded", "member", "partial")


def parse_certificate(text):
    rows = list(read_rows(text, unique=True))
    if not rows or rows[0][1] != "certificate":
        raise ProblemParseError(rows[0][0] if rows else None,
                                "certificate files start with 'certificate: <kind>'")
    kind = rows[0][2]
    fields = {key: (line_no, value) for line_no, key, value in rows[1:]}

    def one(key, parse=str, required=True):
        """The field's value through parse; errors name its line."""
        if key not in fields:
            if required:
                raise ProblemParseError(None, f"missing field {key!r}")
            return None
        line_no, value = fields[key]
        return convert(line_no, key, value, parse)

    alphabet = one("alphabet", Alphabet)
    word = one("word", alphabet.parse)

    def indexed(prefix, parse):
        """The values of the '<prefix><i>' lines, placed by their index i.

        Every key that starts with the prefix's first word is such a line;
        with n of them, each i must lie in 1..n and appear once.
        """
        keys = [key for key in fields if key.startswith(prefix.split()[0] + " ")]
        values = {}
        for key in keys:
            digits = key[len(prefix):] if key.startswith(prefix) else ""
            i = int(digits) if digits.isascii() and digits.isdecimal() else 0
            if not 1 <= i <= len(keys) or i in values:
                raise ProblemParseError(fields[key][0], f"{key}: expected "
                                        f"'{prefix}<i>', each i in 1..{len(keys)} once")
            values[i] = one(key, parse)
        return tuple(values[i] for i in range(1, len(keys) + 1))

    def subgroup_rows():
        return indexed("subgroup H", lambda value: parse_words(alphabet, value))

    def perm_rows(carrier):
        return tuple(one(f"perm {s}", lambda value: parse_perm(value, carrier))
                     for s in alphabet.symbols)

    if kind == "hall":
        subgroups = subgroup_rows()
        if not subgroups:
            raise ProblemParseError(None, "missing field 'subgroup H1'")
        carrier = one("carrier", parse_carrier)
        return HallCertificate(alphabet, subgroups[0], word, carrier,
                               one("base", parse_int), perm_rows(carrier))
    if kind == "product-separator":
        carrier = one("carrier", parse_carrier)
        primes = one("primes", parse_integers)

        def status(value):
            if value not in STATUSES:
                raise ValueError(f"{value!r} is not one of {', '.join(STATUSES)}")
            return value

        sizes = indexed("image size ", parse_int)
        return ProductCertificate(
            alphabet, subgroup_rows(), word, primes, carrier, perm_rows(carrier),
            one("status", status), sizes or None,
            one("product size", parse_int, required=False))
    if kind == "factorization":
        subgroups = subgroup_rows()
        return FactorizationCertificate(alphabet, subgroups, word,
                                        indexed("factor ", alphabet.parse))
    raise ProblemParseError(rows[0][0], f"unknown certificate kind {kind!r}")


@contextmanager
def _stage(name):
    """Re-raise a cap hit as CapExceeded naming the verification stage."""
    try:
        yield
    except CapExceeded as exc:
        raise CapExceeded(f"verify, {name}: {exc}") from None


PARTIAL = "partial certificate: exclusion claim not checked"


def _membership_verdict(status, member):
    """(ok, messages) for a status claim, given the re-checked membership."""
    if status == "excluded" and member:
        return False, ["word image found inside the image product"]
    if status == "member" and not member:
        return False, ["word image not found in the image product"]
    return True, [f"image product membership re-checked: {member}"]


# -- pullback graphs ----------------------------------------------------------
#
# Let G be the chain level one below the top (level 0, the permutation group,
# for one or two factors; an extension level for more) and P = S(H) x Cay(G)
# the pullback of the Stallings graph and the Cayley graph: vertices (s, g),
# and for each dart of S(H) from s to s' with label l an edge (s, g) ->
# (s', g*l).  The loops of S(H) at its base are the words of H, so the image
# of H in G is the base fibre {g : (base, g) lies in the component of
# (base, 1)}.  One level up, at the top, by the traversal identity a word's
# image is (its signed Cayley-edge traversal vector mod p, its value in G);
# over the base fibre these vectors are the spanning-tree vectors T(g) plus
# the span Z of the component's cycle vectors, so the image is
# {(T(g) + z, g)} and has |fibre| * p^dim Z elements (Stallings, "Topology of
# finite graphs", 1983; Kapovich and Myasnikov, "Stallings foldings and
# subgroups of free groups", 2002).


@dataclass
class _Pullback:
    """The base fibre of a walk of S(H) x Cay(G), with the cycle span.

    ``fibre`` maps each g with (base, g) in the component to its tree
    vector (None without a prime); ``rows`` is the cycle span, row-reduced
    and keyed by pivot.
    """
    fibre: dict
    rows: dict
    prime: int

    @property
    def order(self):
        return len(self.fibre) * (self.prime or 1) ** len(self.rows)


class _SizeRefuted(Exception):
    """A walk found more image elements than the certificate states."""


# -- the two vector forms -------------------------------------------------------
#
# A vector over the Cayley edges (h, x) of G, x a positive letter, is held in
# one of two forms with the same methods; ``step``, the crossing rule, is read
# by the walks and the word's image alike.  Every method returns a new vector
# and leaves its arguments as they are; ``insert`` adds to a span in place.


class _DictForm:
    """GF(p) vectors as dicts {Cayley edge (h, x): nonzero coefficient}.

    A row's pivot is its least key, with coefficient 1.
    """

    zero = {}

    def __init__(self, group, prime):
        self.group, self.prime = group, prime

    def step(self, vec, g, l, hg):
        """vec after crossing the Cayley edge of letter l from g to hg."""
        key, c = ((g, l), 1) if l > 0 else ((hg, -l), -1)
        return self.add(vec, {key: c})

    def add(self, vec, other, scale=1):
        out = dict(vec)
        _add_into(out, other, scale, self.prime)
        return out

    def sub(self, vec, other):
        return self.add(vec, other, -1)

    def translate(self, vec, g):
        """g acting on a vector: the edge (h, x) goes to (g*h, x)."""
        mult = self.group.mult
        return {(mult(g, h), x): c for (h, x), c in vec.items()}

    def reduce(self, vec, rows):
        """vec reduced until its least key is no pivot; empty iff in the span."""
        vec, prime = dict(vec), self.prime
        while vec:
            pivot = min(vec)
            row = rows.get(pivot)
            if row is None:
                break
            _add_into(vec, row, -vec[pivot], prime)
        return vec

    def insert(self, vec, rows):
        """Add vec to the span, and say whether it grew."""
        vec, prime = self.reduce(vec, rows), self.prime
        if not vec:
            return False
        pivot = min(vec)
        scale = pow(vec[pivot], -1, prime)
        rows[pivot] = {k: c * scale % prime for k, c in vec.items()}
        return True


def _add_into(vec, other, scale, prime):
    """vec += scale * other over GF(p), in place."""
    for k, c in other.items():
        n = (vec.get(k, 0) + scale * c) % prime
        if n:
            vec[k] = n
        else:
            vec.pop(k, None)


class _BitForm:
    """GF(2) vectors as ints over one column table per certificate: bit i
    is the coefficient of the i-th Cayley edge the certificate's walks,
    target and translations have seen.

    Adding is one XOR, and a row's pivot is its lowest set bit, so a row
    needs no normalizing; a span maps each pivot, as a one-bit int, to its
    row.
    """

    prime = 2
    zero = 0

    def __init__(self, group):
        self.group = group
        self.columns = {}  # Cayley edge -> its bit's position
        self.keys = []  # position -> Cayley edge

    def column(self, key):
        """The one-bit vector of a Cayley edge, numbered when first seen."""
        n = len(self.keys)
        i = self.columns.setdefault(key, n)  # one hash per lookup
        if i == n:
            self.keys.append(key)
        return 1 << i

    def step(self, vec, g, l, hg):
        return vec ^ self.column((g, l) if l > 0 else (hg, -l))

    def add(self, vec, other):
        return vec ^ other

    sub = add

    def translate(self, vec, g):
        mult, keys, out = self.group.mult, self.keys, 0
        for i in _bit_positions(vec):
            h, x = keys[i]
            out ^= self.column((mult(g, h), x))
        return out

    def reduce(self, vec, rows):
        while vec:
            row = rows.get(vec & -vec)
            if row is None:
                break
            vec ^= row
        return vec

    def insert(self, vec, rows):
        vec = self.reduce(vec, rows)
        if vec:
            rows[vec & -vec] = vec
        return bool(vec)


def _bit_positions(v):
    """The positions of the set bits of v >= 0, ascending."""
    digits = bin(v)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


def _form(group, prime):
    """The vector form of walks over group, one level below a level of this
    prime: int bitmasks at p = 2, dicts at an odd prime, none without one."""
    if prime is None:
        return None
    return _BitForm(group) if prime == 2 else _DictForm(group, prime)


def _walk(group, h, form, cap, stated=None):
    """BFS of S(H) x Cay(G) from (base, 1); CapExceeded past cap fibre points.

    S(H) is connected, so the component meets every vertex's fibre in as
    many points as the base fibre: it outgrows |V(S)| * cap points
    exactly when the base fibre outgrows cap.  Fibre points and the rank
    of the span only grow, so once (fibre points) * p^rank exceeds a
    stated order the walk stops with _SizeRefuted.  With no stated order
    the same product is held to cap, so the rank is bounded too: past it
    the walk raises CapExceeded.  The tree and cycle vectors are in form,
    none when form is None.
    """
    graph, base = h.graph, h.base
    darts = [[] for _ in range(graph.num_vertices)]
    for d in range(graph.num_darts):
        darts[graph.src(d)].append((d, graph.label(d), graph.dst(d)))
    limit = graph.num_vertices * cap
    root = (base, group.identity)
    vectors = {root: form.zero} if form else {}
    links = {root: None}  # vertex -> (tree parent, dart from it)
    rows = {}
    prime = form.prime if form else None
    found, scale = 1, 1  # base fibre points so far, p^rank

    def grown():
        if stated is not None:
            if found * scale > stated:
                raise _SizeRefuted(found * scale)
        elif found * scale > cap:
            raise CapExceeded(f"pullback image has more than {cap} elements")

    queue = deque([root])
    while queue:
        u = queue.popleft()
        s, g = u
        tu = vectors.get(u)
        for d, l, t in darts[s]:
            hg = group.step(g, l)
            w = (t, hg)
            if w not in links:
                if len(links) >= limit:
                    raise CapExceeded(f"pullback base fibre has more than {cap} elements")
                links[w] = (u, d)
                queue.append(w)
                if form:
                    vectors[w] = form.step(tu, g, l, hg)
                if t == base:
                    found += 1
                    grown()
            elif form and l > 0 and links[u] != (w, d ^ 1):
                # a non-tree edge, met once from its positive end: its cycle
                # vector is tu across it, minus the far end's tree vector
                if form.insert(form.sub(form.step(tu, g, l, hg), vectors[w]), rows):
                    scale *= prime
                    grown()
    fibre = {g: vectors.get((s, g)) for s, g in links if s == base}
    return _Pullback(fibre, rows, prime)


def _word_image(group, form, word):
    """The word's image one level up: (its Cayley-edge vector in form, its
    value in group), stepped one letter at a time from (0, identity)."""
    vec, g = form.zero, group.identity
    for l in word:
        hg = group.step(g, l)
        vec, g = form.step(vec, g, l, hg), hg
    return vec, g


def _span_sum(form, *row_sets):
    """The sum of the spans, row-reduced."""
    rows = {}
    for row_set in row_sets:
        for row in row_set.values():
            form.insert(row, rows)
    return rows


def _product_size(form, walks):
    """|A_1 A_2| = |A_1| |A_2| / |A_1 & A_2|; with one factor, |A_1|.

    (v, a) lies in both images when a lies in both fibres and v in both
    cosets T_i(a) + Z_i, which meet exactly when T_1(a) - T_2(a) lies in
    Z_1 + Z_2, and then in p^dim(Z_1 & Z_2) vectors.
    """
    if len(walks) == 1:
        return walks[0].order
    one, two = walks
    both = _span_sum(form, one.rows, two.rows)
    meet = 0
    for a, t1 in one.fibre.items():
        t2 = two.fibre.get(a)
        if t2 is not None:
            meet += not form.reduce(form.sub(t1, t2), both)
    common = meet * form.prime ** (len(one.rows) + len(two.rows) - len(both))
    return one.order * two.order // common


def _pullback_member(form, walks, target):
    """Does target lie in the image product?

    With one factor, when its G-part lies in the fibre.  With two and
    target (v, g): a_1 a_2 = target for a_1 = (T_1(a) + z_1, a) and a_2 over
    a^-1 g exactly when a lies in both the first fibre and g times the
    second, and v - T_1(a) + g T_2(g^-1 a) lies in Z_1 + g Z_2 (the second
    walk translated by g starts at (base, g)).

    With n factors over fibre points a_i, and h_i = a_1 ... a_{i-1}, the
    product's vector is sum h_i (T_i(a_i) + z_i); a_i fixes Z_i, so
    h_i Z_i = h_{i+1} Z_i.  For each prefix (a_1, ..., a_{n-2}), with
    h = h_{n-1}, translating by h^-1 leaves the two-factor test above for
    the last two factors, the target (h^-1 (v - sum_{i<n-1} h_i T_i(a_i)),
    h^-1 g) and the span with each h^-1 h_{i+1} Z_i, i < n-1, added.  For
    i = n-2 that is Z_{n-2} itself, eliminated once with Z_{n-1}.
    """
    if len(walks) == 1:
        return target in walks[0].fibre
    *firsts, one, two = walks
    group = form.group
    v, g = target
    fixed = _span_sum(form, *(walk.rows for walk in firsts[-1:]), one.rows)
    for prefix in itertools.product(*(walk.fibre for walk in firsts)):
        u, gh, span = v, g, dict(fixed)
        if prefix:
            h, hs = group.identity, []
            for walk, a in zip(firsts, prefix):
                u = form.sub(u, form.translate(walk.fibre[a], h))
                h = group.mult(h, a)
                hs.append(h)
            hinv = group.inv(h)
            u, gh = form.translate(u, hinv), group.mult(hinv, g)
            for walk, hi in zip(firsts[:-1], hs):
                shift = group.mult(hinv, hi)
                for row in walk.rows.values():
                    form.insert(form.translate(row, shift), span)
        for row in two.rows.values():
            form.insert(form.translate(row, gh), span)
        gi = group.inv(gh)
        for a, t1 in one.fibre.items():
            t2 = two.fibre.get(group.mult(gi, a))
            if t2 is None:
                continue
            if not form.reduce(form.add(form.sub(u, t1), form.translate(t2, gh)), span):
                return True
    return False


def _listed_product_size(level, subgroups, cap):
    """|A_1 ... A_n| by listing: {1} closed under each factor's generator
    images in turn: in a finite group an inverse is a positive power, so
    P A_i is the closure of P under A_i's generators.

    A product by a generator image steps through its word, one Cayley
    edge per letter, which costs less than the general product.
    """
    out = {level.identity: None}
    for gens in subgroups:
        out = closure(out, [free_reduce(g) for g in gens],
                      lambda a, w: functools.reduce(level.step, w, a), cap, "product image")
    return len(out)


def _decimal(n):
    """n in decimal, or its bit length past what Python prints (4,300 digits)."""
    return str(n) if n.bit_length() < 10_000 else f"a {n.bit_length()}-bit number"


def _walks(cert, group, form, cap):
    """One pullback walk per factor over the group, all in one vector form.

    A walk that outgrows its stated image size raises _SizeRefuted with the
    verdict's message.
    """
    stated = cert.image_sizes
    if stated is None or len(stated) != len(cert.subgroups):
        stated = (None,) * len(cert.subgroups)
    walks = []
    with _stage("pullback walk"):
        for i, gens in enumerate(cert.subgroups):
            try:
                walks.append(_walk(group, stallings_graph(cert.alphabet, gens), form,
                                   cap, stated[i]))
            except _SizeRefuted as exc:
                raise _SizeRefuted(f"stated image size {i + 1} is {_decimal(stated[i])}, "
                                   f"but its pullback walk found at least "
                                   f"{_decimal(exc.args[0])} elements") from None
    return walks


def _verify_product(cert, chain, cap):
    """The claim sequence of a product certificate, for every factor count.

    Each factor is walked one level below the top, and a claim the
    certificate does not make is not computed.
    """
    if cert.status == "partial" and cert.image_sizes is None and \
            cert.product_size is None:
        return True, [PARTIAL]
    top = chain.top
    group, prime = (top.below, top.prime) if chain.primes else (top, None)
    form = _form(group, prime)
    try:
        walks = _walks(cert, group, form, cap)
    except _SizeRefuted as exc:
        return False, [exc.args[0]]
    orders = tuple(walk.order for walk in walks)
    if cert.image_sizes is not None and orders != cert.image_sizes:
        shown = ", ".join(map(_decimal, orders)) + ("," if len(orders) == 1 else "")
        return False, [f"stated image sizes {cert.image_sizes} != ({shown})"]
    if cert.product_size is not None:
        if len(walks) <= 2:
            actual = _product_size(form, walks)
        else:
            with _stage("product size"):
                actual = _listed_product_size(top, cert.subgroups, cap)
        if actual != cert.product_size:
            return False, [f"stated product size {cert.product_size} != {_decimal(actual)}"]
    if cert.status == "partial":
        return True, [PARTIAL]
    word = free_reduce(cert.word)
    target = group.evaluate(word) if form is None else _word_image(group, form, word)
    return _membership_verdict(cert.status, _pullback_member(form, walks, target))


def verify_certificate(cert, cap=DEFAULT_CAP):
    """Re-check every claim of a parsed certificate; returns (ok, messages).

    Text goes through ``parse_certificate`` first, or is rejected as an unknown
    type.  A cap hit raises CapExceeded: an unchecked claim is never rejected.
    """
    if isinstance(cert, HallCertificate):
        group = cert.group
        if not 0 <= cert.base < group.carrier:
            return False, ["base vertex out of range"]
        for g in cert.generators:
            if group.point_image(cert.base, g) != cert.base:
                return False, [f"generator {cert.alphabet.format(g)} moves the base vertex"]
        if group.point_image(cert.base, cert.word) == cert.base:
            return False, ["word image fixes the base vertex; nothing is separated"]
        return True, ["base vertex fixed by all generators, moved by the word"]
    if isinstance(cert, ProductCertificate):
        group = cert.group
        if len(cert.primes) != len(cert.subgroups) - 1:
            return False, ["prime list length does not match the subgroup count"]
        return _verify_product(cert, ExtensionChain(group, cert.primes), cap)
    if isinstance(cert, FactorizationCertificate):
        if len(cert.factors) != len(cert.subgroups):
            return False, ["factor count does not match the subgroup count"]
        for i, (gens, factor) in enumerate(zip(cert.subgroups, cert.factors), start=1):
            h = stallings_graph(cert.alphabet, gens)
            if not contains(h, factor):
                return False, [f"factor {i} is not in subgroup {i}"]
        product = ()
        for f in cert.factors:
            product += f
        if free_reduce(product) != free_reduce(cert.word):
            return False, ["factor product is not the word"]
        return True, ["all factors verified and their product equals the word"]
    return False, [f"unknown certificate type {type(cert).__name__}"]
