"""Machine-readable certificates and their independent re-verification.

Every certificate is a line-oriented block that parses back to a small
dataclass; ``verify`` re-checks each claim using only word, graph, and
group primitives, never trusting the construction that produced it.
"""

from contextlib import contextmanager
from dataclasses import dataclass

from .errors import CapExceeded
from .extensions import ExtensionChain
from .groups import DEFAULT_CAP, XGroup, fmt_perm, parse_perm
from .problems import (
    ProblemParseError,
    convert,
    parse_carrier,
    parse_integers,
    parse_words,
    read_rows,
)
from .separators import (
    Factorization,
    SeparatorWitness,
    _product_with_witness,
    image_subgroup,
)
from .stallings import contains, stallings_graph
from .words import Alphabet, free_reduce


@dataclass(frozen=True)
class HallCertificate:
    alphabet: Alphabet
    generators: tuple
    word: tuple
    carrier: int
    base: int
    perms: tuple


@dataclass(frozen=True)
class ProductCertificate:
    alphabet: Alphabet
    subgroups: tuple
    word: tuple
    primes: tuple
    carrier: int
    perms: tuple
    status: str  # "excluded" | "member" | "partial"
    image_sizes: tuple = None
    product_size: int = None


@dataclass(frozen=True)
class FactorizationCertificate:
    alphabet: Alphabet
    subgroups: tuple
    word: tuple
    factors: tuple


def certificate_of(obj, alphabet=None, subgroups=None, word=None):
    """Convert a witness or factorization into its certificate dataclass."""
    if isinstance(obj, SeparatorWitness):
        if obj.kind == "hall":
            return HallCertificate(
                alphabet=obj.alphabet, generators=obj.subgroups[0], word=obj.word,
                carrier=obj.group.carrier, base=obj.base_vertex,
                perms=tuple(obj.group.perm(x)
                            for x in obj.alphabet.positive_letters()))
        status = "partial" if obj.excluded is None else (
            "excluded" if obj.excluded else "member")
        return ProductCertificate(
            alphabet=obj.alphabet, subgroups=obj.subgroups, word=obj.word,
            primes=obj.primes, carrier=obj.group.carrier,
            perms=tuple(obj.group.perm(x) for x in obj.alphabet.positive_letters()),
            status=status, image_sizes=obj.factor_image_sizes,
            product_size=obj.product_image_size)
    if isinstance(obj, Factorization):
        if alphabet is None or subgroups is None or word is None:
            raise ValueError("a factorization certificate needs its problem context")
        return FactorizationCertificate(
            alphabet=alphabet,
            subgroups=tuple(tuple(free_reduce(g) for g in gens) for gens in subgroups),
            word=free_reduce(word), factors=obj.factors)
    if isinstance(obj, (HallCertificate, ProductCertificate, FactorizationCertificate)):
        return obj
    raise TypeError(f"cannot build a certificate from {type(obj).__name__}")


def emit_certificate(obj, alphabet=None, subgroups=None, word=None):
    cert = certificate_of(obj, alphabet=alphabet, subgroups=subgroups, word=word)
    a = cert.alphabet
    lines = []
    if isinstance(cert, HallCertificate):
        lines.append("certificate: hall")
        lines.append(f"alphabet: {''.join(a.symbols)}")
        lines.append("subgroup H1: " + ", ".join(a.format(g) for g in cert.generators))
        lines.append(f"word: {a.format(cert.word)}")
        lines.append(f"carrier: {cert.carrier}")
        lines.append(f"base: {cert.base}")
        for s, p in zip(a.symbols, cert.perms):
            lines.append(f"perm {s}: {fmt_perm(p)}")
    elif isinstance(cert, ProductCertificate):
        lines.append("certificate: product-separator")
        lines.append(f"alphabet: {''.join(a.symbols)}")
        for i, gens in enumerate(cert.subgroups, start=1):
            lines.append(f"subgroup H{i}: " + ", ".join(a.format(g) for g in gens))
        lines.append(f"word: {a.format(cert.word)}")
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
        lines.append("certificate: factorization")
        lines.append(f"alphabet: {''.join(a.symbols)}")
        for i, gens in enumerate(cert.subgroups, start=1):
            lines.append(f"subgroup H{i}: " + ", ".join(a.format(g) for g in gens))
        lines.append(f"word: {a.format(cert.word)}")
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
            i = int(digits) if digits.isdecimal() else 0
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
                               one("base", int), perm_rows(carrier))
    if kind == "product-separator":
        carrier = one("carrier", parse_carrier)
        primes = one("primes", parse_integers)

        def status(value):
            if value not in STATUSES:
                raise ValueError(f"{value!r} is not one of {', '.join(STATUSES)}")
            return value

        sizes = indexed("image size ", int)
        return ProductCertificate(
            alphabet, subgroup_rows(), word, primes, carrier, perm_rows(carrier),
            one("status", status), sizes or None,
            one("product size", int, required=False))
    if kind == "factorization":
        subgroups = subgroup_rows()
        return FactorizationCertificate(alphabet, subgroups, word,
                                        indexed("factor ", alphabet.parse))
    raise ProblemParseError(rows[0][0], f"unknown certificate kind {kind!r}")


def _product_member(level, images, target, cap):
    """Meet in the middle: one witness per factor whose product is target, or None.

    The verifier's own search, apart from the construction's.  The witness
    is the hit earliest in the left side's order, whichever side the search
    loops over.
    """
    mid = max(1, len(images) // 2)
    left = _product_with_witness(level, images[:mid], cap)
    right = _product_with_witness(level, images[mid:], cap)
    if len(left) <= len(right):
        for l, lwits in left.items():
            rwits = right.get(level.mult(level.inv(l), target))
            if rwits is not None:
                return lwits + rwits
        return None
    hits = {}
    for r, rwits in right.items():
        l = level.mult(target, level.inv(r))
        if l in left:
            hits[l] = rwits
    if not hits:
        return None
    if len(hits) > 1:
        l = next(e for e in left if e in hits)
    else:
        (l,) = hits
    return left[l] + hits[l]


def _point_image(group, point, word):
    """Where the word sends one point: its letters act on the right."""
    for l in word:
        point = group.perm(l)[point]
    return point


@contextmanager
def _stage(name):
    """Re-raise a cap hit as CapExceeded naming the verification stage."""
    try:
        yield
    except CapExceeded as exc:
        raise CapExceeded(f"verify, {name}: {exc}", limit=exc.limit) from None


def verify_certificate(cert, cap=DEFAULT_CAP):
    """Re-check every claim; returns (ok, messages).

    A cap hit raises CapExceeded: a claim that was not checked is never
    rejected.
    """
    if isinstance(cert, str):
        cert = parse_certificate(cert)
    messages = []
    a = cert.alphabet
    if isinstance(cert, HallCertificate):
        group = XGroup(a, cert.perms)
        if not 0 <= cert.base < group.carrier:
            return False, ["base vertex out of range"]
        for g in cert.generators:
            if _point_image(group, cert.base, free_reduce(g)) != cert.base:
                return False, [f"generator {a.format(g)} moves the base vertex"]
        if _point_image(group, cert.base, free_reduce(cert.word)) == cert.base:
            return False, ["word image fixes the base vertex; nothing is separated"]
        messages.append("base vertex fixed by all generators, moved by the word")
        return True, messages
    if isinstance(cert, ProductCertificate):
        group = XGroup(a, cert.perms)
        if len(cert.primes) != len(cert.subgroups) - 1:
            return False, ["prime list length does not match the subgroup count"]
        chain = ExtensionChain(group, cert.primes)
        top = chain.top
        target = top.evaluate(free_reduce(cert.word))
        if cert.status == "partial":
            messages.append("partial certificate: exclusion claim not checked")
            return True, messages
        with _stage("image enumeration"):
            images = [image_subgroup(top, gens, cap) for gens in cert.subgroups]
        if cert.image_sizes is not None:
            actual = tuple(len(img) for img in images)
            if actual != cert.image_sizes:
                return False, [f"stated image sizes {cert.image_sizes} != {actual}"]
        if cert.product_size is not None:
            if len(images) == 2:
                common = len(images[0].keys() & images[1].keys())
                size = len(images[0]) * len(images[1]) // common
            else:
                with _stage("product size"):
                    size = len(_product_with_witness(top, images, cap))
            if size != cert.product_size:
                return False, [f"stated product size {cert.product_size} != {size}"]
        with _stage("product membership"):
            member = _product_member(top, images, target, cap) is not None
        if cert.status == "excluded" and member:
            return False, ["word image found inside the image product"]
        if cert.status == "member" and not member:
            return False, ["word image not found in the image product"]
        messages.append(f"image product membership re-checked: {member}")
        return True, messages
    if isinstance(cert, FactorizationCertificate):
        if len(cert.factors) != len(cert.subgroups):
            return False, ["factor count does not match the subgroup count"]
        for i, (gens, factor) in enumerate(zip(cert.subgroups, cert.factors), start=1):
            h = stallings_graph(a, gens)
            if not contains(h, factor):
                return False, [f"factor {i} is not in subgroup {i}"]
        product = ()
        for f in cert.factors:
            product += f
        if free_reduce(product) != free_reduce(cert.word):
            return False, ["factor product is not the word"]
        messages.append("all factors verified and their product equals the word")
        return True, messages
    return False, [f"unknown certificate type {type(cert).__name__}"]
