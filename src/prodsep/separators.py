"""Separators and factorizations for product cosets H_1 ... H_n.

The pipeline mirrors the constructive proof it implements:

* n = 1 (Hall): attach the word to the subgroup graph, expand to a cover,
  and read the transition group; the word's permutation moves the base
  vertex while the subgroup's permutations fix it.

* general n: take the diagonal group G of the transition groups of the
  covers of S(H_1), ..., S(H_{n-1}), S(H_n) with the word attached, and
  the iterated p-elementary extension chain K over G.  If the word's
  K-image factors through the subgroups' K-images, the factorization
  machinery pinches the resulting Cayley-graph loop down to a genuine
  free-group identity, witnessing membership; contrapositively, for a
  non-member the K-image stays outside the image product.  Whether it
  factors is decided for every n by one search over the fibres one level
  down (``_fibre_search``), which lists no image.

Each construction returns its certificate record (``certificates``):
``hall_separator`` a ``HallCertificate``, ``product_separator`` a
``ProductCertificate`` and ``factorize`` a ``FactorizationCertificate``.

All Cayley-graph work (the edges a path crosses, the component of the
edges two paths share, spines and cuts) is done symbolically on traced
paths, so the recursion never materializes an extension level.
"""

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass

from .certificates import FactorizationCertificate, HallCertificate, ProductCertificate
from .covers import _cover_perms
from .errors import CapExceeded, InternalInvariantError, WordInSubgroup
from .extensions import ExtensionChain
from .graphs import Path, reduce_path
from .groups import DEFAULT_CAP, XGroup, _diagonal, closure
from .rational import _saturate, product_automaton
from .stallings import _attach, _read_graph, contains
from .words import free_reduce, invert, is_reduced


# -- symbolic Cayley paths ----------------------------------------------------


def _crossing(u, l, v):
    """(key, ends, sign) of the edge a step u -l-> v crosses: a letter x at u
    crosses (u, x) forwards, +1, and x^-1 at u crosses (u x^-1, x) backwards, -1."""
    return ((u, l), (u, v), 1) if l > 0 else ((v, -l), (v, u), -1)


@dataclass(frozen=True)
class CayleyPath:
    """A path in the Cayley graph of a chain level, traced symbolically,
    with the edges it crosses."""
    level: object
    start: object
    word: tuple
    vertices: tuple

    @property
    def end(self):
        return self.vertices[-1]

    @functools.cached_property
    def edges(self):
        """The edges the path crosses: key (src element, letter) -> (src
        element, dst element); its reverse crosses the same."""
        verts = self.vertices
        return {key: ends for key, ends, _ in map(_crossing, verts, self.word, verts[1:])}

    def reversed(self):
        return CayleyPath(self.level, self.end, invert(self.word),
                          tuple(reversed(self.vertices)))


def trace_cayley(level, start, word):
    vertices = [start]
    cur = start
    for l in word:
        cur = level.step(cur, l)
        vertices.append(cur)
    return CayleyPath(level, start, tuple(word), tuple(vertices))


def _component(eta1, eta2, start):
    """The component of start in the edges both paths cross, by ``closure``:
    vertex -> (previous vertex, index of the letter in canonical order),
    start -> None.  A Cayley graph has at most one edge per vertex and
    signed letter, so the path _path_to reads back is a deterministic
    shortest path."""
    other, adj = eta2.edges, {}
    for (u, x), (_, v) in eta1.edges.items():
        if (u, x) in other:
            adj[u, x] = v
            adj[v, -x] = u
    return closure((start,), eta1.level.alphabet.letters(),
                   lambda u, l: adj.get((u, l), u), math.inf, "component")


def _path_to(level, back, end):
    """The component's path to end, as a CayleyPath."""
    letters = level.alphabet.letters()
    word = []
    verts = [end]
    while back[verts[-1]] is not None:
        prev, i = back[verts[-1]]
        word.append(letters[i])
        verts.append(prev)
    return CayleyPath(level, verts[-1], tuple(reversed(word)), tuple(reversed(verts)))


# -- projection ---------------------------------------------------------------


def project_path(eta, eta_prime, gamma_prime):
    """Project a Cayley path into an immersion along a matching read path.

    gamma_prime reads the label of eta_prime in the immersion; since every
    geometric edge of eta is crossed by eta_prime, the covering map that
    matches them carries eta to a path in the immersion with eta's label,
    starting where gamma_prime starts.
    """
    if eta.start != eta_prime.start:
        raise ValueError("eta and eta_prime must share their start vertex")
    if not is_reduced(eta.word):
        raise ValueError("eta must be reduced")
    if not is_reduced(eta_prime.word):
        raise ValueError("eta_prime must be reduced")
    if gamma_prime.label() != eta_prime.word:
        raise ValueError("gamma_prime must carry the same label as eta_prime")
    if not gamma_prime.is_reduced():
        raise ValueError("gamma_prime must be reduced")
    if any(k not in eta_prime.edges for k in eta.edges):
        raise ValueError("every geometric edge of eta must be traversed by eta_prime")
    out = gamma_prime.graph.trace(gamma_prime.start, eta.word)
    if out is None:
        raise InternalInvariantError("projection left the immersion")
    if eta.end == eta_prime.end and out.end != gamma_prime.end:
        raise InternalInvariantError("projection endpoint mismatch")
    return out


# -- image subgroups ----------------------------------------------------------


def _generator_steps(level, generators):
    """The image of each nontrivial generator: the level is a finite group,
    so the images alone generate the image subgroup as a monoid."""
    return [level.evaluate(w) for w in map(free_reduce, generators) if w]


def _image_product(level, subgroups, cap):
    """The set A_1 ... A_k of the subgroups' images as closure keys, capped:
    P A_i is the closure of P under A_i's generators, since in a finite
    group an inverse is a positive power.

    A product by a generator steps through its reduced word, one Cayley
    edge per letter, which costs less than the general product.
    """
    out = {level.identity: None}
    for gens in subgroups:
        out = closure(out, [w for w in map(free_reduce, gens) if w],
                      lambda a, w: functools.reduce(level.step, w, a), cap, "product image")
    return out


# -- GF(p) vectors over Cayley edges -----------------------------------------


def _subtract(vec, other, prime, c=1):
    """vec -= c * other over GF(p), in place on the dict vec."""
    for k, v in other.items():
        n = (vec.get(k, 0) - c * v) % prime
        if n:
            vec[k] = n
        elif k in vec:
            del vec[k]


def _bit_indices(v):
    """The positions of the set bits of v >= 0, ascending."""
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out


class _KeyVectors:
    """GF(p) vectors as dicts {Cayley edge (h, x): nonzero coefficient}.

    Every method but ``insert`` returns a new vector and leaves its
    arguments as they are.  A basis maps each pivot, the least key of its row, to the row
    normalized to pivot coefficient 1.
    """

    def __init__(self, level):
        self.below = level.below
        self.prime = level.prime

    def vector(self, items, start=None):
        """start, or zero, plus the (key, coefficient) pairs."""
        out = {} if start is None else dict(start)
        _subtract(out, dict(items), self.prime, -1)
        return out

    def sub(self, a, b):
        """a - b."""
        out = dict(a)
        _subtract(out, b, self.prime)
        return out

    def translate(self, vec, g):
        """g acting on a vector over Cayley edges: the edge (h, x) goes to (g*h, x)."""
        mult = self.below.mult
        return {(mult(g, h), x): c for (h, x), c in vec.items()}

    def reduce(self, vec, basis):
        """vec after subtracting c times a row while its least key is a
        pivot, c its coefficient there; empty exactly when vec lies in the
        rows' span."""
        vec = dict(vec)
        prime = self.prime
        while vec:
            pivot = min(vec)
            row = basis.get(pivot)
            if row is None:
                break
            _subtract(vec, row, prime, vec[pivot])
        return vec

    def insert(self, basis, vec):
        """Add a reduced nonzero vec as a row, normalized."""
        prime = self.prime
        pivot = min(vec)
        inv = pow(vec[pivot], -1, prime)
        basis[pivot] = {k: v * inv % prime for k, v in vec.items()}


class _BitVectors:
    """GF(2) vectors as ints over the level's column table: bit i is the
    coefficient of the i-th Cayley edge the level has seen
    (``ExtensionLevel.columns``).

    Adding is one XOR, and a row's pivot is its lowest set bit, so a row
    needs no normalizing.  A basis maps each pivot, as a one-bit int, to
    its row.
    """

    prime = 2

    def __init__(self, level):
        self.below = level.below
        self.columns = level.columns
        self.keys = level.column_keys

    def vector(self, items, start=0):
        """start plus the (key, coefficient) pairs, each coefficient odd;
        a key gets a column the first time it is seen."""
        setdefault, keys = self.columns.setdefault, self.keys
        out, n = start, len(keys)
        for key, _ in items:
            # one hash per key: an element far up the chain is slow to hash
            i = setdefault(key, n)
            if i == n:
                keys.append(key)
                n += 1
            out ^= 1 << i
        return out

    def sub(self, a, b):
        """a - b, which mod 2 is a + b."""
        return a ^ b

    def translate(self, vec, g):
        mult, keys = self.below.mult, self.keys
        return self.vector([((mult(g, keys[i][0]), keys[i][1]), 1) for i in _bit_indices(vec)])

    def reduce(self, vec, basis):
        while vec:
            row = basis.get(vec & -vec)
            if row is None:
                break
            vec ^= row
        return vec

    def insert(self, basis, vec):
        basis[vec & -vec] = vec


def _vectors(level):
    """The kernel arithmetic of an extension level: bits at p = 2, else dicts."""
    return _BitVectors(level) if level.prime == 2 else _KeyVectors(level)


def _extend(vectors, basis, rows):
    """Insert each row that is new to the span, reduced."""
    for row in rows:
        vec = vectors.reduce(row, basis)
        if vec:
            vectors.insert(basis, vec)


# -- image subgroups as structures --------------------------------------------


@dataclass(frozen=True)
class ImageStructure:
    """The image of a subgroup at a chain level, held without enumerating it.

    At an extension level the image is {(lifts[b] + k, b)}: b runs over the
    image one level down, lifts[b] is the vector of one chosen lift of b,
    and k runs over the GF(p) span of the kernel rows in ``basis``, which
    maps each pivot to its row, the rows spanned by the Schreier vectors
    of the walk's cycle edges; the order is len(lifts) * p^rank.  The
    vectors are those of ``vectors``: at p = 2 an int over the level's
    column table, bit i for the i-th Cayley edge first seen at that level,
    a row's pivot its lowest set bit; at an odd prime a dict
    {edge (h, x): coefficient}, a row's pivot its least key and its
    coefficient there 1.  At level 0 (a permutation group)
    ``lifts`` is the closure under the generator images, ``basis`` is
    empty and ``vectors`` is None.
    """
    lifts: dict
    basis: dict
    vectors: object
    order: int

    def __contains__(self, elem):
        if self.vectors is None:
            return elem in self.lifts
        lift = self.lifts.get(elem[1])
        if lift is None:
            return False
        vectors = self.vectors
        return not vectors.reduce(vectors.sub(vectors.vector(elem[0]), lift), self.basis)


def image_structure(level, generators, cap=DEFAULT_CAP):
    """The image subgroup's structure, with its exact order.

    At an extension level the image is an extension of the image one level
    down by the span of its Schreier-generator vectors, so the order is
    |image below| * p^rank.  The coset walk below is still explicit, but
    its elements live one level down.  Lifts and rank only grow, so one
    rule refuses the image: as soon as lifts * p^rank exceeds the cap.
    Steps come in (generator image, inverse) pairs, i and i ^ 1 (the images
    alone would close the image too), so the walk meets each edge once,
    from the end it dequeues first: a step into an element whose steps
    were all walked is skipped, since that element's step i ^ 1 gave
    minus this Schreier vector (zero on a tree edge).  Each Schreier
    vector is reduced once.
    """
    images = _generator_steps(level, generators)
    if isinstance(level, XGroup):
        tree = closure((level.identity,), images, level.mult, cap, "subgroup image")
        return ImageStructure(tree, {}, None, len(tree))
    below = level.below
    vectors = _vectors(level)
    prime = vectors.prime
    # each image and its inverse, steps i and i ^ 1: a shallower tree, shorter lifts
    steps = [s for img in images for s in (img, level.inv(img))]
    # walk the image one level down carrying a chosen lift vector per
    # element; edges that close a cycle contribute Schreier kernel vectors
    lifts = {below.identity: vectors.vector(())}
    basis = {}
    scale = 1  # p^rank
    done = set()
    queue = deque([below.identity])
    while queue:
        b = queue.popleft()
        vb = lifts[b]
        for vec, g in steps:
            nb = below.mult(b, g)
            if nb in done:
                continue
            nvec = vectors.vector([((below.mult(b, src), x), c) for (src, x), c in vec], vb)
            known = lifts.get(nb)
            if known is None:
                lifts[nb] = nvec
                queue.append(nb)
            else:
                nvec = vectors.reduce(vectors.sub(nvec, known), basis)
                if not nvec:
                    continue
                vectors.insert(basis, nvec)
                scale *= prime
            if len(lifts) * scale > cap:
                raise CapExceeded(f"image order exceeds {cap}: at least "
                                  f"{len(lifts)} * {prime}^{len(basis)}")
        done.add(b)
    return ImageStructure(lifts, basis, vectors, len(lifts) * scale)


def image_subgroup_order(level, generators, cap=DEFAULT_CAP):
    """Exact order of the image subgroup, without enumerating it."""
    return image_structure(level, generators, cap).order


# -- products of images, fibre by fibre --------------------------------------


def _fibre_search(level, structures, target):
    """Whether target lies in the product of the images, in order.

    The i-th image is A_i = {(l_i(α) + k, α)}, k in its kernel span K_i,
    and the target is (v, g).  With h_i = α_1 ... α_{i-1}, a_1 ... a_n is
    (sum h_i·(l_i(α_i) + k_i), h_{n+1}); α_i fixes K_i, so
    h_i·K_i = h_{i+1}·K_i and h_n·K_n = g·K_n.  For each prefix
    (α_1, ..., α_{n-2}) of lifts one level down, with h = h_{n-1}, the span
    S = sum_{i<n-1} h⁻¹h_{i+1}·K_i + K_{n-1} + h⁻¹g·K_n is eliminated once:
    the last two factors are then the two-factor case for the target
    translated by h⁻¹, (v', g').  The fibre of A_{n-1} is walked, g'
    inverted once: the target is in the product exactly when some
    residue l_{n-1}(α) − v' − g'·l_n(g'⁻¹α) reduces to zero modulo S.
    With β = α⁻¹g', that is v' − l_{n-1}(α) − α·l_n(β) negated, as
    l_n(β) + β·l_n(β⁻¹) lies in K_n and α·K_n = g'·K_n.  Nothing here is
    enumerated.  Every prefix shares the rows of K_{n-2} and K_{n-1}; with
    two factors the prefix is empty and only g·K_n is translated.
    """
    if len(structures) == 1:
        return target in structures[0]
    below = level.below
    vectors = structures[0].vectors
    *firsts, one, two = structures
    # the rows of K_{n-1}, then of K_{n-2}, which every prefix shares
    base = {}
    _extend(vectors, base, [row for st in [one] + firsts[-1:] for row in st.basis.values()])
    v, g = vectors.vector(target[0]), target[1]
    for prefix in itertools.product(*(st.lifts for st in firsts)):
        u, gh, basis = v, g, base
        if prefix:
            h, hs = below.identity, []
            for st, al in zip(firsts, prefix):
                u = vectors.sub(u, vectors.translate(st.lifts[al], h))
                h = below.mult(h, al)
                hs.append(h)
            hinv = below.inv(h)
            u, gh, basis = vectors.translate(u, hinv), below.mult(hinv, g), dict(base)
            _extend(vectors, basis, [vectors.translate(row, below.mult(hinv, hs[i]))
                                     for i, st in enumerate(firsts[:-1])
                                     for row in st.basis.values()])
        _extend(vectors, basis, [vectors.translate(row, gh) for row in two.basis.values()])
        gi = below.inv(gh)
        for al, la in one.lifts.items():
            lb = two.lifts.get(below.mult(gi, al))
            if lb is None:
                continue
            if not vectors.reduce(vectors.sub(vectors.sub(la, u), vectors.translate(lb, gh)),
                                  basis):
                return True
    return False


def _fibre_product_size(structures):
    """|A| with one image; |A B| = |A| |B| / |A & B| with two.

    (v, α) lies in both images when α lies in both fibres and la(α) − lb(α)
    in K_A + K_B; then it does for p^dim(K_A & K_B) vectors v.  The fibre
    of A is walked and each point looked up in B's.
    """
    if len(structures) == 1:
        return structures[0].order
    one, two = structures
    vectors = one.vectors
    basis = dict(one.basis)
    _extend(vectors, basis, two.basis.values())
    meet = 0
    for al, la in one.lifts.items():
        lb = two.lifts.get(al)
        if lb is not None:
            meet += not vectors.reduce(vectors.sub(la, lb), basis)
    common = meet * vectors.prime ** (len(one.basis) + len(two.basis) - len(basis))
    return one.order * two.order // common


# -- factorization counters ---------------------------------------------------


@dataclass
class FactorizeStats:
    """Counters of the pinch recursion: cuts (m >= 3) and spines (m = 2)."""
    cuts: int = 0
    spines: int = 0


# -- construction contexts ----------------------------------------------------


@dataclass
class _Context:
    subgroups: tuple
    word: tuple
    pointed: tuple       # S(H_i), all unattached
    attached: object     # S(H_n) with the word attached
    chain: ExtensionChain  # level 0 is the diagonal of the transition groups


def _build_context(alphabet, subgroups, word, primes):
    """S(H_i), the word attached to S(H_n), and the chain over the diagonal
    of the covers' transition groups.

    Every generator and the word are free-reduced once, here; the readers
    take the reduced words, and the diagonal's blocks are the completed letter
    maps of the package's own immersions, with no check and no group per
    factor (``covers._cover_perms``).
    """
    n = len(subgroups)
    if n < 1:
        raise ValueError("need at least one subgroup")
    subgroups = tuple(tuple(free_reduce(g) for g in gens) for gens in subgroups)
    word = free_reduce(word)
    if primes is None:
        primes = (2,) * (n - 1)
    primes = tuple(primes)
    if len(primes) != n - 1:
        raise ValueError(f"need {n - 1} primes for {n} subgroups, got {len(primes)}")
    pointed = tuple(_read_graph(alphabet, gens) for gens in subgroups)
    attached = _attach(pointed[-1], word)
    gammas = [h.graph for h in pointed[:-1]] + [attached.graph]
    chain = ExtensionChain(_diagonal(alphabet, [_cover_perms(g) for g in gammas]), primes)
    return _Context(subgroups, word, pointed, attached, chain)


def _perms(group):
    """The permutation of each positive letter: what a certificate states."""
    return tuple(group.perm(x) for x in group.alphabet.positive_letters())


# -- Hall separator -----------------------------------------------------------


def hall_separator(alphabet, generators, word):
    """A finite quotient separating a non-member word from one subgroup.

    This is the construction for n = 1: the chain is the transition group
    of the cover of S(H) with the word attached.
    """
    ctx = _build_context(alphabet, [generators], word, ())
    base = ctx.attached.omega
    if ctx.attached.alpha == base:
        raise WordInSubgroup("the word lies in the subgroup; nothing separates it")
    group = ctx.chain.top
    if group.point_image(base, ctx.word) == base:
        raise InternalInvariantError("word image fixes the base vertex")
    if any(group.point_image(base, g) != base for g in ctx.subgroups[0]):
        raise InternalInvariantError("a generator image moves the base vertex")
    return HallCertificate(alphabet, ctx.subgroups[0], ctx.word, group.carrier, base,
                           _perms(group))


# -- product separator --------------------------------------------------------


def product_separator(alphabet, subgroups, word, primes=None, cap=DEFAULT_CAP):
    """The extension-chain quotient for a product coset, as its certificate.

    Every factor count is decided by one search over the image
    structures (_fibre_search), which lists no image.  It is partial, with
    no sizes, exactly when an image outgrows the cap (image_structure
    refuses it).  The image product is sized when the product of the image
    orders is within the cap: fibre by fibre for one or two factors, listed
    under the generators for more.
    """
    ctx = _build_context(alphabet, subgroups, word, primes)
    top = ctx.chain.top
    group = ctx.chain.levels[0]

    def certificate(status, image_sizes=None, product_size=None):
        return ProductCertificate(alphabet, ctx.subgroups, ctx.word, ctx.chain.primes,
                                  group.carrier, _perms(group), status, image_sizes,
                                  product_size)

    try:
        structures = [image_structure(top, gens, cap) for gens in ctx.subgroups]
    except CapExceeded:
        return certificate("partial")
    member = _fibre_search(top, structures, top.evaluate(ctx.word))
    size = None
    if math.prod(st.order for st in structures) <= cap:
        if len(structures) <= 2:
            size = _fibre_product_size(structures)
        else:
            size = len(_image_product(top, ctx.subgroups, cap))
    return certificate("member" if member else "excluded",
                       tuple(st.order for st in structures), size)


# -- factorization ------------------------------------------------------------


def factorize(alphabet, subgroups, word, seeds=None, primes=None,
              cap=DEFAULT_CAP, stats=None):
    """Factor the word across the subgroups, or None outside their product.

    Returns a ``FactorizationCertificate``.  Given seeds (h_i' in H_i whose
    K-image product matches the word's), the recursive cut-and-project
    construction cannot fail.  Else the saturated product automaton, sized
    by the cap, gives exact seeds (``_search_seeds``) or rejects the word:
    None.  They are pinched too, so the output is what ``seeds=`` would give.

    The pinch items (each seed's loop, read once for the membership check,
    and seeds[-1] w^-1 read with the word attached) multiply to seeds w^-1
    in F, so the seed check is the top pinch call's premise, read off the
    items' walk (``_walk``); the walk is handed to the pinch.
    """
    n = len(subgroups)
    ctx = _build_context(alphabet, subgroups, word, primes)
    w = ctx.word
    given = seeds is not None
    if given:
        if len(seeds) != n:
            raise ValueError(f"need {n} seeds, got {len(seeds)}")
        seeds = tuple(free_reduce(s) for s in seeds)
        loops = _loops(ctx, seeds)
        for i, loop in enumerate(loops):
            if loop is None:
                raise ValueError(f"seed {i + 1} is not in its subgroup")
    if n == 1:
        if contains(ctx.pointed[0], w):
            return FactorizationCertificate(alphabet, ctx.subgroups, w, (w,))
        return None
    if not given:
        seeds = _search_seeds(ctx, cap)
        if seeds is None:
            return None
        loops = _loops(ctx, seeds[:-1])
        if None in loops:
            raise InternalInvariantError("seed does not read a loop")
    items = loops[:n - 1]
    last = ctx.attached.graph.trace(ctx.attached.omega, free_reduce(seeds[-1] + invert(w)))
    if last is None or last.end != ctx.attached.alpha:
        raise InternalInvariantError("attached path does not reach the free end")
    items.append(last)
    walk = _walk(ctx.chain, items)
    if given and walk[1] is not None:
        raise ValueError("seed product does not match the word in the quotient")
    out = _pinch(ctx.chain, items, walk)
    if stats is not None:
        # a pinch on m paths makes m - 1 spines and m - 2 cuts, whatever it cuts
        stats.cuts += n - 2
        stats.spines += n - 1
    factors = tuple(free_reduce(p.label()) for p in out[:-1])
    factors += (free_reduce(out[-1].label() + w),)
    _check_factorization(ctx, factors)
    return FactorizationCertificate(alphabet, ctx.subgroups, w, factors)


def _loops(ctx, seeds):
    """Each seed's loop at the base of S(H_i), or None if it is not in H_i."""
    paths = [h.graph.trace(h.base, s) for h, s in zip(ctx.pointed, seeds)]
    return [p if p is not None and p.end == h.base else None
            for h, p in zip(ctx.pointed, paths)]


def _check_factorization(ctx, factors):
    """Independent validation: membership per factor, product equals the word."""
    for i, f in enumerate(factors):
        if not contains(ctx.pointed[i], f):
            raise InternalInvariantError(f"factor {i + 1} left its subgroup")
    product = ()
    for f in factors:
        product += f
    if free_reduce(product) != ctx.word:
        raise InternalInvariantError("factor product differs from the word")


def _search_seeds(ctx, cap):
    """Words h_i in H_i whose product is the word in F, or None outside H_1 ... H_n.

    A layered search with back pointers finds an accepting run of the
    saturated product automaton (``_saturate``, capped) on the reduced
    word; its epsilon pairs unfold through the edges that added them.  Only
    the chain edge base_i -> base_{i+1} leads from S(H_i) to S(H_{i+1}), so
    the run's part in S(H_i), the i-th seed, is a loop at base_i.
    """
    nfa = product_automaton(ctx.pointed)
    why = _saturate(nfa, cap)
    reach = {q: [q] for q in range(nfa.num_states)}
    for x, y in why:
        reach[x].append(y)
    by_source = nfa.by_source()
    # after j letters: state -> (the state one epsilon pair back, one letter back)
    layers = [{y: (nfa.initial, None) for y in reach[nfa.initial]}]
    for l in ctx.word:
        layers.append({})
        for s in layers[-2]:
            for r in by_source.get((s, l), ()):
                for y in reach[r]:
                    layers[-1].setdefault(y, (r, s))
    (y,) = nfa.finals
    if y not in layers[-1]:
        return None
    pieces, memo = [], {}
    for j in reversed(range(len(layers))):
        r, s = layers[j][y]
        pieces += [_unfold(why, (r, y), memo)] + [((l,),) for l in ctx.word[j - 1:j]]
        y = s
    return _glue(*reversed(pieces))


def _unfold(why, pair, memo):
    """The path an epsilon pair stands for, one reduced word per graph (a
    chain edge starts the next), memoized; iterative, as nests run deep."""
    stack = [pair] if pair[0] != pair[1] else []
    while stack:
        x, y = stack[-1]
        a, b, edge = why[x, y]
        inner = [(x, a), (b, y)] + ([edge[1:]] if edge else [])
        todo = [p for p in inner if p[0] != p[1] and p not in memo]
        if todo:
            stack += todo
            continue
        stack.pop()
        mid = ((), ()) if edge is None else \
            _glue(((edge[0],),), memo.get(edge[1:], ((),)), ((-edge[0],),))
        memo[x, y] = _glue(memo.get((x, a), ((),)), mid, memo.get((b, y), ((),)))
    return memo.get(pair, ((),))


def _glue(*parts):
    """Per-graph reduced words, each part's last word joined to the next
    part's first: only letters at the joint cancel."""
    out = list(parts[0])
    for part in parts[1:]:
        u, v, k = out[-1], part[0], 0
        while k < min(len(u), len(v)) and u[-1 - k] == -v[k]:
            k += 1
        out[-1:] = [u[:len(u) - k] + v[k:], *part[1:]]
    return tuple(out)


def _walk(chain, items):
    """The m labels traced tip to tail at chain level m-2: (Cayley paths,
    what fails of the pinch premise or None).  By the traversal identity
    (``extensions``) the labels' product at level m-1 is (each Cayley edge's
    net signed crossing count mod p, the walk's end)."""
    m = len(items)
    level, prime = chain.levels[m - 2], chain.levels[m - 1].prime
    etas, counts = [], {}
    cur = level.identity
    for p in items:
        eta = trace_cayley(level, cur, p.label())
        for key, _, sign in map(_crossing, eta.vertices, eta.word, eta.vertices[1:]):
            counts[key] = counts.get(key, 0) + sign
        etas.append(eta)
        cur = eta.end
    if cur != level.identity:
        return etas, "tip-to-tail paths do not close up"
    if any(c % prime for c in counts.values()):
        return etas, "pinch premise fails at the chain level"
    return etas, None


def _pinch(chain, items, walk=None):
    """The recursive core: same endpoints, labels now multiplying to 1 in F.

    items are reduced paths, one per immersion, whose labels multiply to
    the identity at chain level m-1.  Works in the Cayley graph of level
    m-2, in the component of the identity in the edges the first and last
    paths both cross.  The cut vertex is where two paths meet, or for more
    the least vertex of the first middle path that the component reaches;
    the premise's counting argument puts it in the component.  The
    component's path to the cut is projected into the first and last
    immersions, a middle path is split at the cut, and each side recurses
    (m >= 3).  Each label is walked once (``_walk``, or the caller's walk):
    the premise is read off it, and its Cayley paths carry the edges that
    the component and every projection read.  A failed projection or
    reduction here is a broken invariant, never bad input.
    """
    m = len(items)
    if m < 2:
        raise InternalInvariantError("pinch needs at least two paths")
    etas, fault = walk if walk is not None else _walk(chain, items)
    if fault is not None:
        raise InternalInvariantError(fault)
    mid = chain.levels[m - 2]
    omega = _component(etas[0], etas[-1], mid.identity)
    if m == 2:
        g = etas[0].end
        if g not in omega:
            raise InternalInvariantError("no common spine despite the premise")
    else:
        j = next((c for c in range(1, m - 1) if omega.keys() & etas[c].vertices), None)
        if j is None:
            raise InternalInvariantError("no middle path meets the identity component")
        g = min(omega.keys() & etas[j].vertices)
    eta = _path_to(mid, omega, g)

    try:
        beta_first = project_path(eta, etas[0], items[0])
        beta_last = project_path(eta, etas[-1].reversed(), items[-1].reversed())
        if m == 2:
            out = [beta_first, beta_last.reversed()]
        else:
            # items[j] reads etas[j]'s label, so its first k darts reach the cut
            k, darts = etas[j].vertices.index(g), items[j].darts
            delta_j1 = Path(items[j].graph, items[j].start, darts[:k])
            delta_j2 = Path(items[j].graph, delta_j1.end, darts[k:])
            delta_first = reduce_path(beta_first.reversed().concat(items[0]))
            delta_last = reduce_path(items[-1].concat(beta_last))
            out_a = _pinch(chain, [delta_first] + items[1:j] + [delta_j1])
            out_b = _pinch(chain, [delta_j2] + items[j + 1:-1] + [delta_last])
            gamma_first = reduce_path(beta_first.concat(out_a[0]))
            gamma_j = reduce_path(out_a[-1].concat(out_b[0]))
            gamma_last = reduce_path(out_b[-1].concat(beta_last.reversed()))
            out = [gamma_first] + out_a[1:-1] + [gamma_j] + out_b[1:-1] + [gamma_last]
    except ValueError as exc:
        raise InternalInvariantError(f"pinch step failed: {exc}") from exc

    joined = ()
    for p in out:
        joined += p.label()
    if free_reduce(joined) != ():
        raise InternalInvariantError("pinched labels do not cancel in F")
    for before, after in zip(items, out):
        if before.start != after.start or before.end != after.end:
            raise InternalInvariantError("pinch moved a path endpoint")
    return out
