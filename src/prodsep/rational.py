"""Independent membership oracle for products of subgroups.

A product H_1 ... H_n is a rational subset of the free group: chain the
Stallings graphs base-to-base with epsilon transitions, then saturate with
epsilon edges across cancelling letter pairs.  After saturation a reduced
word belongs to the subset iff the automaton accepts it literally.
"""


class Nfa:
    """NFA over signed letters with epsilon transitions."""

    def __init__(self, num_states, letter_edges, eps_edges, initial, finals):
        self.num_states = num_states
        self.letter_edges = tuple(letter_edges)
        self.eps_edges = set(eps_edges)
        self.initial = initial
        self.finals = frozenset(finals)

    def by_source(self):
        out = {}
        for q, l, r in self.letter_edges:
            out.setdefault((q, l), []).append(r)
        return out

    def eps_closure_map(self):
        """state -> frozenset of states reachable by epsilon moves."""
        fw = {q: {q} for q in range(self.num_states)}
        for a, b in self.eps_edges:
            fw[a].add(b)
        changed = True
        while changed:
            changed = False
            for q in range(self.num_states):
                new = set()
                for r in fw[q]:
                    new |= fw[r]
                if not new <= fw[q]:
                    fw[q] |= new
                    changed = True
        return {q: frozenset(s) for q, s in fw.items()}


def product_automaton(hs):
    """Chain the subgroup automata base-to-base with epsilon transitions.

    Accepts exactly the unreduced concatenations h_1 ... h_n of loop labels.
    An empty factor list accepts only the empty word.
    """
    if not hs:
        return Nfa(1, (), (), 0, {0})
    letter_edges = []
    eps = []
    offset = 0
    bases = []
    for h in hs:
        g = h.graph
        letter_edges.extend((offset + g.src(e), g.label(e), offset + g.dst(e))
                            for e in range(g.num_darts))
        bases.append(offset + h.base)
        offset += g.num_vertices
    for a, b in zip(bases, bases[1:]):
        eps.append((a, b))
    return Nfa(offset, letter_edges, eps, bases[0], {bases[-1]})


def cancellation_closure(nfa):
    """Saturate: whenever q -x-> q1 =eps*=> q2 -x^-1-> q3, add q =eps=> q3.

    Worklist over state pairs; the saturated automaton accepts a reduced
    word literally iff some word in the original language freely reduces
    to it.
    """
    n = nfa.num_states
    fw = [set([q]) for q in range(n)]
    bw = [set([q]) for q in range(n)]
    in_edges = {}
    out_edges = {}
    for q, l, r in nfa.letter_edges:
        in_edges.setdefault(r, []).append((q, l))
        out_edges.setdefault(q, []).append((l, r))

    pending = []

    def insert(a, b):
        if b in fw[a]:
            return
        new = [(x, y) for x in bw[a] for y in fw[b] if y not in fw[x]]
        for x, y in new:
            fw[x].add(y)
            bw[y].add(x)
        pending.extend(new)

    for a, b in nfa.eps_edges:
        insert(a, b)
    # seed: every letter edge followed immediately by its inverse
    for q, l, r in nfa.letter_edges:
        for l2, q3 in out_edges.get(r, ()):
            if l2 == -l:
                insert(q, q3)
    while pending:
        q1, q2 = pending.pop()
        for q, l in in_edges.get(q1, ()):
            for l2, q3 in out_edges.get(q2, ()):
                if l2 == -l:
                    insert(q, q3)
    eps = {(a, b) for a in range(n) for b in fw[a] if a != b}
    return Nfa(n, nfa.letter_edges, eps, nfa.initial, nfa.finals)


def accepts(nfa, word):
    """Standard subset simulation, epsilon closure around each letter."""
    closure = nfa.eps_closure_map()
    by_src = nfa.by_source()
    cur = set(closure[nfa.initial])
    for l in word:
        nxt = set()
        for q in cur:
            for r in by_src.get((q, l), ()):
                nxt |= closure[r]
        if not nxt:
            return False
        cur = nxt
    return bool(cur & nfa.finals)


def member_product(hs, word):
    """Is the word's reduced form in the product of the subgroups?"""
    from .words import free_reduce

    saturated = cancellation_closure(product_automaton(hs))
    return accepts(saturated, free_reduce(word))
