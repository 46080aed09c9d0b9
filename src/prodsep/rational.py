"""Membership in products of subgroups, by a rational automaton.

A product H_1 ... H_n is a rational subset of the free group: chain the
Stallings graphs base-to-base with epsilon transitions, then saturate with
epsilon edges across cancelling letter pairs.  After saturation a reduced
word belongs to the subset iff the automaton accepts it literally.  The
saturation records why each pair exists, so unseeded ``factorize`` reads
factors off an accepting run; ``accepts`` reads none and is the reference.
"""

from .errors import CapExceeded


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


def _saturate(nfa, cap=None):
    """Whenever q -x-> q1 =eps*=> q2 -x^-1-> q3, add q =eps=> q3: a worklist
    over state pairs, capped at cap pairs.  Each new pair (x, y) maps to
    the edge (a, b, edge) whose insertion added it: x =eps*=> a => b
    =eps*=> y, the outer pairs trivial or older.  edge is None for an
    epsilon edge of the automaton, (l, q1, q2) for a cancellation.
    """
    n = nfa.num_states
    fw = [{q} for q in range(n)]
    bw = [{q} for q in range(n)]
    in_edges, out_edges = {}, {}
    for q, l, r in nfa.letter_edges:
        in_edges.setdefault(r, []).append((q, l))
        out_edges.setdefault(q, []).append((l, r))
    why, pending = {}, []

    def insert(a, b, edge):
        if b in fw[a]:
            return
        new = [(x, y) for x in bw[a] for y in fw[b] if y not in fw[x]]
        for x, y in new:
            fw[x].add(y)
            bw[y].add(x)
            why[x, y] = (a, b, edge)
        if cap is not None and len(why) > cap:
            raise CapExceeded(f"product automaton has more than {cap} epsilon pairs")
        pending.extend(new)

    for a, b in nfa.eps_edges:
        insert(a, b, None)
    # seed: every letter edge followed immediately by its inverse
    for q, l, r in nfa.letter_edges:
        for l2, q3 in out_edges.get(r, ()):
            if l2 == -l:
                insert(q, q3, (l, r, r))
    while pending:
        q1, q2 = pending.pop()
        for q, l in in_edges.get(q1, ()):
            for l2, q3 in out_edges.get(q2, ()):
                if l2 == -l:
                    insert(q, q3, (l, q1, q2))
    return why


def cancellation_closure(nfa):
    """Saturated: accepts a reduced word iff some accepted word freely reduces to it."""
    return Nfa(nfa.num_states, nfa.letter_edges, _saturate(nfa), nfa.initial, nfa.finals)


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
