"""The benchmark's three workloads: seeded inputs, the solve step, the
certificate step and the correctness gate.

Nothing here imports prodsep at module level. Every function takes the
freshly imported package as ``ps``, so that set-up can be repeated from a
clean import and timed.

Instance costs span four orders of magnitude (from 0.4 ms for tiny image
subgroups to over 0.5 s for a 4,096-element image). A natural draw of a few
hundred instances is therefore dominated by how many heavy ones it happens
to contain, and two seeds disagree by 20-40% on every timing. So the
``separate`` and ``factorize`` pools are stratified: candidates are drawn
exactly as in the acceptance criteria, classified by the exact orders of
their factor image subgroups (and by membership), and accepted until each
stratum holds its quota. The quotas follow the natural stratum counts of a
reference sample (bench/reference.py), except for the weights and the
excluded strata below. The seed picks the instances; the quotas fix the mix.
README.md records the recipes, the counts and the reasons.
"""

import math
import random
import time
from dataclasses import dataclass

# Element cap passed to product_separator, factorize and verify_certificate.
# 4,096-element images are decided; the 98,304-element images of criterion 6
# are refused by the exact-order check and count as undecided.
CAP = 16384

# Candidates drawn before giving up on filling the quotas. The rarest
# stratum needs about 2,000 draws on average, so this is never reached.
MAX_DRAWS = 200_000

# Candidates every set-up draws and classifies, even when the quotas fill
# earlier, so that set-up time does not hinge on how soon the seed happens to
# meet the rarest stratum. The quotas fill within these draws for all but
# about one seed in fifty; those draw on until they fill.
SEPARATE_DRAWS = 3000
FACTORIZE_DRAWS = 1000

# Natural stratum counts: candidates drawn exactly as the workloads draw
# them, with no quota, by ``python3 bench/reference.py --workload <name>``
# (4,000 draws, seed 0). Every quota is computed from these counts by quotas().
SEPARATE_REFERENCE = {
    "img4096-big/member": 4, "img4096-big/non-member": 8, "img4096/member": 34,
    "img768/member": 83, "img768/non-member": 37, "pair/member": 85,
    "pair/non-member": 54, "refused/member": 339, "refused/non-member": 314,
    "small-3/member": 471, "small-3/non-member": 295, "small-4/member": 278,
    "small-4/non-member": 389, "small-5/member": 235, "small-5/non-member": 311,
    "small-6/member": 202, "small-6/non-member": 222, "small-7/member": 130,
    "small-7/non-member": 209,
}
FACTORIZE_REFERENCE = {
    "img4096": 42, "img768": 136, "pair": 135,
    "refused": 867, "small-3": 848, "small-4": 561,
    "small-5": 409, "small-6": 392, "small-7": 312,
    "wide": 298,
}

# Tiers drawn at this many times their natural share in ``separate``. At
# natural share (about 4% of draws together) p90 falls on the border between
# these tiers and the light ones, and it moves by 20-40% from seed to seed.
# img4096 gets less weight: each instance takes 0.6-1.3 s, so a few of them
# already set a third of a pass.
SEPARATE_WEIGHTS = {"img768": 6, "img4096": 2}

# Tiers and strata left out of a pool. Their instances take up to 2.3 s, and
# the cost varies several-fold between instances of one tier, so at its
# natural share a few instances would set most of a run's time (README.md
# has the measured shares and costs). "pair": both images have more than 4
# elements and one more than 128. "wide": the diagonal transition group acts
# on FACTORIZE_MAX_CARRIER points or more. "img4096-big": an img4096 draw
# whose diagonal transition group acts on more than SEPARATE_MAX_CARRIER
# points. Each allocates 19-47 MB against at most 15 MB for the others, so
# the one or two a seed happens to draw would set the process's peak memory
# (50-115 MB over seeds 1-10).
SEPARATE_EXCLUDED = ("pair", "img4096-big")
SEPARATE_MAX_CARRIER = 5
FACTORIZE_EXCLUDED = ("pair", "img4096", "wide")
FACTORIZE_MAX_CARRIER = 12

SEPARATE_SIZE = 360
# The unseeded half of ``factorize``; the seeded half has as many instances.
FACTORIZE_SIZE = 190

# Subgroups of the seeded three-factor half (the criterion-7 pool).
N3_POOL = (
    ("x", "y"),
    ("xx", "y", "xyX"),
    ("yy", "x", "yxY"),
    ("xx", "yy", "xy"),
    ("xx", "yy", "xY"),
)

# ``hall``: one subgroup per run, generators sharing a common prefix.
HALL_PREFIX = 48
HALL_SUFFIXES = (24, 32, 40)
HALL_WORDS = 102


# The signed letters of the alphabet "xy" in canonical order: x, X, y, Y.
LETTERS = (1, -1, 2, -2)


@dataclass(frozen=True)
class Instance:
    subgroups: tuple        # one tuple of generator words per factor
    word: tuple
    member: bool            # the rational oracle's label
    stratum: str
    orders: tuple = ()      # factor image orders; None for an order above CAP
    seeds: tuple = None     # factorize with seeds only


class WrongAnswer(Exception):
    """The library returned a verdict or certificate that is not correct."""


# -- random words ------------------------------------------------------------


def _random_word(rng, ps, lo, hi):
    return ps.free_reduce(tuple(rng.choice(LETTERS) for _ in range(rng.randint(lo, hi))))


def _random_gens(rng, ps, max_gens, max_len):
    gens = [_random_word(rng, ps, 1, max_len) for _ in range(rng.randint(1, max_gens))]
    return tuple(g for g in gens if g) or ((1,),)


def _subgroup_word(rng, ps, gens, max_factors):
    w = ()
    for _ in range(rng.randint(1, max_factors)):
        g = rng.choice(gens)
        w += g if rng.random() < 0.5 else ps.invert(g)
    return ps.free_reduce(w)


def _reduced_word(rng, letters, length, after=None):
    """A reduced word of exactly the given length, not cancelling ``after``."""
    out = []
    prev = after
    while len(out) < length:
        l = rng.choice(letters)
        if prev is not None and l == -prev:
            continue
        out.append(l)
        prev = l
    return tuple(out)


# -- classification ----------------------------------------------------------


class _Chain:
    """The quotient product_separator would build for (subgroups, word)."""

    def __init__(self, ps, alphabet, subgroups, word):
        self.pointed = [ps.stallings_graph(alphabet, g) for g in subgroups]
        attached = ps.attach_word(self.pointed[-1], word)
        graphs = [h.graph for h in self.pointed[:-1]] + [attached.graph]
        groups = [ps.transition_group(ps.expand_to_cover(g)) for g in graphs]
        self.diagonal = ps.diagonal_subgroup(groups)
        self.top = ps.iterated_extension(self.diagonal, (2,) * (len(subgroups) - 1)).top

    def orders(self, ps, subgroups):
        out = []
        for gens in subgroups:
            try:
                out.append(ps.separators.image_subgroup_order(self.top, gens, CAP))
            except ps.CapExceeded:
                out.append(None)
        return tuple(out)


def _tier(orders):
    """Tier of a two-factor instance from its factor image orders."""
    if None in orders:
        return "refused"
    lo, hi = sorted(orders)
    if hi <= 128:
        return "small-%d" % min(7, max(3, int(math.log2(lo * hi))))
    if lo > 4:
        return "pair"
    return "img768" if hi <= 1024 else "img4096"


def tier_of(stratum):
    return stratum.split("/")[0]


def quotas(reference, size, excluded=(), weights=None):
    """Stratum -> quota: ``size`` instances split in proportion to the
    reference counts times the tier's weight; strata named in ``excluded``,
    or of a tier named there, are left out."""
    weights = weights or {}
    share = {k: n * weights.get(tier_of(k), 1) for k, n in reference.items()
             if k not in excluded and tier_of(k) not in excluded}
    total = sum(share.values())
    out = {k: round(size * v / total) for k, v in share.items()}
    return {k: q for k, q in out.items() if q}


class _Oracle:
    """Times the rational-subset oracle across a whole input generation."""

    def __init__(self, ps):
        self.ps = ps
        self.seconds = 0.0

    def member(self, pointed, word):
        t0 = time.perf_counter()
        out = self.ps.member_product(pointed, word)
        self.seconds += time.perf_counter() - t0
        return out


def _fill(quotas, draw, draws):
    """The first candidates of each stratum up to its quota, in draw order.

    Draws ``draws`` candidates, and more if a quota is still open then.
    ``draw(tiers)`` returns (stratum, instance) or None; it may return None
    for a candidate whose tier is not in ``tiers`` without labelling it.
    """
    need = dict(quotas)
    left = sum(need.values())
    pool = []
    for i in range(MAX_DRAWS):
        if left == 0 and i >= draws:
            return pool
        got = draw({tier_of(k) for k, n in need.items() if n})
        if got is None or need.get(got[0], 0) == 0:
            continue
        need[got[0]] -= 1
        left -= 1
        pool.append(got[1])
    raise RuntimeError(f"quotas not filled after {MAX_DRAWS} draws: {need}")


# -- workloads ---------------------------------------------------------------


class Separate:
    """product_separator on criterion-6 instances, members and non-members."""

    name = "separate"

    def quotas(self):
        return quotas(SEPARATE_REFERENCE, SEPARATE_SIZE, SEPARATE_EXCLUDED, SEPARATE_WEIGHTS)

    def draw(self, rng, ps, oracle, tiers=None):
        """One candidate drawn as in criterion 6: (stratum, Instance), or None."""
        g1 = _random_gens(rng, ps, 2, 4)
        g2 = _random_gens(rng, ps, 2, 4)
        w = _random_word(rng, ps, 1, 6)
        if not w:
            return None
        chain = _Chain(ps, ps.Alphabet("xy"), (g1, g2), w)
        orders = chain.orders(ps, (g1, g2))
        tier = _tier(orders)
        if tier == "img4096" and chain.diagonal.carrier > SEPARATE_MAX_CARRIER:
            tier = "img4096-big"
        if tiers is not None and tier not in tiers:
            return None
        member = oracle.member(chain.pointed, w)
        stratum = f"{tier}/{'member' if member else 'non-member'}"
        return stratum, Instance((g1, g2), w, member, stratum, orders)

    def make(self, ps, seed):
        rng = random.Random(f"prodsep-bench/separate/{seed}")
        oracle = _Oracle(ps)
        pool = _fill(self.quotas(), lambda tiers: self.draw(rng, ps, oracle, tiers),
                     SEPARATE_DRAWS)
        return pool, oracle.seconds

    def solve(self, ps, inst):
        return ps.product_separator(ps.Alphabet("xy"), inst.subgroups, inst.word, cap=CAP), None

    def check(self, ps, inst, result, stats):
        if result.excluded is None:
            return False
        if result.excluded == inst.member:
            raise WrongAnswer(f"{inst}: excluded={result.excluded} but oracle member={inst.member}")
        return True

    def certificate(self, ps, inst, result):
        return ps.certificates.emit_certificate(result)


class Factorize:
    """Unseeded two-factor factorize (criterion 5) and seeded three-factor (criterion 7)."""

    name = "factorize"

    def quotas(self):
        return quotas(FACTORIZE_REFERENCE, FACTORIZE_SIZE, FACTORIZE_EXCLUDED)

    def draw(self, rng, ps, oracle, tiers=None):
        """One unseeded candidate drawn as in criterion 5: (tier, Instance), or None."""
        g1 = _random_gens(rng, ps, 2, 5)
        g2 = _random_gens(rng, ps, 2, 5)
        w = ps.free_reduce(_subgroup_word(rng, ps, g1, 3) + _subgroup_word(rng, ps, g2, 3))
        chain = _Chain(ps, ps.Alphabet("xy"), (g1, g2), w)
        if chain.diagonal.carrier >= FACTORIZE_MAX_CARRIER:
            tier, orders = "wide", ()
        else:
            orders = chain.orders(ps, (g1, g2))
            tier = _tier(orders)
        if tiers is not None and tier not in tiers:
            return None
        if not oracle.member(chain.pointed, w):
            raise WrongAnswer(f"generated word {w} is not in the product")
        return tier, Instance((g1, g2), w, True, tier, orders)

    def make(self, ps, seed):
        rng = random.Random(f"prodsep-bench/factorize/{seed}")
        alphabet = ps.Alphabet("xy")
        oracle = _Oracle(ps)
        unseeded = _fill(self.quotas(), lambda tiers: self.draw(rng, ps, oracle, tiers),
                         FACTORIZE_DRAWS)
        seeded = []
        while len(seeded) < len(unseeded):
            subgroups = tuple(tuple(alphabet.parse(t) for t in rng.choice(N3_POOL))
                              for _ in range(3))
            parts = tuple(_subgroup_word(rng, ps, g, 3) for g in subgroups)
            w = ps.free_reduce(parts[0] + parts[1] + parts[2])
            pointed = [ps.stallings_graph(alphabet, g) for g in subgroups]
            if not oracle.member(pointed, w):
                raise WrongAnswer(f"generated word {w} is not in the product")
            seeded.append(Instance(subgroups, w, True, "seeded-3", seeds=parts))
        # alternate the halves so every stretch of the run sees both
        pool = [inst for pair in zip(unseeded, seeded) for inst in pair]
        return pool, oracle.seconds

    def solve(self, ps, inst):
        stats = ps.separators.FactorizeStats()
        out = ps.factorize(ps.Alphabet("xy"), inst.subgroups, inst.word, seeds=inst.seeds,
                           cap=CAP, stats=stats)
        return out, stats

    def check(self, ps, inst, result, stats):
        if result is None:
            if inst.seeds is not None or not stats.capped_search:
                raise WrongAnswer(f"{inst}: no factorization of a member word below the cap")
            return False
        alphabet = ps.Alphabet("xy")
        if len(result.factors) != len(inst.subgroups):
            raise WrongAnswer(f"{inst}: {len(result.factors)} factors")
        product = ()
        for gens, f in zip(inst.subgroups, result.factors):
            if not ps.contains(ps.stallings_graph(alphabet, gens), f):
                raise WrongAnswer(f"{inst}: factor {f} is not in its subgroup")
            product += f
        if ps.free_reduce(product) != inst.word:
            raise WrongAnswer(f"{inst}: factors multiply to {ps.free_reduce(product)}")
        return True

    def certificate(self, ps, inst, result):
        if result is None:
            return None
        return ps.certificates.emit_certificate(result, ps.Alphabet("xy"), inst.subgroups, inst.word)


class Hall:
    """hall_separator on one subgroup with long generators sharing a prefix."""

    name = "hall"

    def make(self, ps, seed):
        rng = random.Random(f"prodsep-bench/hall/{seed}")
        alphabet = ps.Alphabet("xy")
        oracle = _Oracle(ps)
        prefix = _reduced_word(rng, LETTERS, HALL_PREFIX)
        gens = tuple(prefix + _reduced_word(rng, LETTERS, n, after=prefix[-1])
                     for n in HALL_SUFFIXES)
        h = ps.stallings_graph(alphabet, gens)
        pool = []
        while len(pool) < HALL_WORDS:
            # 1, 2 or 3 generator factors, in turn, so the mix of word lengths is fixed
            k = len(pool) % 3 + 1
            picks = [(rng.randrange(len(gens)), rng.choice((1, -1))) for _ in range(k)]
            if any(a[0] == b[0] and a[1] != b[1] for a, b in zip(picks, picks[1:])):
                continue
            w = ()
            for i, sign in picks:
                w += gens[i] if sign > 0 else ps.invert(gens[i])
            w = ps.free_reduce(w)
            # perturb the tail (the free end of the attached path), so the
            # path still folds all the way from the base into the graph
            t = rng.randint(1, 4)
            w = ps.free_reduce(_reduced_word(rng, LETTERS, t) + w[t:])
            if not w or oracle.member([h], w):
                continue
            pool.append(Instance((gens,), w, False, f"hall-{k}"))
        return pool, oracle.seconds

    def solve(self, ps, inst):
        return ps.hall_separator(ps.Alphabet("xy"), inst.subgroups[0], inst.word), None

    def check(self, ps, inst, result, stats):
        # hall_separator raises unless the word's image moves the base vertex
        # and every generator image fixes it; verify_certificate checks both
        # again from the emitted permutations, and is this workload's gate.
        return True

    def certificate(self, ps, inst, result):
        return ps.certificates.emit_certificate(result)


WORKLOADS = {w.name: w for w in (Separate(), Factorize(), Hall())}


def verify(ps, text):
    """Parse and re-check a certificate; raises WrongAnswer on rejection."""
    cert = ps.certificates.parse_certificate(text)
    ok, messages = ps.certificates.verify_certificate(cert, cap=CAP)
    if not ok:
        raise WrongAnswer(f"certificate rejected: {messages}\n{text}")
    return cert


def check_round_trip(ps, text, cert):
    if ps.certificates.emit_certificate(cert) != text:
        raise WrongAnswer(f"certificate does not round-trip:\n{text}")
