"""Byte-identity hashes: the certificates and verdicts of fixed draws.

Each line names a set of draws and prints the sha256 (first 16 hex
digits) of the JSON list of [certificate text, [verify ok, messages]]
per draw, with the count of each status.  A change that keeps every
certificate, verdict and factorization the same prints the same lines.
The runner also checks that every certificate verifies and that
``rational.member_product`` agrees with every decided status.

* The bench pools: ``separate``, ``factorize`` and ``hall`` of
  ``bench/workloads.py`` at seeds 1 and 2, solved and verified at the
  bench cap.  ``bench/`` is imported and read, never written.
* Five product-separator sweeps over the alphabet xy.  Three at p = 2
  (the recipe of ``BENCH_27.json``): 300 three-factor draws of
  ``random.Random(21)`` at cap 4096 and of ``Random(22)`` at cap 300, and
  150 four-factor draws of ``Random(41)`` at cap 512.  Two at p = 3, where
  the image structures hold dict vectors: 300 two-factor draws of
  ``Random(13)`` at cap 16384 and 150 three-factor draws of ``Random(23)``
  at cap 4096.
* Three seeded factorization sweeps, which pinch at m = 4 and 5 and at
  p = 3: 150 four-factor draws of ``Random(44)`` and 60 five-factor draws
  of ``Random(45)`` at p = 2, and 150 three-factor draws of ``Random(43)``
  at p = 3.  Each draw's seeds are products of one to three of their
  subgroup's generators or inverses, and its word is theirs reduced;
  ``factorize`` runs at the default cap.

    python -m tests.sweeps               # every pool and sweep
    python -m tests.sweeps hall n3       # those whose name contains a word

``pool_rows``, ``sweep_rows`` and ``seeded_rows`` give each set's rows,
[certificate text, verdict, status] per draw, and ``SETS`` names them.
A full run takes under a minute, so the runner is not part of the suite;
``tests/test_sweeps.py`` holds the decided draws of the cheaper sets to
their texts and verdicts there.
"""

import hashlib
import json
import random
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import prodsep  # noqa: E402
from prodsep.certificates import (  # noqa: E402
    HallCertificate,
    ProductCertificate,
    emit_certificate,
    parse_certificate,
    verify_certificate,
)
from prodsep.rational import member_product  # noqa: E402
from prodsep.separators import FactorizeStats  # noqa: E402
from prodsep.stallings import stallings_graph  # noqa: E402
from prodsep.words import Alphabet, free_reduce, invert  # noqa: E402

A = Alphabet("xy")
SEEDS = (1, 2)
UNDECIDED = ("partial", "none")  # the statuses that claim nothing
# name: (random.Random seed, factors, draws, cap, prime of every level)
SWEEPS = {
    "n3 Random(21) cap 4096": (21, 3, 300, 4096, 2),
    "n3 Random(22) cap 300": (22, 3, 300, 300, 2),
    "n4 Random(41) cap 512": (41, 4, 150, 512, 2),
    "n2 p3 Random(13) cap 16384": (13, 2, 300, 16384, 3),
    "n3 p3 Random(23) cap 4096": (23, 3, 150, 4096, 3),
}
# name: (random.Random seed, factors, draws, prime of every level)
SEEDED = {
    "seeded n4 Random(44)": (44, 4, 150, 2),
    "seeded n5 Random(45)": (45, 5, 60, 2),
    "seeded n3 p3 Random(43)": (43, 3, 150, 3),
}


def digest(value):
    """The first 16 hex digits of the sha256 of value as JSON."""
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def _verdict(text, cap):
    ok, messages = verify_certificate(parse_certificate(text), cap=cap)
    return [ok, messages]


def _workloads():
    """bench/workloads.py, imported without writing a bytecode cache there."""
    if str(ROOT / "bench") not in sys.path:
        sys.path.insert(0, str(ROOT / "bench"))
    sys.dont_write_bytecode, before = True, sys.dont_write_bytecode
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = before
    return workloads


def pool_rows(name, seed):
    """[certificate text, verdict, status] per draw of one bench pool;
    [None, None, "none"] for a draw without a certificate."""
    workloads = _workloads()
    load = workloads.WORKLOADS[name]
    insts, _ = load.make(prodsep, seed)
    rows = []
    for inst in insts:
        result, _ = load.solve(prodsep, inst)
        text = load.certificate(prodsep, inst, result)
        if text is None:
            rows.append([None, None, "none"])
        else:
            rows.append([text, _verdict(text, workloads.CAP),
                         getattr(result, "status", type(result).__name__)])
    return rows


def _word(rng, lo, hi):
    letters = A.letters()
    return free_reduce(tuple(rng.choice(letters) for _ in range(rng.randint(lo, hi))))


def _subgroups(rng, factors):
    """1-2 generators of 1-3 letters per factor."""
    return tuple(tuple(_word(rng, 1, 3) or (1,) for _ in range(rng.randint(1, 2)))
                 for _ in range(factors))


def sweep_draw(rng, factors):
    """(subgroups, word): the word is random with probability 1/2, else
    one generator per factor."""
    subgroups = _subgroups(rng, factors)
    if rng.random() < 0.5:
        return subgroups, _word(rng, 0, 6)
    return subgroups, free_reduce(sum((rng.choice(gens) for gens in subgroups), ()))


def sweep_rows(seed, factors, draws, cap, prime):
    """[certificate text, verdict, status] per draw of one product-separator
    sweep."""
    rng = random.Random(seed)
    rows = []
    for _ in range(draws):
        subgroups, word = sweep_draw(rng, factors)
        cert = prodsep.product_separator(A, subgroups, word, primes=(prime,) * (factors - 1),
                                         cap=cap)
        text = emit_certificate(cert)
        rows.append([text, _verdict(text, cap), cert.status])
    return rows


def seeded_draw(rng, factors):
    """(subgroups, seeds, word): each seed a product of one to three of its
    subgroup's generators or their inverses, and the word the seeds'
    product reduced."""
    subgroups = _subgroups(rng, factors)
    seeds = []
    for gens in subgroups:
        w = ()
        for _ in range(rng.randint(1, 3)):
            x = rng.choice(gens)
            w += x if rng.random() < 0.5 else invert(x)
        seeds.append(free_reduce(w))
    return subgroups, seeds, free_reduce(sum(seeds, ()))


def seeded_rows(seed, factors, draws, prime, stats=None):
    """[certificate text, verdict, status] per draw of one seeded
    factorization sweep; stats, a FactorizeStats, counts its pinches."""
    rng = random.Random(seed)
    rows = []
    for _ in range(draws):
        subgroups, seeds, word = seeded_draw(rng, factors)
        cert = prodsep.factorize(A, subgroups, word, seeds=seeds,
                                 primes=(prime,) * (factors - 1), stats=stats)
        text = emit_certificate(cert)
        rows.append([text, _verdict(text, prodsep.DEFAULT_CAP), type(cert).__name__])
    return rows


# name: (rows function, its arguments), in the runner's order
SETS = {f"{name}-{seed}": (pool_rows, (name, seed))
        for name in ("separate", "factorize", "hall") for seed in SEEDS}
SETS.update((name, (sweep_rows, args)) for name, args in SWEEPS.items())
SETS.update((name, (seeded_rows, args)) for name, args in SEEDED.items())


def check(text, verdict, status):
    """Raise unless the certificate verifies and, if its status is decided,
    ``rational.member_product`` agrees with what it claims."""
    if not verdict[0]:
        raise AssertionError(f"certificate rejected: {verdict[1]}\n{text}")
    if status in UNDECIDED:
        return
    cert = parse_certificate(text)
    if isinstance(cert, HallCertificate):
        subgroups, member = [cert.generators], False
    else:
        subgroups = cert.subgroups
        member = not isinstance(cert, ProductCertificate) or cert.status == "member"
    if member_product([stallings_graph(cert.alphabet, g) for g in subgroups],
                      cert.word) != member:
        raise AssertionError(f"status {status} but member_product {not member}\n{text}")


def main(argv=None):
    words = sys.argv[1:] if argv is None else argv
    for name, (rows_of, args) in SETS.items():
        if words and not any(w in name for w in words):
            continue
        t0 = time.perf_counter()
        stats = FactorizeStats()
        seeded = rows_of is seeded_rows
        rows = rows_of(*args, stats=stats) if seeded else rows_of(*args)
        for row in rows:
            if row[0] is not None:
                check(*row)
        counts = Counter(status for _, _, status in rows)
        if seeded:
            counts.update(cuts=stats.cuts, spines=stats.spines)
        shown = ", ".join(f"{k} {v}" for k, v in sorted(counts.items()))
        elapsed = time.perf_counter() - t0
        print(f"{name}: {digest([row[:2] for row in rows])} ({shown}; {elapsed:.1f} s)",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
