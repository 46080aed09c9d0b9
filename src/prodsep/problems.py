"""Line-oriented input files: alphabet, named subgroups, word, primes.

Example::

    # a small worked instance
    alphabet: xy
    H1: xyXY, yy
    H2: xx
    word: xyX
    primes: 2

``gen:`` lines accumulate generators into a default subgroup named H,
for files that describe a single subgroup.  Comments run from ``#`` to
the end of the line.
"""

import re
from dataclasses import dataclass

from .groups import DEFAULT_CAP, XGroup, fmt_perm, parse_perm
from .words import Alphabet


class ProblemParseError(ValueError):
    """Malformed input; line_no is None when no single line is at fault."""

    def __init__(self, line_no, message):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class Problem:
    alphabet: Alphabet
    subgroups: dict  # name -> tuple of words, in file order
    word: tuple = None
    primes: tuple = None

    def subgroup_list(self):
        return tuple(self.subgroups.values())


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")


def read_rows(text, unique=False):
    """(line number, key, value) for each line that is not blank or a comment.

    Comments run from ``#`` to the end of the line.  With unique, a key
    that appears a second time is an error naming that line.
    """
    seen = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ProblemParseError(line_no, f"expected 'key: value', got {line!r}")
        key, value = (part.strip() for part in line.split(":", 1))
        if unique and key in seen:
            raise ProblemParseError(line_no, f"{key} declared twice")
        seen.add(key)
        yield line_no, key, value


def convert(line_no, key, value, parse):
    """parse(value), with a ValueError reported as 'bad <key>: ...' on its line."""
    try:
        return parse(value)
    except ValueError as exc:
        raise ProblemParseError(line_no, f"bad {key}: {exc}") from None


_INT_RE = re.compile(r"[+-]?[0-9]+")


def parse_int(text):
    """An integer in ASCII digits, with an optional sign.

    ``int`` alone also reads the decimal digits of other scripts, which no
    emitted file contains.
    """
    text = text.strip()
    if not _INT_RE.fullmatch(text):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def parse_integers(text):
    """Comma-separated integers; empty items are skipped."""
    return tuple(parse_int(tok) for tok in text.split(",") if tok.strip())


def parse_carrier(text):
    """A carrier size in 0..DEFAULT_CAP, checked before any point is allocated."""
    n = parse_int(text)
    if not 0 <= n <= DEFAULT_CAP:
        raise ValueError(f"{text} is not in 0..{DEFAULT_CAP}")
    return n


def parse_words(alphabet, text):
    """Comma-separated words over the alphabet."""
    return tuple(alphabet.parse(tok) for tok in text.split(","))


def parse_problem(text):
    alphabet = None
    subgroups = {}
    word = None
    primes = None
    for line_no, key, value in read_rows(text):
        if key == "alphabet":
            if alphabet is not None:
                raise ProblemParseError(line_no, "alphabet declared twice")
            alphabet = convert(line_no, key, value, Alphabet)
            continue
        if alphabet is None:
            raise ProblemParseError(line_no, "alphabet must be declared first")
        if key == "word":
            if word is not None:
                raise ProblemParseError(line_no, "word declared twice")
            word = convert(line_no, key, value, alphabet.parse)
        elif key == "primes":
            if primes is not None:
                raise ProblemParseError(line_no, "primes declared twice")
            primes = convert(line_no, key, value, parse_integers)
        elif key == "gen":
            subgroups.setdefault("H", ())
            subgroups["H"] += (convert(line_no, key, value, alphabet.parse),)
        else:
            if not _NAME_RE.match(key):
                raise ProblemParseError(line_no, f"bad subgroup name {key!r}")
            if key in subgroups:
                raise ProblemParseError(line_no, f"duplicate subgroup name {key!r}")
            subgroups[key] = convert(line_no, key, value,
                                     lambda v: parse_words(alphabet, v))
    if alphabet is None:
        raise ProblemParseError(None, "missing alphabet declaration")
    return Problem(alphabet, subgroups, word, primes)


def parse_group_spec(text):
    """A permutation group: alphabet, carrier size, one cycle line per generator."""
    alphabet = None
    carrier = None
    perms = {}
    for line_no, key, value in read_rows(text, unique=True):
        if key == "alphabet":
            alphabet = convert(line_no, key, value, Alphabet)
        elif key == "carrier":
            carrier = convert(line_no, key, value, parse_carrier)
        else:
            if alphabet is None or carrier is None:
                raise ProblemParseError(line_no, "alphabet and carrier must come first")
            if key not in alphabet.symbols:
                raise ProblemParseError(line_no, f"unknown generator {key!r}")
            perms[key] = convert(line_no, key, value, lambda v: parse_perm(v, carrier))
    if alphabet is None or carrier is None:
        raise ProblemParseError(None, "missing alphabet or carrier")
    missing = [s for s in alphabet.symbols if s not in perms]
    if missing:
        raise ProblemParseError(None, f"missing permutation for {missing[0]!r}")
    return XGroup(alphabet, [perms[s] for s in alphabet.symbols])


def format_group_spec(group):
    lines = [f"alphabet: {''.join(group.alphabet.symbols)}",
             f"carrier: {group.carrier}"]
    for s, x in zip(group.alphabet.symbols, group.alphabet.positive_letters()):
        lines.append(f"{s}: {fmt_perm(group.perm(x))}")
    return "\n".join(lines) + "\n"
