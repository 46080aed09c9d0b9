"""Free-group words over a fixed finite alphabet.

A letter is a nonzero integer: generator number i (0-based) is ``i + 1``
and its inverse is ``-(i + 1)``.  A word is a tuple of letters; the empty
tuple is the identity.  The text encoding uses one lowercase ASCII letter
per generator and the corresponding uppercase letter for its inverse, so
``xyXY`` reads as x y x^-1 y^-1; the empty word is spelled ``1``.
"""

import string


class Alphabet:
    """An ordered set of distinct generator symbols.

    The symbol order is fixed for the session and determines the canonical
    order of letters used everywhere a deterministic exploration order is
    needed (folding, spanning trees, BFS enumerations).
    """

    def __init__(self, symbols):
        symbols = tuple(symbols)
        if not symbols:
            raise ValueError("alphabet must be nonempty")
        for s in symbols:
            if len(s) != 1 or s not in string.ascii_lowercase:
                raise ValueError(f"generator symbol must be a lowercase ASCII letter, got {s!r}")
        if len(set(symbols)) != len(symbols):
            raise ValueError(f"generator symbols must be distinct, got {''.join(symbols)!r}")
        self.symbols = symbols
        self._letters = tuple(l for i in range(len(symbols)) for l in (i + 1, -(i + 1)))
        # the text encoding, both ways: exactly these characters are letters
        self._char = {l: symbols[abs(l) - 1] if l > 0 else symbols[abs(l) - 1].upper()
                      for l in self._letters}
        self._letter = {c: l for l, c in self._char.items()}

    @property
    def size(self):
        return len(self.symbols)

    def letters(self):
        """All signed letters in canonical order: +1, -1, +2, -2, ..."""
        return self._letters

    def positive_letters(self):
        return tuple(range(1, len(self.symbols) + 1))

    def parse(self, text):
        """Parse a word from its text encoding ('1' is the empty word)."""
        text = text.strip()
        if text == "1" or text == "":
            return ()
        try:
            return tuple(map(self._letter.__getitem__, text))
        except KeyError as exc:
            raise ValueError(f"unknown generator symbol {exc.args[0]!r}") from None

    def format(self, word):
        """Inverse of parse."""
        if not word:
            return "1"
        char = self._char
        return "".join([char[l] for l in word])

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self):
        return hash(self.symbols)

    def __repr__(self):
        return f"Alphabet({''.join(self.symbols)!r})"


def free_reduce(word):
    """The unique reduced word equal to ``word`` in the free group."""
    out = []
    for l in word:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def invert(word):
    """Reverse the word and flip every sign."""
    return tuple(-l for l in reversed(word))


def is_reduced(word):
    return all(word[i] != -word[i + 1] for i in range(len(word) - 1))
