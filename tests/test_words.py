import hypothesis
import hypothesis.strategies as st
import pytest

from prodsep.words import Alphabet, free_reduce, invert, is_reduced

A = Alphabet("xy")

letters = st.sampled_from([1, -1, 2, -2])
words = st.lists(letters, max_size=30).map(tuple)


def test_parse_format_round_trip():
    for text in ["xyXY", "1", "x", "Yx"]:
        assert A.format(A.parse(text)) == text
    assert A.parse("1") == ()
    assert A.parse("xyXY") == (1, 2, -1, -2)


def test_parse_rejects_unknown_symbols():
    with pytest.raises(ValueError):
        A.parse("xz")
    with pytest.raises(ValueError):
        Alphabet("x").parse("y")


def test_only_the_symbols_and_their_ascii_capitals_are_letters():
    # KELVIN SIGN lowercases to k, but no text this package writes contains it
    B = Alphabet("kxy")
    assert B.parse("Kkx") == (-1, 1, 2)
    for text in ["\u212ax", "x\u212a"]:
        with pytest.raises(ValueError, match="unknown generator symbol '\u212a'"):
            B.parse(text)


@hypothesis.given(words)
def test_format_parse_round_trip(w):
    assert A.parse(A.format(w)) == w


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet("")
    with pytest.raises(ValueError):
        Alphabet("xx")
    with pytest.raises(ValueError):
        Alphabet("xY")


def test_free_reduce_examples():
    assert free_reduce(A.parse("xyYx")) == A.parse("xx")
    assert free_reduce(()) == ()
    assert free_reduce(A.parse("xyXY")) == A.parse("xyXY")


def test_invert_examples():
    assert invert(A.parse("xy")) == A.parse("YX")
    assert invert(()) == ()
    assert invert(A.parse("xx")) == A.parse("XX")


@hypothesis.given(words)
def test_free_reduce_idempotent(w):
    assert free_reduce(free_reduce(w)) == free_reduce(w)


@hypothesis.given(words)
def test_word_times_inverse_reduces_to_identity(w):
    assert free_reduce(w + invert(w)) == ()


@hypothesis.given(words)
def test_reduction_shrinks_and_preserves_parity(w):
    r = free_reduce(w)
    assert len(r) <= len(w)
    assert len(r) % 2 == len(w) % 2
    assert is_reduced(r)
