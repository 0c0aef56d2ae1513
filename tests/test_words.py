import pytest
from hypothesis import given, strategies as st

from hitomezashi.words import (BinaryWord, TurnWord, fib_turtle_word,
                               fibonacci, pell, pell_word)

binary_words = st.text(alphabet="01", max_size=16).map(BinaryWord)
turn_words = st.text(alphabet="LR", max_size=16).map(TurnWord)


def test_complement_examples():
    assert str(BinaryWord("01100").complement()) == "10011"
    assert BinaryWord().complement() == BinaryWord()
    assert str(BinaryWord("1").complement()) == "0"


def test_reverse_examples():
    assert str(BinaryWord("01100").reverse()) == "00110"
    assert BinaryWord("010").reverse() == BinaryWord("010")
    assert BinaryWord().reverse() == BinaryWord()


def test_palindrome_classification():
    assert BinaryWord("10001").is_palindrome()
    assert BinaryWord("01").is_antipalindrome()
    assert not BinaryWord("01100").is_palindrome()
    assert not BinaryWord("01100").is_antipalindrome()


def test_letter_validation():
    with pytest.raises(ValueError):
        BinaryWord("012")
    with pytest.raises(ValueError):
        TurnWord("LRX")


def test_concat_and_repeat():
    assert str(BinaryWord("10").repeat(3)) == "101010"
    assert BinaryWord().repeat(5) == BinaryWord()
    assert str(BinaryWord("110").repeat(2)) == "110110"
    assert str(BinaryWord("01") + BinaryWord("10")) == "0110"
    with pytest.raises(ValueError):
        BinaryWord("1").repeat(0)
    with pytest.raises(TypeError):
        BinaryWord("1") + TurnWord("R")


def test_string_round_trip():
    for text in ("", "0", "1101001"):
        assert str(BinaryWord(text)) == text
    assert str(TurnWord("RLLR")) == "RLLR"


@given(binary_words)
def test_complement_reverse_are_commuting_involutions(word):
    assert word.complement().complement() == word
    assert word.reverse().reverse() == word
    assert word.reverse().complement() == word.complement().reverse()


@given(turn_words)
def test_turn_word_involutions(word):
    assert word.complement().complement() == word
    assert word.reverse().reverse() == word
    assert word.reverse().complement() == word.complement().reverse()


@pytest.mark.parametrize("word_type, alphabet",
                         [(BinaryWord, "01"), (TurnWord, "LR")])
@given(data=st.data())
def test_words_read_hash_and_index_as_their_letters(word_type, alphabet,
                                                     data):
    text = data.draw(st.text(alphabet=alphabet, max_size=16))
    word = word_type(text)
    from_letters = word_type(iter(text))
    assert from_letters == word and hash(from_letters) == hash(word)
    assert len({word, from_letters, word_type(list(text))}) == 1
    assert list(word) == list(text)
    assert [word[i] for i in range(-len(text), len(text))] == \
        [text[i] for i in range(-len(text), len(text))]
    bounds = st.integers(-20, 20)
    start, stop = data.draw(bounds), data.draw(bounds)
    assert word[start:stop] == text[start:stop]


@given(st.text("01"))
def test_bits_are_the_letters_as_ints(text):
    bits = BinaryWord(text).bits
    assert bits == tuple(int(c) for c in text)
    assert all(type(b) is int for b in bits)


def test_fibonacci_seeding():
    assert [fibonacci(n) for n in range(11)] == \
        [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    assert fibonacci(5) == 8
    with pytest.raises(ValueError):
        fibonacci(-1)


def test_pell_values():
    assert [pell(n) for n in range(7)] == [0, 1, 2, 5, 12, 29, 70]
    assert pell(7) == 169
    assert pell(9) == 985
    with pytest.raises(ValueError):
        pell(-1)


def test_pell_word_values():
    with pytest.raises(ValueError, match="index must be >= 0"):
        pell_word(-1)
    assert str(pell_word(0)) == ""
    assert str(pell_word(1)) == "1"
    assert str(pell_word(2)) == "01"
    assert str(pell_word(3)) == "10001"
    assert str(pell_word(4)) == "011100110001"


@pytest.mark.parametrize("n", range(13))
def test_pell_word_length_is_pell_number(n):
    assert len(pell_word(n)) == pell(n)


@pytest.mark.parametrize("n", range(1, 13))
def test_pell_word_palindromicity_alternates(n):
    if n % 2 == 1:
        assert pell_word(n).is_palindrome()
    else:
        assert pell_word(n).is_antipalindrome()


@pytest.mark.parametrize("n", range(1, 11))
def test_every_third_fibonacci_after_one_is_odd(n):
    assert fibonacci(3 * n + 1) % 2 == 1


@pytest.mark.parametrize("k", range(1, 11))
def test_odd_index_pell_is_one_mod_four(k):
    assert pell(2 * k + 1) % 4 == 1


def test_turtle_word_values():
    with pytest.raises(ValueError, match="index must be >= 0"):
        fib_turtle_word(-1)
    assert str(fib_turtle_word(0)) == ""
    assert str(fib_turtle_word(1)) == "R"
    assert str(fib_turtle_word(3)) == "RL"
    assert str(fib_turtle_word(4)) == "RLL"


@pytest.mark.parametrize("n", range(2, 16))
def test_turtle_word_lengths_follow_fibonacci_recursion(n):
    assert len(fib_turtle_word(n)) == \
        len(fib_turtle_word(n - 1)) + len(fib_turtle_word(n - 2))
