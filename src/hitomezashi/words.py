"""Word algebra over two-letter alphabets, plus the Fibonacci/Pell sequences.

Binary words (over ``{0,1}``) encode the first-stitch state of each line in a
stitch grid; turn words (over ``{L,R}``) drive the boundary turtle used to
trace snowflake tiles.  Words are immutable values: every operation returns a
new word, and words serialize to/from plain strings (the empty word is the
empty string).
"""

from __future__ import annotations

from functools import lru_cache
from operator import index
from typing import Iterable, Iterator


def _count(what: str, value, least: int | None = 1) -> int:
    """A size, count, index, order or period read by operator.index (bools
    serve as ints), else ValueError; so too below least, unless it is None."""
    try:
        count = index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer") from None
    if least is not None and count < least:
        raise ValueError(f"{what} must be >= {least}")
    return count


class _Word:
    """Common machinery for immutable two-letter words."""

    __slots__ = ("_letters",)

    _alphabet: str = ""
    _swap: dict[int, int] = {}

    def __init__(self, letters: str | Iterable[str] = ""):
        if not isinstance(letters, str):
            letters = "".join(letters)
        bad = set(letters) - set(self._alphabet)
        if bad:
            raise ValueError(
                f"{type(self).__name__} letters must be from "
                f"{list(self._alphabet)}, got {sorted(bad)}"
            )
        self._letters = letters

    def __len__(self) -> int:
        return len(self._letters)

    def __iter__(self) -> Iterator[str]:
        return iter(self._letters)

    def __getitem__(self, index: int) -> str:
        return self._letters[index]

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other._letters == self._letters

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._letters))

    def __str__(self) -> str:
        return self._letters

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._letters!r})"

    def __add__(self, other: "_Word") -> "_Word":
        if type(other) is not type(self):
            raise TypeError(f"cannot concatenate {type(self).__name__} "
                            f"with {type(other).__name__}")
        return type(self)(self._letters + other._letters)

    def repeat(self, k: int) -> "_Word":
        """The k-fold concatenation of this word, k >= 1."""
        return type(self)(self._letters * _count("repeat count", k))

    def complement(self) -> "_Word":
        """Swap the two letters throughout (an involution)."""
        return type(self)(self._letters.translate(self._swap))

    def reverse(self) -> "_Word":
        """Reverse the letter order (an involution)."""
        return type(self)(self._letters[::-1])

    def is_palindrome(self) -> bool:
        return self._letters == self._letters[::-1]

    def is_antipalindrome(self) -> bool:
        return self.reverse() == self.complement()


_BITS = bytes.maketrans(b"01", b"\0\1")


class BinaryWord(_Word):
    """A finite word over ``{0,1}``."""

    __slots__ = ()
    _alphabet = "01"
    _swap = str.maketrans("01", "10")

    @property
    def bits(self) -> tuple[int, ...]:
        """The letters as integers, reading order preserved."""
        return tuple(self._letters.encode().translate(_BITS))


class TurnWord(_Word):
    """A finite word over ``{L,R}`` (left/right quarter turns)."""

    __slots__ = ()
    _alphabet = "LR"
    _swap = str.maketrans("LR", "RL")


def fibonacci(n: int) -> int:
    """Fibonacci number with the 1, 1, 2, 3, 5, ... seeding (F(0) = F(1) = 1)."""
    a = b = 1
    for _ in range(_count("index", n, 0)):
        a, b = b, a + b
    return a


def pell(n: int) -> int:
    """Pell number: P(0) = 0, P(1) = 1, P(n) = 2 P(n-1) + P(n-2)."""
    a, b = 0, 1
    for _ in range(_count("index", n, 0)):
        a, b = b, 2 * b + a
    return a


def pell_word(n: int) -> BinaryWord:
    """Pell word: the empty word, then 1, then
    complement(u(n-1)) + complement(reverse(u(n-2))) + u(n-1).

    The length of pell_word(n) is pell(n); odd-index words are palindromes
    and even-index words are antipalindromes.
    """
    # the index is read before the cache hashes it
    return _pell_word(_count("index", n, 0))


@lru_cache(maxsize=None)
def _pell_word(n: int) -> BinaryWord:
    if n < 2:
        return BinaryWord("1" * n)
    prev, prev2 = _pell_word(n - 1), _pell_word(n - 2)
    return prev.complement() + prev2.reverse().complement() + prev


def fib_turtle_word(n: int) -> TurnWord:
    """Turn word with Fibonacci-style recursion: starting from the empty word
    and R, each step appends the previous word and either the one before it
    (when n = 2 mod 3) or its complement (when n = 0, 1 mod 3).

    Word lengths follow the 0, 1, 1, 2, 3, 5, ... recursion.
    """
    return _fib_turtle_word(_count("index", n, 0))


@lru_cache(maxsize=None)
def _fib_turtle_word(n: int) -> TurnWord:
    if n < 2:
        return TurnWord("R" * n)
    prev, prev2 = _fib_turtle_word(n - 1), _fib_turtle_word(n - 2)
    if n % 3 == 2:
        return prev + prev2
    return prev + prev2.complement()
