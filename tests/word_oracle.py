"""Reference free-group arithmetic on (generator, exponent) letters.

This is the letter-by-letter word arithmetic that ``orthosum.freegroup``
replaced with integer codes: free reduction pushes each letter on a stack and
pops instead when the top is the same generator with the opposite exponent;
a product reduces the concatenated letters, and an inverse reverses them with
flipped exponents.  Nothing here reads a letter code or calls an operator of
:class:`Word` or :class:`WordTuple`; their constructors only hold the result.
"""

from __future__ import annotations

from typing import Iterable

from orthosum.freegroup import Word, WordTuple


def reduce(letters: Iterable[tuple[int, int]]) -> Word:
    out: list[tuple[int, int]] = []
    for g, e in letters:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return Word(tuple(out))


def multiply(a: Word, b: Word) -> Word:
    return reduce(a.letters + b.letters)


def inverse(a: Word) -> Word:
    return Word(tuple((g, -e) for g, e in reversed(a.letters)))


def tuple_multiply(a: WordTuple, b: WordTuple) -> WordTuple:
    return WordTuple(tuple(map(multiply, a.words, b.words)))


def tuple_inverse(a: WordTuple) -> WordTuple:
    return WordTuple(tuple(map(inverse, a.words)))
