"""Reduced words in free groups, tuples in direct powers, and p-dissociate families.

Words are kept fully reduced at all times; reduction happens on the fly during
multiplication, since everything downstream keys on exact word identity.  A
word family is certified p-dissociate by the prefix walk of
:mod:`orthosum.orthogonality`, with its words as unit-coefficient monomials.

Arithmetic runs on integer codes.  The letter g_i^e is the int ``2 i + (e > 0)``,
a word is the tuple of its letter codes and a word tuple the tuple of its
words.  The code preserves order ((g, e) < (g', e') exactly when their codes
compare so), hence sorting coded word tuples sorts them as :class:`WordTuple`
does; the inverse of a letter is ``c ^ 1`` and free reduction cancels a code
against a neighbour ``c ^ 1``.  :class:`Word` and :class:`WordTuple` are the
parse and format types, validated where words enter or leave the arithmetic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice, product
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DEFAULT_BUDGET, check_budget, check_even_p
from .partitions import kernel_code

_WORD_LETTER = re.compile(r"^([gG])(\d+)$")


@dataclass(frozen=True, order=True)
class Word:
    """A reduced word; letters are (generator_index, exponent) with exponent +-1.

    The empty tuple is the identity.
    """

    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        for g, e in self.letters:
            if g < 1 or e not in (-1, 1):
                raise ValueError(f"bad letter {(g, e)}")
        for (g1, e1), (g2, e2) in zip(self.letters, self.letters[1:]):
            if g1 == g2 and e1 == -e2:
                raise ValueError(f"word {self.letters} is not reduced")

    @classmethod
    def reduce(cls, letters: Iterable[tuple[int, int]]) -> "Word":
        """Freely reduce an arbitrary letter sequence (stack-based)."""
        out: list[tuple[int, int]] = []
        for g, e in letters:
            if out and out[-1][0] == g and out[-1][1] == -e:
                out.pop()
            else:
                out.append((g, e))
        return cls(tuple(out))

    @classmethod
    def generator(cls, i: int, exponent: int = 1) -> "Word":
        return cls(((i, exponent),))

    @classmethod
    def from_codes(cls, codes: Iterable[int]) -> "Word":
        return cls(tuple((c >> 1, 1 if c & 1 else -1) for c in codes))

    @property
    def codes(self) -> tuple[int, ...]:
        return tuple(letter_code(g, e) for g, e in self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    @property
    def max_generator(self) -> int:
        return max((g for g, _ in self.letters), default=0)

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return word_multiply(self, other)

    def inverse(self) -> "Word":
        return inverse(self)

    def __str__(self) -> str:
        return format_word(self)


def word_multiply(a: Word, b: Word) -> Word:
    """Reduced concatenation; associative, with word_multiply(a, inverse(a)) = e."""
    return Word.reduce(a.letters + b.letters)


def inverse(a: Word) -> Word:
    """Letters reversed with flipped exponents."""
    return Word(tuple((g, -e) for g, e in reversed(a.letters)))


def letter_code(g: int, e: int = 1) -> int:
    """The integer code of the letter g_g^e (generator g to the power e = +-1)."""
    return 2 * g + (e > 0)


def code_multiply(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Reduced concatenation of two reduced coded words: they cancel at the seam."""
    if not (a and b and a[-1] == b[0] ^ 1):
        return a + b
    i, m = 1, min(len(a), len(b))
    while i < m and a[-1 - i] == b[i] ^ 1:
        i += 1
    return a[: len(a) - i] + b[i:]


def code_inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(c ^ 1 for c in reversed(a))


@dataclass(frozen=True, order=True)
class WordTuple:
    """Element of a direct power F_n x ... x F_n, one reduced word per factor."""

    words: tuple[Word, ...]

    @classmethod
    def identity(cls, arity: int) -> "WordTuple":
        return cls((Word(),) * arity)

    @classmethod
    def from_codes(cls, key: Iterable[Iterable[int]]) -> "WordTuple":
        return cls(tuple(map(Word.from_codes, key)))

    @property
    def codes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(w.codes for w in self.words)

    @property
    def arity(self) -> int:
        return len(self.words)

    @property
    def is_identity(self) -> bool:
        return all(w.is_identity for w in self.words)

    @property
    def max_generator(self) -> int:
        return max((w.max_generator for w in self.words), default=0)

    def __mul__(self, other: "WordTuple") -> "WordTuple":
        if len(self.words) != len(other.words):
            raise ValueError("arity mismatch")
        return WordTuple(tuple(a * b for a, b in zip(self.words, other.words)))

    def inverse(self) -> "WordTuple":
        return WordTuple(tuple(w.inverse() for w in self.words))


def format_word(w: Word) -> str:
    """Render as 'g3 G1 g2' (uppercase = inverse); 'e' for the identity."""
    if w.is_identity:
        return "e"
    return " ".join(f"g{g}" if e == 1 else f"G{g}" for g, e in w.letters)


def parse_word(text: str) -> Word:
    text = text.strip()
    if text == "e" or text == "":
        return Word()
    letters = []
    for token in text.split():
        m = _WORD_LETTER.match(token)
        if not m:
            raise ValueError(f"bad word token {token!r}")
        sign, idx = m.groups()
        letters.append((int(idx), 1 if sign == "g" else -1))
    return Word.reduce(letters)


def gamma_indices(n: int, d: int) -> list[tuple[int, ...]]:
    """The index set [n]^d in lexicographic order (1-based entries)."""
    return list(product(range(1, n + 1), repeat=d))


def _index_functions(
    n: int, d: int, p: int, budget: int, what: str
) -> Iterator[tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]]:
    """All h: [p] -> [n]^d in lexicographic order, each with its d kernel codes.

    p and the budget are checked before the first h is yielded.
    """
    check_even_p(p)
    check_budget(n ** (d * p), budget, what)
    return (
        (h, tuple(map(kernel_code, zip(*h))))
        for h in product(gamma_indices(n, d), repeat=p)
    )


def has_injective_projection(h: Sequence[tuple[int, ...]], d: int) -> bool:
    """True iff some coordinate k has pairwise distinct values along h."""
    return tuple(range(len(h))) in map(kernel_code, islice(zip(*h), d))


@dataclass
class WordFamily:
    """Words of a single free group indexed by the grid [n]^d.

    ``n`` and ``d`` describe the index set only; the words may use any
    generators, independently of n and d.
    """

    n: int
    d: int
    words: dict[tuple[int, ...], Word]

    def __post_init__(self):
        expected = set(gamma_indices(self.n, self.d))
        if set(self.words) != expected:
            raise ValueError(f"family must be a total map on [{self.n}]^{self.d}")


def canonical_dissociate(n: int, d: int) -> WordFamily:
    """The length-d generator products: index (i_1..i_d) -> g_{i_1} ... g_{i_d}."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    words = {
        gamma: Word(tuple((i, 1) for i in gamma)) for gamma in gamma_indices(n, d)
    }
    return WordFamily(n=n, d=d, words=words)


@dataclass(frozen=True)
class DissociateReport:
    ok: bool
    witness: tuple[tuple[int, ...], ...] | None = None


def is_p_dissociate(
    family: WordFamily, p: int, budget: int = DEFAULT_BUDGET
) -> DissociateReport:
    """Check the non-cancellation property along injective-projection index maps.

    For every h: [p] -> [n]^d with some injective coordinate, the alternating
    product t(h1)^-1 t(h2) t(h3)^-1 ... t(hp) must differ from the identity.
    As monomials with coefficient 1, the words have moment 1 exactly on such an
    identity product.  On failure the witness is the first violating h.
    """
    from .algebra import GROUP_ALGEBRA, GroupAlgebraElement, OperatorFamily
    from .orthogonality import _injective_moments

    group_n = max(w.max_generator for w in family.words.values())
    values = {
        gamma: GroupAlgebraElement.monomial(1, group_n, WordTuple((w,)), [[1.0]])
        for gamma, w in family.words.items()
    }
    units = OperatorFamily(family.n, family.d, GROUP_ALGEBRA, values)
    report = _injective_moments(units, p, 0.0, budget, True, "dissociate enumeration")
    return DissociateReport(ok=report.worst_h is None, witness=report.worst_h)


def word_family_to_json(family: WordFamily) -> dict[str, str]:
    """Serialize as a flat map '1,2' -> 'g1 g2'."""
    return {
        ",".join(str(i) for i in gamma): format_word(w)
        for gamma, w in sorted(family.words.items())
    }


def word_family_from_json(obj: Mapping[str, str]) -> WordFamily:
    """Inverse of :func:`word_family_to_json`; n and d inferred from the keys."""
    if not (isinstance(obj, Mapping) and all(isinstance(t, str) for t in obj.values())):
        raise ValueError("a word family must be an object mapping index keys to words")
    words = {}
    for key, text in obj.items():
        gamma = tuple(int(part) for part in key.split(","))
        words[gamma] = parse_word(text)
    if not words:
        raise ValueError("empty word family")
    d = len(next(iter(words)))
    n = max(max(g) for g in words)
    return WordFamily(n=n, d=d, words=words)
