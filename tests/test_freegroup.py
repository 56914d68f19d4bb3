"""Free-group words: reduction laws, text formats, dissociate certification."""

import json
import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orthosum.errors import SizeLimitError
from itertools import islice

from orthosum.freegroup import (
    Word,
    WordFamily,
    WordTuple,
    _index_functions,
    canonical_dissociate,
    code_inverse,
    code_multiply,
    format_word,
    gamma_indices,
    has_injective_projection,
    inverse,
    is_p_dissociate,
    parse_word,
    word_family_from_json,
    word_family_to_json,
    word_multiply,
)
from orthosum.orthogonality import sigma_of
from orthosum.partitions import kernel_code, kernel_partition

letters = st.lists(
    st.tuples(st.integers(1, 3), st.sampled_from((-1, 1))), max_size=12
)
words = letters.map(Word.reduce)


def g(i, e=1):
    return Word(((i, e),))


def test_multiply_examples():
    assert word_multiply(g(1), g(1, -1)) == Word()
    assert word_multiply(g(1) * g(2), g(2, -1) * g(3)) == g(1) * g(3)
    w = g(2) * g(1, -1)
    assert word_multiply(Word(), w) == w
    assert word_multiply(w, Word()) == w


def test_inverse_examples():
    assert inverse(Word()) == Word()
    assert inverse(g(1) * g(2)) == g(2, -1) * g(1, -1)
    assert inverse(g(1, -1)) == g(1)


def test_unreduced_letters_rejected():
    with pytest.raises(ValueError):
        Word(((1, 1), (1, -1)))
    with pytest.raises(ValueError):
        Word(((0, 1),))
    with pytest.raises(ValueError):
        Word(((1, 2),))


@given(words)
def test_reduce_is_idempotent_and_inverse_cancels(w):
    assert Word.reduce(w.letters) == w
    assert w * inverse(w) == Word()
    assert inverse(w) * w == Word()


@given(words, words, words)
def test_multiplication_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(words, words)
def test_inverse_antihomomorphism(a, b):
    assert inverse(a * b) == inverse(b) * inverse(a)


@given(st.lists(st.tuples(words, words).map(WordTuple), max_size=8))
def test_letter_codes_round_trip_and_sort_like_words(tuples):
    for wt in tuples:
        assert WordTuple.from_codes(wt.codes) == wt
        assert all(Word.from_codes(w.codes) == w for w in wt.words)
    assert sorted(wt.codes for wt in tuples) == [wt.codes for wt in sorted(tuples)]
    flat = [w for wt in tuples for w in wt.words]
    assert sorted(w.codes for w in flat) == [w.codes for w in sorted(flat)]


@given(words, words)
def test_coded_product_and_inverse_match_words(a, b):
    assert code_multiply(a.codes, b.codes) == (a * b).codes
    assert code_inverse(a.codes) == inverse(a).codes


def test_word_text_format():
    w = parse_word("g3 G1 g2")
    assert w == Word(((3, 1), (1, -1), (2, 1)))
    assert format_word(w) == "g3 G1 g2"
    assert parse_word("e") == Word()
    assert format_word(Word()) == "e"
    with pytest.raises(ValueError):
        parse_word("h1")


@given(words)
def test_word_text_roundtrip(w):
    assert parse_word(format_word(w)) == w


def test_word_tuple_componentwise():
    t = WordTuple((g(1), g(2)))
    assert (t * t.inverse()).is_identity
    assert WordTuple.identity(3).is_identity
    with pytest.raises(ValueError):
        t * WordTuple((g(1),))


def test_canonical_dissociate_examples():
    fam = canonical_dissociate(2, 1)
    assert fam.words == {(1,): g(1), (2,): g(2)}
    fam = canonical_dissociate(2, 2)
    assert set(fam.words.values()) == {
        g(1) * g(1),
        g(1) * g(2),
        g(2) * g(1),
        g(2) * g(2),
    }
    assert all(len(w) == 2 for w in fam.words.values())
    fam = canonical_dissociate(1, 3)
    assert fam.words == {(1, 1, 1): Word(((1, 1), (1, 1), (1, 1)))}


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("p", [2, 4, 6])
def test_canonical_families_are_dissociate(n, d, p):
    assert is_p_dissociate(canonical_dissociate(n, d), p).ok


@pytest.mark.parametrize("n,d,p", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (4, 1, 4)])
def test_canonical_families_are_dissociate_nonvacuously(n, d, p):
    # sizes with p <= n so that injective-projection index maps exist
    assert is_p_dissociate(canonical_dissociate(n, d), p).ok


def test_repeated_word_fails_with_witness():
    fam = WordFamily(n=2, d=1, words={(1,): g(1), (2,): g(1)})
    report = is_p_dissociate(fam, 2)
    assert not report.ok
    assert report.witness == ((1,), (2,))


def test_single_index_family_is_vacuously_dissociate():
    fam = WordFamily(n=1, d=1, words={(1,): Word()})
    assert is_p_dissociate(fam, 2).ok


def test_repeat_across_all_coordinates_fails():
    # same word at (1,1) and (2,2): both coordinates separate them
    base = canonical_dissociate(2, 2)
    words = dict(base.words)
    words[(2, 2)] = words[(1, 1)]
    report = is_p_dissociate(WordFamily(n=2, d=2, words=words), 2)
    assert not report.ok


def test_dissociate_budget_and_parity():
    fam = canonical_dissociate(2, 2)
    with pytest.raises(SizeLimitError):
        is_p_dissociate(fam, 4, budget=10)
    with pytest.raises(ValueError):
        is_p_dissociate(fam, 3)


def test_family_must_be_total():
    with pytest.raises(ValueError):
        WordFamily(n=2, d=1, words={(1,): g(1)})


def test_family_json_roundtrip(tmp_path):
    fam = canonical_dissociate(2, 2)
    blob = json.dumps(word_family_to_json(fam))
    back = word_family_from_json(json.loads(blob))
    assert back.words == fam.words
    assert (back.n, back.d) == (2, 2)


def test_gamma_indices_are_lexicographic():
    assert gamma_indices(2, 2) == [(1, 1), (1, 2), (2, 1), (2, 2)]


@given(
    st.integers(1, 3), st.integers(1, 2), st.sampled_from((2, 4)), st.integers(0, 10**6)
)
def test_index_functions_carry_the_kernel_code_of_each_column(n, d, p, pick):
    h, codes = next(islice(_index_functions(n, d, p, 10**7, "t"), pick % n ** (d * p), None))
    assert len(codes) == d
    for k in range(d):
        column = tuple(gamma[k] for gamma in h)
        assert codes[k] == kernel_code(column)
        assert kernel_partition(codes[k]) == sigma_of(h, k + 1)
        # positions share a label exactly when they share a value
        for s in range(p):
            for t in range(p):
                assert (codes[k][s] == codes[k][t]) == (column[s] == column[t])
    injective = any(len({gamma[k] for gamma in h}) == p for k in range(d))
    assert (tuple(range(p)) in codes) == injective == has_injective_projection(h, d)


def first_identity_word(family, p):
    """The first injective-projection h whose alternating word product is e."""
    for h in product(gamma_indices(family.n, family.d), repeat=p):
        if has_injective_projection(h, family.d):
            acc = Word()
            for s, gamma in enumerate(h, start=1):
                w = family.words[gamma]
                acc = acc * (w.inverse() if s % 2 else w)
            if acc.is_identity:
                return h
    return None


# n >= p and n < p, one and two indices
@pytest.mark.parametrize("n,d,p", [(2, 1, 2), (4, 1, 4), (3, 2, 2), (2, 2, 4), (3, 1, 4)])
@pytest.mark.parametrize("seed", range(6))
def test_dissociate_witness_is_the_first_identity_word(n, d, p, seed):
    rnd = random.Random(seed)
    words = {
        gamma: Word.reduce(
            [(rnd.randint(1, 2), rnd.choice((-1, 1))) for _ in range(rnd.randint(0, 2))]
        )
        for gamma in gamma_indices(n, d)
    }
    family = WordFamily(n=n, d=d, words=words)
    want = first_identity_word(family, p)
    report = is_p_dissociate(family, p)
    assert report.ok == (want is None)
    assert report.witness == want


@pytest.mark.parametrize("n,d,p", [(4, 1, 4), (3, 2, 2), (2, 1, 4), (2, 2, 6)])
def test_dissociate_forms_one_product_per_live_prefix(monkeypatch, n, d, p):
    from orthosum import orthogonality

    calls = []
    original = orthogonality.ga_multiply
    monkeypatch.setattr(
        orthogonality, "ga_multiply", lambda x, y: calls.append(1) or original(x, y)
    )
    assert is_p_dissociate(canonical_dissociate(n, d), p).ok
    live = sum(
        has_injective_projection(prefix, d)
        for s in range(2, p + 1)
        for prefix in product(gamma_indices(n, d), repeat=s)
    )
    assert len(calls) == (live if n >= p else 0)
