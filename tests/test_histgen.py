"""The exhaustive corpus, whose records are shared across histories,
against the generator that built every record afresh (``corpus_loop``):
the same histories in the same order, on every size up to four ops (the
five-op corpus is the same code at one more size; criterion 2 walks it)."""

import pytest

import corpus_loop
from histgen import corpus_histories, corpus_size


@pytest.mark.parametrize("max_ops, domain", [(4, 3), (3, 4)])
def test_corpus_matches_the_afresh_generator(max_ops, domain):
    shared = list(corpus_histories(max_ops, domain))
    afresh = list(corpus_loop.corpus_histories(max_ops, domain))
    assert len(shared) == len(afresh) == corpus_size(max_ops, domain)
    assert all(a == b and repr(a) == repr(b) for a, b in zip(shared, afresh))
