import pytest
from hypothesis import given
from hypothesis import strategies as st

from ontoalign.engine import AlignmentConfig
from ontoalign.literals import (
    _TAG,
    MEASURES,
    alnum_lower_key,
    build_key_index,
    literal_text,
    strict_key,
)
from ontoalign.store import ontology_from_triples


def test_literal_text_strips_quotes_and_tags():
    assert literal_text('"Alice"') == "Alice"
    assert literal_text('"Paris"@fr') == "Paris"
    assert literal_text('"42"^^<http://www.w3.org/2001/XMLSchema#integer>') == "42"


def test_strict_measure_matches_same_text_across_tags():
    """Tags are presentation, not content: "Paris"@fr equals "Paris"."""
    assert strict_key('"Paris"@fr') == strict_key('"Paris"')
    assert strict_key('"Paris"') != strict_key('"paris"')
    assert strict_key('" Paris  "') == strict_key('"Paris"')  # whitespace trimmed


def test_alnum_lower_measure_bridges_formatting():
    assert alnum_lower_key('"213/467-1108"') == alnum_lower_key('"213-467-1108"')
    assert alnum_lower_key('"Alice"') == alnum_lower_key('"ALICE"')
    # word order still matters: characters are kept in sequence
    assert alnum_lower_key('"Sugata Sanshiro"') != alnum_lower_key('"Sanshiro Sugata"')


def test_alnum_lower_key_lowercases_before_it_keeps_alphanumerics():
    """'İ' lowercases to 'i' and a combining dot, which is not alphanumeric;
    a capital sigma that ends a word lowercases to the final form."""
    assert alnum_lower_key('"İstanbul"') == alnum_lower_key('"Istanbul"') == "istanbul"
    assert alnum_lower_key('"ΟΔΟΣ ΑΘΗΝΑΣ"') == alnum_lower_key('"οδος αθηνας"')


def test_unknown_literal_modes_are_rejected():
    assert MEASURES == {"strict": strict_key, "alnum-lower": alnum_lower_key}
    with pytest.raises(ValueError, match="literal_mode"):
        AlignmentConfig(literal_mode="soundex")


def test_key_index_groups_by_key_and_drops_empty_keys():
    onto = ontology_from_triples([
        ("x", "label", '"Alice"'),
        ("x", "label", '"Alice"@en'),
        ("x", "label", '"Bob"'),
        ("x", "label", '"  "'),  # empty after trimming: anchors nothing
    ])
    a, b = onto.term_id('"Alice"'), onto.term_id('"Alice"@en')
    c = onto.term_id('"Bob"')
    first, more = build_key_index(onto, strict_key)
    assert first == {"Alice": min(a, b), "Bob": c}
    assert more == {"Alice": sorted([a, b])}  # only a key with several literals


@given(st.text(min_size=0, max_size=40))
def test_alnum_key_is_alnum_and_lowercase(text):
    key = alnum_lower_key(f'"{text}"' if '"' not in text else text)
    assert all(ch.isalnum() for ch in key)
    assert key == key.lower()


@given(st.text(alphabet=st.characters(blacklist_characters='"\\'), max_size=30))
def test_strict_equality_is_reflexive_after_quoting(text):
    """A quoted text matches itself exactly when its trimmed text is
    nonempty: empty keys are dropped from the index."""
    assert strict_key(f'"{text}"') == text.strip()


_FORM_PARTS = ('"', '""', "a", " ", "\n", "@", "en", "-", "^^", "<", ">", "x:t", "é")


@given(
    st.lists(st.sampled_from(_FORM_PARTS), max_size=8).map("".join),
    st.sampled_from(("", '"', "@en", "@en-US", "@1", "^^<x:t>", "^^<a<b>", "\n", '"\n')),
    st.booleans(),
)
def test_literal_text_agrees_with_the_tag_regex(body, tail, quoted):
    """Forms with tags, inner quotes, '""', a lone '"' and a trailing newline
    get the text the `_TAG` regex gives, or stay as they are."""
    form = (f'"{body}"' if quoted else body) + tail
    m = _TAG.match(form)
    assert literal_text(form) == (m.group("text") if m else form)
