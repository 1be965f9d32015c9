import pytest
from hypothesis import given
from hypothesis import strategies as st

from ontoalign.literals import (
    MEASURES,
    build_key_index,
    get_measure,
    literal_equality,
    literal_text,
)
from ontoalign.store import ontology_from_triples


def test_literal_text_strips_quotes_and_tags():
    assert literal_text('"Alice"') == "Alice"
    assert literal_text('"Paris"@fr') == "Paris"
    assert literal_text('"42"^^<http://www.w3.org/2001/XMLSchema#integer>') == "42"


def test_strict_measure_matches_same_text_across_tags():
    """Tags are presentation, not content: "Paris"@fr equals "Paris"."""
    assert literal_equality('"Paris"@fr', '"Paris"') == 1.0
    assert literal_equality('"Paris"', '"paris"') == 0.0
    assert literal_equality('" Paris  "', '"Paris"') == 1.0  # whitespace trimmed


def test_alnum_lower_measure_bridges_formatting():
    m = get_measure("alnum-lower")
    assert literal_equality('"213/467-1108"', '"213-467-1108"', m) == 1.0
    assert literal_equality('"Alice"', '"ALICE"', m) == 1.0
    # word order still matters: characters are kept in sequence
    assert literal_equality('"Sugata Sanshiro"', '"Sanshiro Sugata"', m) == 0.0


def test_get_measure_rejects_unknown_names():
    with pytest.raises(ValueError):
        get_measure("soundex")
    assert set(MEASURES) == {"strict", "alnum-lower"}


def test_key_index_groups_by_key_and_drops_empty_keys():
    onto = ontology_from_triples([
        ("x", "label", '"Alice"'),
        ("x", "label", '"Alice"@en'),
        ("x", "label", '"  "'),  # empty after trimming: anchors nothing
    ])
    a, b = onto.term_id('"Alice"'), onto.term_id('"Alice"@en')
    idx = build_key_index(onto, get_measure("strict"))
    assert idx == {"Alice": [a, b]}


@given(st.text(min_size=0, max_size=40))
def test_alnum_key_is_alnum_and_lowercase(text):
    key = get_measure("alnum-lower").key(f'"{text}"' if '"' not in text else text)
    assert all(ch.isalnum() for ch in key)
    assert key == key.lower()


@given(st.text(alphabet=st.characters(blacklist_characters='"\\'), max_size=30))
def test_strict_equality_is_reflexive_after_quoting(text):
    assert literal_equality(f'"{text}"', f'"{text}"') in (0.0, 1.0)
    if text.strip():
        assert literal_equality(f'"{text}"', f'"{text}"') == 1.0
