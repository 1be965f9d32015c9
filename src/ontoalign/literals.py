"""Literal normalization keys and the value index.

Two literals are equal, with probability 1, exactly when they share a
nonempty normalization key, and otherwise unequal. The engine finds equal
pairs through an index from key to literals, so it never materializes an
all-pairs literal table.
"""

from __future__ import annotations

import re
from typing import Callable

_TAG = re.compile(r'^"(?P<text>.*)"(?:@[A-Za-z][A-Za-z0-9-]*|\^\^<[^<>]*>)?$', re.S)


def literal_text(lexical: str) -> str:
    """Strip quotes and any datatype/language tag from a stored literal form.

    A form that starts and ends with a quote has no tag, since no tag ends
    in a quote, so its text is what lies between the two; only the others
    need `_TAG`.
    """
    if len(lexical) > 1 and lexical[0] == '"' and lexical[-1] == '"':
        return lexical[1:-1]
    m = _TAG.match(lexical)
    return m.group("text") if m else lexical


def strict_key(lexical: str) -> str:
    """Tag and quotes stripped, outer whitespace trimmed."""
    return literal_text(lexical).strip()


def alnum_lower_key(lexical: str) -> str:
    """Lowercased, then alphanumerics only, kept in sequence.

    Makes '"213/467-1108"' and '"213-467-1108"' equal while keeping
    '"Sugata Sanshirô"' distinct from '"Sanshiro Sugata"'. Lowercasing
    comes first because it can add characters that are not alphanumeric:
    'İ' lowercases to 'i' and a combining dot, so '"İstanbul"' and
    '"Istanbul"' share the key 'istanbul'.
    """
    return "".join(ch for ch in literal_text(lexical).lower() if ch.isalnum())


# --literal-mode name -> normalization key
MEASURES: dict[str, Callable[[str], str]] = {
    "strict": strict_key,
    "alnum-lower": alnum_lower_key,
}


def build_key_index(ontology, key: Callable[[str], str]) -> dict[str, list[int]]:
    """Group an ontology's literal term ids by normalization key.

    Empty keys are dropped: a literal that normalizes to nothing anchors
    nothing (it would otherwise match every other empty-keyed literal).
    """
    index: dict[str, list[int]] = {}
    for tid in ontology.literals():
        k = key(ontology.lexical(tid))
        if k:
            index.setdefault(k, []).append(tid)
    return index
