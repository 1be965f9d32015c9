"""Line-oriented N-Triples reading and TSV writing.

The parser is deliberately forgiving: each line is parsed independently,
malformed lines are counted and skipped, and the loader aborts only when the
skipped fraction exceeds `MAX_SKIP_FRACTION`. Literal objects keep their
datatype/language tag in the lexical form (e.g. '"1955"^^<...#integer>'), so
distinct tags intern as distinct terms.

Two compiled patterns read a line. `_LINE` is the grammar: it admits every
line form the parser accepts. `_SIMPLE` admits only the common form,
``<IRI> <IRI> <IRI> .`` or ``<IRI> <IRI> "text" .`` with single spaces and no
escape, tag, blank node or comment, and is tried first, with ``fullmatch`` on
the stripped line; its groups give the triple that `_LINE` gives for the same
line. Every other line goes through `_LINE`.

Files are read as UTF-8; a leading byte-order mark is dropped.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .store import Ontology, ontology_from_triples

log = logging.getLogger("ontoalign.ntriples")

MAX_SKIP_FRACTION = 0.01  # most malformed lines a loaded input may have, as a fraction


class ParseError(Exception):
    """Raised when an input file cannot be read or is mostly garbage."""


@dataclass
class ParseStats:
    parsed: int = 0
    skipped: int = 0
    samples: list[str] = field(default_factory=list)

    def skip(self, line: str) -> None:
        self.skipped += 1
        if len(self.samples) < 5:
            self.samples.append(line.strip()[:120])


# IRIs are captured without their angle brackets. As in N-Triples, an IRI
# holds no '<', '>' or '"', so no IRI reads like a literal. A literal's text
# admits only the N-Triples escapes: one of \t \b \n \r \f \" \' \\, \u with
# exactly 4 hex digits, or \U with exactly 8 and at most U+10FFFF. Its tag is
# kept whole.
# A blank node label holds no '#', as in N-Triples 1.1. A '#' after the final
# '.' starts a comment.
_LINE = re.compile(
    r'^(?:<(?P<s>[^<>"]*)>|(?P<sb>_:[^\s#]+))\s+'
    r'<(?P<p>[^<>"]*)>\s+'
    r'(?:<(?P<o>[^<>"]*)>|(?P<ob>_:[^\s#]+)'
    r'|"(?P<text>[^"\\]*(?:\\(?:[tbnrf"\'\\]|u[0-9A-Fa-f]{4}'
    r'|U(?:000[0-9A-Fa-f]|0010)[0-9A-Fa-f]{4})[^"\\]*)*)"'
    r'(?P<tag>@[A-Za-z][A-Za-z0-9-]*|\^\^<[^<>"]*>)?)\s*\.\s*(?:#.*)?$'
)
# The common line form, a subset of `_LINE` (see the module docstring).
# Its fourth group is a literal object with its quotes, as the parser yields it.
_SIMPLE = re.compile(r'<([^<>"]*)> <([^<>"]*)> (?:<([^<>"]*)>|("[^"\\]*")) \.')
_ESCAPE = re.compile(r"\\(u.{4}|U.{8}|.)")
_ESCAPES = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
    '"': '"', "'": "'", "\\": "\\",
}


def _unescape_one(m: re.Match) -> str:
    """Decode one escape of a literal text that `_LINE` admitted."""
    esc = m.group(1)
    return _ESCAPES[esc] if len(esc) == 1 else chr(int(esc[1:], 16))


def read_utf8_lines(path: str | Path) -> Iterator[str]:
    """Yield the lines of a UTF-8 text file, without a leading byte-order
    mark.

    Bytes that do not decode raise ParseError naming the file; OSError from
    opening or reading it passes through.
    """
    with open(path, encoding="utf-8-sig") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not valid UTF-8: {exc}") from exc


def parse_ntriples(
    lines: Iterable[str], stats: ParseStats | None = None
) -> Iterator[tuple[str, str, str]]:
    """Yield (subject, predicate, object) per well-formed line.

    IRIs are delivered without angle brackets; blank node labels keep their
    '_:' prefix; literal objects are re-serialized to a canonical quoted form
    with unescaped text and the original tag.
    """
    stats = stats if stats is not None else ParseStats()
    simple = _SIMPLE.fullmatch
    for line in lines:
        bare = line.strip()
        m = simple(bare)
        if m is not None:
            subj, pred, obj, literal = m.groups()
            stats.parsed += 1
            yield subj, pred, (obj if literal is None else literal)
            continue
        if not bare or bare.startswith("#"):
            continue
        m = _LINE.match(bare)
        if not m:
            stats.skip(line)
            continue
        subj, blank, pred, obj, blank_obj, text, tag = m.groups()
        if text is not None:
            if "\\" in text:
                text = _ESCAPE.sub(_unescape_one, text)
            obj = f'"{text}"{tag or ""}'
        elif obj is None:
            obj = blank_obj
        stats.parsed += 1
        yield (blank if subj is None else subj), pred, obj


def load_ontology(
    paths: str | Path | Iterable[str | Path],
    origin: str = "first",
) -> Ontology:
    """Load and schema-close one ontology from N-Triples files.

    `paths` may be a file, a directory (all *.nt inside, sorted), or a list.
    Aborts with ParseError when more than `MAX_SKIP_FRACTION` of the non-blank
    lines are malformed, so silently corrupted dumps do not produce silently
    tiny ontologies, and when the store keeps no statement and no type edge,
    so an input that is empty, or whose every line is rejected, does not
    produce an empty alignment.
    """
    files = _expand_paths(paths)
    if not files:
        raise ParseError(f"no N-Triples input found at {paths!r}")
    stats = ParseStats()
    # the store reads the parser's triples as they come; none is kept whole
    onto = ontology_from_triples(_parse_files(files, stats), origin=origin)
    total = stats.parsed + stats.skipped
    if total and stats.skipped / total > MAX_SKIP_FRACTION:
        raise ParseError(
            f"{stats.skipped} of {total} lines malformed"
            f" (> {MAX_SKIP_FRACTION:.0%}); first offenders: {stats.samples}"
        )
    if not onto.statement_count() and not any(map(onto.instances_of, onto.classes())):
        raise ParseError(
            f"no statement or type edge in {paths!r}"
            f" ({onto.rejected_statements} rejected)"
        )
    if stats.skipped:
        log.warning("skipped %d malformed lines out of %d", stats.skipped, total)
    log.info(
        "loaded %s: %d terms, %d statements (inverse-closed), %d rejected",
        origin, onto.term_count(), onto.statement_count(), onto.rejected_statements,
    )
    return onto


def _parse_files(files: list[Path], stats: ParseStats) -> Iterator[tuple[str, str, str]]:
    for f in files:
        try:
            yield from parse_ntriples(read_utf8_lines(f), stats)
        except OSError as exc:
            raise ParseError(f"cannot read {f}: {exc}") from exc


def _expand_paths(paths: str | Path | Iterable[str | Path]) -> list[Path]:
    if isinstance(paths, (str, Path)):
        paths = [paths]
    out: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            out.extend(sorted(p.glob("*.nt")))
        else:
            out.append(p)
    return out


# --------------------------------------------------------------- alignments

@dataclass(frozen=True)
class AlignmentRow:
    left: str
    right: str
    score: float
    kind: str  # instance | relation | class
    direction: str  # equivalence | left_in_right | right_in_left


def _field_escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace("\t", "\\t")
        .replace("\n", "\\n").replace("\r", "\\r")
    )


_FIELD_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_FIELD_ESCAPES = {"t": "\t", "n": "\n", "r": "\r"}


def _field_unescape(value: str) -> str:
    """Undo `_field_escape`: any other escaped character, a backslash
    included, stands for itself, and a trailing lone backslash stays."""
    return _FIELD_ESCAPE.sub(lambda m: _FIELD_ESCAPES.get(m[1], m[1]), value)


def write_alignment(rows: Iterable[AlignmentRow], path: str | Path) -> int:
    """Write alignment rows as TSV, sorted by (kind, left, descending printed
    score, right, direction): a total order on what is written, so the bytes
    do not depend on the order of the rows given, nor on digits of a score
    that are not written, which can follow that order."""
    ordered = sorted(
        rows, key=lambda r: (r.kind, r.left, -round(r.score, 6), r.right, r.direction)
    )
    with open(path, "w", encoding="utf-8") as fh:
        for r in ordered:
            fh.write(
                f"{_field_escape(r.left)}\t{_field_escape(r.right)}\t"
                f"{r.score:.6f}\t{r.kind}\t{r.direction}\n"
            )
    return len(ordered)


def read_alignment(path: str | Path) -> list[AlignmentRow]:
    """Read an alignment TSV as `write_alignment` writes it. A row without
    five columns, or whose score is not a number in [0, 1], raises
    ParseError naming the file and line."""
    rows: list[AlignmentRow] = []
    for n, line in enumerate(read_utf8_lines(path), 1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise ParseError(f"{path}:{n}: alignment row with {len(parts)} columns: {line!r}")
        try:
            score = float(parts[2])
        except ValueError:
            raise ParseError(f"{path}:{n}: score {parts[2]!r} is not a number") from None
        # a probability; this also rejects nan, which fails every comparison
        if not 0.0 <= score <= 1.0:
            raise ParseError(f"{path}:{n}: score {parts[2]!r} is not in [0, 1]")
        rows.append(
            AlignmentRow(
                _field_unescape(parts[0]), _field_unescape(parts[1]),
                score, parts[3], parts[4],
            )
        )
    return rows


def load_gold(path: str | Path) -> set[tuple[str, str]]:
    """Load a two-column gold TSV into a deduplicated pair set.

    A file with no pair, empty or with every row malformed, raises
    ParseError: scored against it, every alignment would read 0."""
    pairs: set[tuple[str, str]] = set()
    bad = 0
    for line in read_utf8_lines(path):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 2 or not parts[0] or not parts[1]:
            bad += 1
            continue
        pairs.add((_field_unescape(parts[0]), _field_unescape(parts[1])))
    if not pairs:
        raise ParseError(f"{path}: no gold pair ({bad} malformed rows)")
    if bad:
        log.warning("gold file %s: skipped %d malformed rows", path, bad)
    return pairs
