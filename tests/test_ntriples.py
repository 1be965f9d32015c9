import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ontoalign.ntriples import (
    _ESCAPE,
    _LINE,
    _SIMPLE,
    AlignmentRow,
    ParseError,
    ParseStats,
    _unescape_one,
    load_gold,
    load_ontology,
    parse_ntriples,
    read_alignment,
    write_alignment,
)
from ontoalign.store import (
    LITERAL,
    RDF_TYPE,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
    ontology_from_triples,
)


def parse(text: str, stats=None):
    return list(parse_ntriples(text.splitlines(), stats))


def test_parse_iris_and_literals():
    out = parse(
        '<http://a/x> <http://a/p> <http://a/y> .\n'
        '<http://a/x> <http://a/label> "Alice" .\n'
    )
    assert out == [
        ("http://a/x", "http://a/p", "http://a/y"),
        ("http://a/x", "http://a/label", '"Alice"'),
    ]


def test_parse_language_and_datatype_tags_are_kept():
    out = parse(
        '<u:x> <u:l> "Paris"@fr .\n'
        '<u:x> <u:n> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
    )
    assert out[0][2] == '"Paris"@fr'
    assert out[1][2] == '"42"^^<http://www.w3.org/2001/XMLSchema#integer>'


def test_parse_unescapes_literal_text():
    out = parse('<u:x> <u:l> "line\\nbreak \\u00e9 \\"quoted\\" \\U0001F600" .')
    assert out[0][2] == '"line\nbreak é "quoted" \U0001F600"'
    # a \U escape names at most the last code point, U+10FFFF
    assert parse('<u:x> <u:l> "\\U0010FFFF" .') == [("u:x", "u:l", '"\U0010FFFF"')]
    assert parse('<u:x> <u:l> "\\U00110000" .') == []


def test_parse_blank_nodes_and_comments():
    out = parse(
        "# a comment\n"
        "\n"
        "_:b1 <u:p> _:b2 .\n"
    )
    assert out == [("_:b1", "u:p", "_:b2")]


@pytest.mark.parametrize(
    "line", ["<u:s> <u:p> _:b2#c .", "_:b1#x <u:p> <u:o> ."], ids=["object", "subject"]
)
def test_blank_node_label_stops_at_a_hash(line):
    """A blank node label holds no '#', so the '#' starts a comment and the
    line loses the rest of its triple: it is malformed and skipped."""
    stats = ParseStats()
    assert list(parse_ntriples([line], stats)) == []
    assert stats.skipped == 1


@pytest.mark.parametrize("gap", [" ", ""], ids=["space", "no-space"])
def test_comment_after_the_final_dot_is_ignored(gap):
    """A '#' after a triple's final '.' starts a comment, with or without a
    space before it. A '#' before the dot leaves the line malformed, and one
    inside an IRI or a literal is part of the term."""
    objects = {
        "<u:o>": "u:o",
        "_:b2": "_:b2",
        '"x"': '"x"',
        '"42"^^<http://www.w3.org/2001/XMLSchema#integer>':
            '"42"^^<http://www.w3.org/2001/XMLSchema#integer>',
        '"x"@en': '"x"@en',
    }
    for obj, parsed in objects.items():
        stats = ParseStats()
        line = f"<u:s> <u:p> {obj} .{gap}# trailing comment"
        assert parse(line, stats) == [("u:s", "u:p", parsed)], line
        assert stats.skipped == 0
    stats = ParseStats()
    assert parse("<u:s> <u:p> <u:o> # c .", stats) == []
    assert stats.skipped == 1
    assert parse('<u:s#a> <u:p> "a # b" .' + gap + "#c") == [("u:s#a", "u:p", '"a # b"')]


# Lines of the common form, which `_SIMPLE` reads, and near misses, which
# only the grammar reads, each with whether `_SIMPLE` admits it.
_FORMS = {
    "<http://a/x> <http://a/p> <http://a/y> .": True,
    '<http://a/x> <http://a/label> "Alice" .': True,
    '<u:x> <u:l> "" .': True,
    "<> <u:p> <> .": True,
    '<u:x> <u:l> "é" .': True,
    "<u:a b> <u:p> <u:o> .": True,  # an IRI holding a space
    '<u:x> <u:l> "a> <u:q> <b" .': True,
    '<u:x> <u:l> "ends ." .': True,
    "  <u:x> <u:p> <u:o> .": True,  # the line is stripped first
    "<u:x> <u:p> <u:o> . \r\n": True,
    "<u:x>\t<u:p>\t<u:o> .": False,
    "<u:x>  <u:p> <u:o> .": False,
    '<u:x> <u:l>  "a" .': False,
    "<u:x> <u:p> <u:o>.": False,
    "<u:x> <u:p> <u:o>   .": False,
    "<u:x> <u:p> <u:o> . # note": False,
    '<u:x> <u:l> "a" .#note': False,
    '<u:x> <u:l> "Paris"@fr .': False,
    '<u:x> <u:n> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .': False,
    '<u:x> <u:l> "say \\"hi\\"" .': False,
    '<u:x> <u:l> "caf\\u00e9" .': False,
    '<u:x> <u:l> "a \\" ." .': False,
    "_:b <u:p> <u:o> .": False,
    "<u:x> <u:p> _:b .": False,
    # malformed: the grammar rejects them too
    "<u:x> <u:p> <u:o>": False,
    "<u:x> <u:p> <u:o> . .": False,
    '<u:x> <u:p> "a" "b" .': False,
    '<u:x> <u:l> "bad\\q" .': False,
    '<u:a"b> <u:p> <u:o> .': False,
    "<u:x> <u:p> <u:a> <u:b> .": False,
}


def _by_grammar(line):
    """The triple `_LINE`'s groups give for a non-blank line, or None."""
    m = _LINE.match(line.strip())
    if m is None:
        return None
    subj, blank, pred, obj, blank_obj, text, tag = m.groups()
    if text is not None:
        obj = '"' + _ESCAPE.sub(_unescape_one, text) + '"' + (tag or "")
    return (blank if subj is None else subj), pred, (blank_obj if obj is None else obj)


def test_common_form_gives_what_the_grammar_gives():
    """A line is read by `_SIMPLE` exactly when it has the common form, and
    the parser yields the triple the grammar gives for it, or skips it when
    the grammar rejects it. Read together with blank and comment lines, the
    forms give the grammar's triples in order and its skip count."""
    for line, simple in _FORMS.items():
        assert (_SIMPLE.fullmatch(line.strip()) is not None) == simple, line
        expected = _by_grammar(line)
        stats = ParseStats()
        assert list(parse_ntriples([line], stats)) == ([] if expected is None else [expected])
        assert (stats.parsed, stats.skipped) == ((0, 1) if expected is None else (1, 0)), line
    lines = [f"{line}\n" for line in _FORMS] + ["\n", "# comment\n", "   \n"]
    expected = [t for t in map(_by_grammar, _FORMS) if t is not None]
    assert 0 < len(expected) < len(_FORMS)
    stats = ParseStats()
    assert list(parse_ntriples(lines, stats)) == expected
    assert (stats.parsed, stats.skipped) == (len(expected), len(_FORMS) - len(expected))


def test_malformed_lines_are_skipped_and_counted():
    stats = ParseStats()
    out = parse(
        "<u:x> <u:p> <u:y> .\n"
        "not a triple\n"
        '<u:x> <u:p> "broken\\q" .\n'  # bad escape
        '<u:x> <u:p> "truncated\\u00" .\n'
        "<u:x> <u:p> <u:a> <u:b> .\n"  # two object IRIs
        "<u:x> <u:p> <u:a<b> .\n"  # '<' inside an IRI
        # \u takes exactly 4 hex digits, even where int(_, 16) reads "A"
        '<u:x> <u:p> "\\u+041" .\n'
        '<u:x> <u:p> "\\u 041" .\n'
        '<u:x> <u:p> "\\u0_41" .\n',
        stats,
    )
    assert len(out) == 1
    assert stats.parsed == 1
    assert stats.skipped == 8
    assert len(stats.samples) == 5


def test_iri_with_a_double_quote_is_a_malformed_line(tmp_path):
    """N-Triples IRIs hold no '"'. Read as an IRI, <"x"> would be the
    resource "x", the lexical form of the literal "x" as well."""
    stats = ParseStats()
    lines = ['<"x"> <http://p> <http://b> .', '<http://a> <http://p> "x" .']
    assert parse("\n".join(lines), stats) == [("http://a", "http://p", '"x"')]
    assert stats.skipped == 1
    for line in ('<http://a> <http://"p"> <http://b> .',
                 '<http://a> <http://p> <"b"> .',
                 '<http://a> <http://p> "1"^^<http://"dt"> .'):
        assert parse(line) == []
    f = tmp_path / "quoted.nt"
    f.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError):
        load_ontology(f)
    onto = ontology_from_triples(parse_ntriples(lines))
    assert onto.kind(onto.term_id('"x"')) == LITERAL
    assert onto.statement_count() == 2


def test_literal_in_class_position_is_never_a_class():
    """A type edge to a literal is dropped and a subClassOf edge with a
    literal end is rejected, and both are counted. The literal stays a
    literal."""
    onto = ontology_from_triples(parse_ntriples([
        f'<http://a> <{RDF_TYPE}> "lit" .',
        '<http://b> <http://p> "lit" .',
        f'<http://C> <{RDFS_SUBCLASSOF}> "lit" .',
        f'"lit" <{RDFS_SUBCLASSOF}> <http://C> .',  # malformed, so skipped
    ]))
    lit = onto.term_id('"lit"')
    assert onto.kind(lit) == LITERAL
    assert onto.classes() == [onto.term_id("http://C")]
    assert onto.classes_of(onto.term_id("http://a")) == ()
    assert onto.rejected_statements == 2
    assert onto.statement_count() == 2


_IRIS = ("<http://e/a>", "<http://e/b>", '<"x">', '<http://e/"y">', "<>")
_SUBJECTS = _IRIS + ("_:b1", "_:b2", '"x"', "x")
_PREDICATES = (
    "<http://e/p>", "<http://e/q>", '<"x">',
    f"<{RDF_TYPE}>", f"<{RDFS_SUBCLASSOF}>", f"<{RDFS_SUBPROPERTYOF}>",
)
_OBJECTS = _SUBJECTS + (
    '"y"', '"lit"@en', '"x"^^<http://e/dt>', '"x"^^<"dt">', '"a\\tb"',
    '"\\u00e9"', '"\\U0011FFFF"', '"bad\\q"', '"\\"x\\""', '"open',
)


@settings(max_examples=150, deadline=None)
@given(
    lines=st.lists(
        st.one_of(
            st.tuples(st.sampled_from(_SUBJECTS), st.sampled_from(_PREDICATES),
                      st.sampled_from(_OBJECTS)).map(" ".join).map(lambda t: t + " ."),
            st.sampled_from(("", "# note", "junk", "<http://e/a> <http://e/p> .")),
        ),
        max_size=12,
    ),
)
@example(lines=['<"x"> <http://e/p> <http://e/b> .', '<http://e/a> <http://e/p> "x" .'])
@example(lines=[f'<http://e/a> <{RDF_TYPE}> "lit" .', '<http://e/b> <http://e/p> "lit" .'])
def test_loader_raises_nothing_but_parse_error(lines):
    """Whatever lines a file holds, loading it returns an ontology or
    raises ParseError."""
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "fuzz.nt"
        f.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        try:
            load_ontology(f)
        except ParseError:
            pass


# IRI text: no '<', '>', '"', whitespace or control characters
_IRI = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zs", "Zl", "Zp"),
                  blacklist_characters='<>"'),
    min_size=1, max_size=12,
)
_LITERAL_TEXT = st.text(
    st.one_of(st.sampled_from('"\\\t\n\ré'), st.characters(blacklist_categories=("Cs",))),
    max_size=12,
)


def _escape_literal(text: str, spelled: list[bool]) -> str:
    """N-Triples escaping of literal text. The characters that must be
    escaped always are; another one is written as a \\u escape where
    `spelled` says so, which needs a character in the basic plane."""
    out = []
    for i, ch in enumerate(text):
        if ch in '"\\':
            out.append("\\" + ch)
        elif ch in "\t\n\r":
            out.append({"\t": "\\t", "\n": "\\n", "\r": "\\r"}[ch])
        elif ord(ch) < 0x20 or (spelled[i % len(spelled)] and ord(ch) <= 0xFFFF):
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


@st.composite
def _literal_objects(draw):
    """One literal object: its N-Triples spelling and its canonical form."""
    text = draw(_LITERAL_TEXT)
    written = '"' + _escape_literal(text, draw(st.lists(st.booleans(), min_size=1))) + '"'
    tag = draw(st.one_of(
        st.just(""),
        st.from_regex(r"[A-Za-z][A-Za-z0-9-]{0,8}", fullmatch=True).map(lambda t: "@" + t),
        _IRI.map(lambda iri: f"^^<{iri}>"),
    ))
    return written + tag, f'"{text}"' + tag


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(_IRI, _IRI, st.one_of(_IRI.map(lambda iri: (f"<{iri}>", iri)), _literal_objects())),
    min_size=1, max_size=4,
))
def test_parse_round_trips_escaped_lines(statements):
    """Lines written with N-Triples escapes parse back to the canonical
    triple: IRIs without brackets, literal text unescaped, the tag kept."""
    lines = [f"<{s}> <{p}> {written} ." for s, p, (written, _) in statements]
    stats = ParseStats()
    assert list(parse_ntriples(lines, stats)) == [
        (s, p, canonical) for s, p, (_, canonical) in statements
    ]
    assert stats.skipped == 0


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.sampled_from((b"\t", b"\n", b"\\", b"\xe9", b"nan", b"1e999", b"\x00",
                     b"a", b"0.5", b"#", b"instance")),
    max_size=40,
).map(b"".join))
def test_alignment_and_gold_readers_raise_nothing_but_parse_error(data):
    """Whatever bytes a TSV holds, the alignment and gold readers return or
    raise ParseError."""
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "fuzz.tsv"
        f.write_bytes(data)
        for read in (read_alignment, load_gold):
            try:
                read(f)
            except ParseError:
                pass


def test_load_ontology_aborts_on_heavy_corruption(tmp_path):
    f = tmp_path / "bad.nt"
    f.write_text("garbage\n" * 10 + "<u:x> <u:p> <u:y> .\n")
    with pytest.raises(ParseError):
        load_ontology(f)


def test_load_ontology_reads_directories_sorted(tmp_path):
    (tmp_path / "b.nt").write_text("<u:x> <u:p> <u:y> .\n")
    (tmp_path / "a.nt").write_text("<u:y> <u:p> <u:z> .\n")
    onto = load_ontology(tmp_path)
    assert onto.statement_count() == 4  # two statements, inverse-closed


def test_load_ontology_missing_path():
    with pytest.raises(ParseError):
        load_ontology("/does/not/exist.nt")


def test_alignment_roundtrip_with_awkward_fields(tmp_path):
    rows = [
        AlignmentRow("a\tb", "c\nd", 0.5, "instance", "equivalence"),
        AlignmentRow("x", "y", 1.0, "relation", "left_in_right"),
        AlignmentRow("x", "z", 0.25, "relation", "right_in_left"),
    ]
    path = tmp_path / "out.tsv"
    assert write_alignment(rows, path) == 3
    back = read_alignment(path)
    assert set(back) == set(rows)
    # sorted by kind, then left, then descending score
    assert [r.kind for r in back] == ["instance", "relation", "relation"]
    assert back[1].score >= back[2].score


_FIELD = st.text(alphabet=("\t", "\n", "\r", "\\", "t", "n", "r", "a", "é"), max_size=8)


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.builds(
        AlignmentRow, _FIELD, _FIELD, st.integers(0, 10**6).map(lambda k: k / 10**6),
        st.just("instance"), st.just("equivalence"),
    ),
    max_size=5,
))
def test_alignment_fields_round_trip(rows):
    """Tabs, newlines, carriage returns and backslashes in a field survive a
    write and a read; the rows come back in the written order."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.tsv"
        write_alignment(rows, path)
        assert read_alignment(path) == sorted(
            rows, key=lambda r: (r.kind, r.left, -r.score, r.right, r.direction)
        )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.builds(
            AlignmentRow, st.sampled_from("ab"), st.sampled_from("ab"),
            st.sampled_from((0.5, 1.0)), st.sampled_from(("class", "relation")),
            st.sampled_from(("left_in_right", "right_in_left")),
        ),
        max_size=8,
    ),
    st.randoms(use_true_random=False),
)
def test_alignment_bytes_do_not_depend_on_row_order(rows, rng):
    """Rows that differ only in direction, such as a relation included in
    another both ways at the same score, are still written in one order: any
    shuffle of the rows writes the same bytes."""
    shuffled = rows.copy()
    rng.shuffle(shuffled)
    with tempfile.TemporaryDirectory() as tmp:
        paths = Path(tmp) / "rows.tsv", Path(tmp) / "shuffled.tsv"
        write_alignment(rows, paths[0])
        write_alignment(shuffled, paths[1])
        assert paths[0].read_bytes() == paths[1].read_bytes()


def test_read_alignment_rejects_wrong_column_count(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tb\t0.5\n")
    with pytest.raises(ParseError):
        read_alignment(path)


def test_a_byte_order_mark_is_not_part_of_the_first_line(tmp_path):
    """A UTF-8 byte-order mark is dropped before the first line, in
    N-Triples inputs and in gold and alignment TSVs."""
    triples = "".join(f"<u:x{i}> <u:p> <u:y{i}> .\n" for i in range(60))
    gold = "a\tb\nc\td\n"
    rows = "a\tb\t0.500000\tinstance\tequivalence\n"
    for name, text in (("plain", ""), ("marked", "\ufeff")):
        (tmp_path / f"{name}.nt").write_text(text + triples, encoding="utf-8")
        (tmp_path / f"{name}_gold.tsv").write_text(text + gold, encoding="utf-8")
        (tmp_path / f"{name}_rows.tsv").write_text(text + rows, encoding="utf-8")
    assert (tmp_path / "marked.nt").read_bytes().startswith(b"\xef\xbb\xbf<u:x0>")
    plain, marked = (load_ontology(tmp_path / f"{name}.nt") for name in ("plain", "marked"))
    assert marked.term_id("u:x0") == plain.term_id("u:x0") is not None
    assert marked.statement_count() == plain.statement_count() == 120
    assert load_gold(tmp_path / "marked_gold.tsv") == {("a", "b"), ("c", "d")}
    assert read_alignment(tmp_path / "marked_rows.tsv") == read_alignment(
        tmp_path / "plain_rows.tsv"
    )


def test_load_gold_dedupes_and_tolerates_extra_columns(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("a\tb\n" "a\tb\n" "c\td\tequivalence\n" "# comment\n" "broken\n")
    assert load_gold(path) == {("a", "b"), ("c", "d")}
