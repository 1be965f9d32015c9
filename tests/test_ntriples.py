import pytest

from ontoalign.ntriples import (
    AlignmentRow,
    ParseError,
    ParseStats,
    load_gold,
    load_ontology,
    parse_ntriples,
    read_alignment,
    write_alignment,
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
    out = parse('<u:x> <u:l> "line\\nbreak \\u00e9 \\"quoted\\"" .')
    assert out[0][2] == '"line\nbreak é "quoted""'


def test_parse_blank_nodes_and_comments():
    out = parse(
        "# a comment\n"
        "\n"
        "_:b1 <u:p> _:b2 .\n"
    )
    assert out == [("_:b1", "u:p", "_:b2")]


def test_malformed_lines_are_skipped_and_counted():
    stats = ParseStats()
    out = parse(
        "<u:x> <u:p> <u:y> .\n"
        "not a triple\n"
        '<u:x> <u:p> "broken\\q" .\n'  # bad escape
        '<u:x> <u:p> "truncated\\u00" .\n'
        "<u:x> <u:p> <u:a> <u:b> .\n"  # two object IRIs
        "<u:x> <u:p> <u:a<b> .\n",  # '<' inside an IRI
        stats,
    )
    assert len(out) == 1
    assert stats.parsed == 1
    assert stats.skipped == 5
    assert len(stats.samples) == 5


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


def test_read_alignment_rejects_wrong_column_count(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tb\t0.5\n")
    with pytest.raises(ParseError):
        read_alignment(path)


def test_load_gold_dedupes_and_tolerates_extra_columns(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("a\tb\n" "a\tb\n" "c\td\tequivalence\n" "# comment\n" "broken\n")
    assert load_gold(path) == {("a", "b"), ("c", "d")}
