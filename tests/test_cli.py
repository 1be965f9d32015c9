"""End-to-end command-line behaviour: generate, align, eval, functionality.

Everything but the closed-pipe test runs in-process through main() so exit
codes and output files are asserted exactly as a shell user would see them;
that one needs a process of its own, since its standard output is a pipe.
"""

import argparse
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from oracle import naive_functionality
from ontoalign.cli import EXIT_BROKEN_PIPE, _config_from_args, build_parser, main
from ontoalign.engine import AlignmentConfig
from ontoalign.ntriples import load_ontology, read_alignment
from ontoalign.store import RDF_TYPE
from ontoalign.synth import generate_pair


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A small generated pair plus a finished alignment run over it."""
    root = tmp_path_factory.mktemp("world")
    data = root / "data"
    out = root / "out"
    assert main(["generate", "--out-dir", str(data), "--instances", "40",
                 "--seed", "5"]) == 0
    assert main(["align", str(data / "left.nt"), str(data / "right.nt"),
                 "--out", str(out)]) == 0
    return data, out


def test_generate_is_seed_deterministic(tmp_path):
    for sub, seed in (("a", "1"), ("b", "1"), ("c", "2")):
        assert main(["generate", "--out-dir", str(tmp_path / sub),
                     "--instances", "25", "--seed", seed]) == 0
    same = [(tmp_path / s / "left.nt").read_bytes() for s in ("a", "b")]
    assert same[0] == same[1]
    assert (tmp_path / "a" / "right.nt").read_bytes() == (tmp_path / "b" / "right.nt").read_bytes()
    assert (tmp_path / "c" / "left.nt").read_bytes() != same[0]


# SHA-256 of every file the generator writes for instances=200, seed=4. The
# benchmark builds its inputs with the checkout's own generator, so a silent
# change to this output would give two checkouts different inputs.
_GENERATED_SHA256 = {
    "gold_classes.tsv": "fbf64dc62446670459bba7277416ec6e51812a43d020189bb24e0f49da8b7805",
    "gold_instances.tsv": "acf15dd94d20a6f960f676622490ea1e3d8254eecc6df7cc5d9a975170401129",
    "gold_relations.tsv": "faa9e4a2bf60644e929db722c7985e0a05857d60f4383d21fd085d448e16842c",
    "left.nt": "f2f03f6b5b082d83d1a0544e54efca6cf6f24088a7afe984c9cce2908a38a9a0",
    "right.nt": "e6b00589891911555697339c9f985065981e97faeff799fda8309a442786b74e",
}
_NOISY = dict(attribute_drop=0.2, perturb_literals=0.3, scramble_phones=0.1,
              split_relation=True, merge_relations=True)
_NOISY_SHA256 = {
    **_GENERATED_SHA256,
    "gold_relations.tsv": "e7195117f032690eb935cd14eeaba7ceb4eecc0d77e5ea88c3199938abba89b5",
    "right.nt": "4a21837b599051ae59b1a00893eb4ca5ad10b5a0df9a8e3f9c2e470df8ecd5a6",
}


@pytest.mark.parametrize(
    "knobs, expected",
    [({}, _GENERATED_SHA256), (_NOISY, _NOISY_SHA256), (None, _GENERATED_SHA256)],
    ids=["clean", "noisy", "command"],
)
def test_generator_output_is_pinned(tmp_path, knobs, expected):
    if knobs is None:  # the command the benchmark runs to build its inputs
        assert main(["generate", "--out-dir", str(tmp_path), "--instances", "200",
                     "--seed", "4"]) == 0
    else:
        generate_pair(tmp_path, instances=200, seed=4, **knobs)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == expected


# SHA-256 of the three TSVs `align` writes for `generate --instances 300
# --seed 4`, per config. Under negative evidence the instance sweep rules
# pairs out by their penalties and joins candidate rows; a change there that
# moves a stored bit changes these digests. On this pair `--literal-mode
# alnum-lower` writes the same bytes as the default config.
_ALIGNED_SHA256 = {
    (): {
        "classes.tsv": "b6961c834364e6e6f01174fc0af3a2513a4bb68d72dea3a535dcc2d6c82f713a",
        "instances.tsv": "243c1b2e062b5b990771946cf7229bcac1a115c152adb34482c82244ede8143e",
        "relations.tsv": "da321b96b2875235d7cc59ba18c9e8e46b133348dbf3327f14e1bae48396dfc1",
    },
    ("--negative-evidence",): {
        "classes.tsv": "67d8b700a7cf1b29c82606abaa2aa5ef6e999782fa3ce7dfbc77afb7193cd54a",
        "instances.tsv": "fca92eccd46716658ec43fc15bbcb9bb620e0003a50885ab244fb95e73ef2f10",
        "relations.tsv": "04fef1236c79126fb2038e143c1aee49225ccf2dd10d47db3cf7a429c34a54ea",
    },
    ("--literal-mode", "alnum-lower"): {
        "classes.tsv": "b6961c834364e6e6f01174fc0af3a2513a4bb68d72dea3a535dcc2d6c82f713a",
        "instances.tsv": "243c1b2e062b5b990771946cf7229bcac1a115c152adb34482c82244ede8143e",
        "relations.tsv": "da321b96b2875235d7cc59ba18c9e8e46b133348dbf3327f14e1bae48396dfc1",
    },
}


def test_align_outputs_are_pinned(tmp_path):
    data = tmp_path / "data"
    assert main(["generate", "--out-dir", str(data), "--instances", "300",
                 "--seed", "4"]) == 0
    for i, (flags, expected) in enumerate(_ALIGNED_SHA256.items()):
        out = tmp_path / f"out{i}"
        assert main(["align", str(data / "left.nt"), str(data / "right.nt"),
                     "--out", str(out), *flags]) == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in expected
        }
        assert digests == expected, flags


def test_align_writes_outputs_and_manifest(world):
    data, out = world
    for name in ("instances.tsv", "relations.tsv", "classes.tsv", "manifest.txt"):
        assert (out / name).exists()
    manifest = dict(
        line.split("=", 1)
        for line in (out / "manifest.txt").read_text().splitlines()
    )
    assert manifest["converged"] == "true"
    assert manifest["config.theta"] == "0.1"
    # retired settings are not config fields, so the manifest has no key for them
    for gone in ("pair_cap", "restrict_to_assignment", "functionality_mode", "negative_inner",
                 "class_score_threshold", "convergence_fraction"):
        assert f"config.{gone}" not in manifest
    assert int(manifest["iterations"]) >= 1
    # the recorded digest really is the digest of the input file
    expect = hashlib.sha256((data / "left.nt").read_bytes()).hexdigest()
    assert manifest["input.left.sha256"] == expect
    assert int(manifest["output.instances.rows"]) == len(
        read_alignment(out / "instances.tsv")
    )


def test_eval_round_trip_is_perfect(world, capsys):
    data, out = world
    assert main(["eval", str(out / "instances.tsv"),
                 str(data / "gold_instances.tsv")]) == 0
    lines = dict(
        line.split("\t") for line in capsys.readouterr().out.strip().splitlines()
    )
    assert lines["precision"] == "1.0000"
    assert lines["recall"] == "1.0000"
    assert lines["f1"] == "1.0000"


def test_eval_sweep_prints_twenty_thresholds(world, capsys):
    data, out = world
    assert main(["eval", str(out / "instances.tsv"),
                 str(data / "gold_instances.tsv"), "--sweep"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("threshold\tprecision")
    assert len(lines) == 21
    assert lines[1].startswith("0.05\t")
    assert lines[-1].startswith("1.00\t")


@pytest.mark.parametrize("content", ["", "a,b\nc,d\n"], ids=["empty", "comma-separated"])
def test_eval_gold_without_a_pair_exits_3(world, tmp_path, capsys, content):
    """Scored against a gold file that holds no pair, every alignment would
    read 0; that is an input error naming the file."""
    _, out = world
    gold = tmp_path / "gold.tsv"
    gold.write_text(content, encoding="utf-8")
    assert main(["eval", str(out / "instances.tsv"), str(gold)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "gold.tsv" in captured.err
    assert captured.out == ""


def test_eval_relation_kind_scores_relations(world, capsys):
    data, out = world
    assert main(["eval", str(out / "relations.tsv"),
                 str(data / "gold_relations.tsv"), "--kind", "relation"]) == 0
    lines = dict(
        line.split("\t") for line in capsys.readouterr().out.strip().splitlines()
    )
    assert lines["recall"] == "1.0000"


@pytest.mark.parametrize(
    ("predicted", "gold", "kind", "found"),
    [
        ("relations.tsv", "gold_instances.tsv", "instance", "relation"),
        ("instances.tsv", "gold_relations.tsv", "relation", "instance"),
    ],
    ids=["relations-as-instance", "instances-as-relation"],
)
def test_eval_predicted_without_the_kind_exits_3(world, capsys, predicted, gold, kind, found):
    """Rows of none of the kind asked for mean a wrong file or kind, not a
    score of 0: the error names the kinds the file holds."""
    data, out = world
    assert main(["eval", str(out / predicted), str(data / gold), "--kind", kind]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and predicted in captured.err
    assert f"no {kind} row" in captured.err and f"kind {found}" in captured.err
    assert captured.out == ""


def test_eval_empty_predicted_scores_0(world, tmp_path, capsys):
    """An alignment with no row at all is a real result, and scores 0."""
    data, _ = world
    predicted = tmp_path / "instances.tsv"
    predicted.write_text("", encoding="utf-8")
    assert main(["eval", str(predicted), str(data / "gold_instances.tsv")]) == 0
    lines = dict(
        line.split("\t") for line in capsys.readouterr().out.strip().splitlines()
    )
    assert lines["precision"] == lines["recall"] == lines["f1"] == "0.0000"
    assert lines["predicted_in_gold_region"] == lines["correct"] == "0"


def test_odd_lexical_forms_round_trip_and_align(tmp_path, capsys):
    """A lone surrogate, which the escape \\uD800 gives, and a character
    outside the BMP survive the store's UTF-8 term table: each form reads
    back exactly and finds its term again, and both persons align."""
    names = ["\ud800 lone", "café \U0001F600"]
    for side, ns in (("left", "http://one.example/"), ("right", "http://two.example/")):
        (tmp_path / f"{side}.nt").write_text(
            f'<{ns}p0> <{ns}name> "\\uD800 lone" .\n'
            f'<{ns}p1> <{ns}name> "café \\U0001F600" .\n',
            encoding="utf-8",
        )
    onto = load_ontology(tmp_path / "left.nt")
    forms = [f'"{name}"' for name in names]
    for form in forms:
        t = onto.term_id(form)
        assert t is not None and onto.lexical(t) == form
    for t in range(onto.term_count()):
        assert onto.term_id(onto.lexical(t)) == t
    out = tmp_path / "out"
    assert main(["align", str(tmp_path / "left.nt"), str(tmp_path / "right.nt"),
                 "--out", str(out)]) == 0
    rows = read_alignment(out / "instances.tsv")
    assert sorted((r.left, r.right) for r in rows) == [
        (f"http://one.example/p{i}", f"http://two.example/p{i}") for i in range(2)
    ]


def test_strict_flag_turns_non_convergence_into_exit_4(world, tmp_path):
    """Iteration 1 assigns every instance afresh, so its change fraction is
    1.0 and a one-iteration run cannot converge."""
    data, _ = world
    out = tmp_path / "strict"
    code = main(["align", str(data / "left.nt"), str(data / "right.nt"),
                 "--out", str(out), "--max-iterations", "1", "--strict"])
    assert code == 4
    manifest = dict(
        line.split("=", 1) for line in (out / "manifest.txt").read_text().splitlines()
    )
    assert manifest["converged"] == "false"
    assert manifest["iterations"] == "1"
    assert manifest["iteration.1.change_fraction"] == "1.000000"


def test_an_iteration_that_changes_no_assignment_converges(tmp_path):
    """The run stops once an iteration changes no assignment: here the
    second."""
    data, out = tmp_path / "data", tmp_path / "out"
    assert main(["generate", "--out-dir", str(data), "--instances", "200",
                 "--seed", "3"]) == 0
    assert main(["align", str(data / "left.nt"), str(data / "right.nt"),
                 "--out", str(out), "--strict"]) == 0
    manifest = dict(
        line.split("=", 1) for line in (out / "manifest.txt").read_text().splitlines()
    )
    assert manifest["converged"] == "true"
    assert manifest["iterations"] == "2"
    assert manifest["iteration.2.changed"] == "0"


@pytest.mark.parametrize("flags, rows, warned", [
    ((), 62, False),
    (("--negative-evidence",), 0, True),
], ids=["default", "negative"])
def test_an_empty_alignment_is_logged_as_a_warning(tmp_path, caplog, flags, rows, warned):
    """Negative evidence rules out every pair of this noise-free 50-person
    pair in iteration 2 and still converges, with three empty TSVs; the run
    warns that nothing was assigned, naming theta and the iteration count.
    The default config assigns the 62 true instance pairs and does not
    warn."""
    data, out = tmp_path / "data", tmp_path / "out"
    assert main(["generate", "--out-dir", str(data), "--instances", "50",
                 "--seed", "1"]) == 0
    with caplog.at_level("WARNING", logger="ontoalign.engine"):
        assert main(["align", str(data / "left.nt"), str(data / "right.nt"),
                     "--out", str(out), *flags]) == 0
    manifest = dict(
        line.split("=", 1) for line in (out / "manifest.txt").read_text().splitlines()
    )
    assert manifest["converged"] == "true"
    assert manifest["output.instances.rows"] == str(rows)
    assert len(read_alignment(out / "instances.tsv")) == rows
    if warned:
        assert manifest["output.relations.rows"] == manifest["output.classes.rows"] == "0"
    empty = [r.getMessage() for r in caplog.records if "no instance pair" in r.getMessage()]
    iterations = manifest["iterations"]
    expected = [f"no instance pair assigned after {iterations} iterations at theta=0.1"]
    assert empty == (expected if warned else [])


@pytest.mark.parametrize(
    "content",
    [None, "", "# only a comment\n\n", f'<http://a> <{RDF_TYPE}> "lit" .\n'],
    ids=["absent", "empty", "comment-only", "all-rejected"],
)
def test_missing_input_exits_3(tmp_path, capsys, content):
    """An input from which the store keeps no statement and no type edge is
    an error, not an empty alignment."""
    path = tmp_path / "input.nt"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["align", str(path), str(path), "--out", str(out)]) == 3
    assert "error:" in capsys.readouterr().err
    assert not out.exists()
    assert main(["functionality", str(path)]) == 3
    captured = capsys.readouterr()
    assert "error:" in captured.err and captured.out == ""


def test_non_utf8_input_exits_3(tmp_path, capsys):
    bad = tmp_path / "latin1.nt"
    bad.write_bytes(b'<http://a.example/x> <http://a.example/name> "Ren\xe9" .\n')
    code = main(["align", str(bad), str(bad), "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "latin1.nt" in err and "UTF-8" in err


@pytest.mark.parametrize("left, code", [
    # an IRI holding '"' is a malformed line: 1 of 2 skipped trips the bound
    ('<"x"> <http://p> <http://b> .\n<http://a> <http://p> "x" .\n', 3),
    # a type edge to a literal is dropped; the literal stays a literal
    (f'<http://a> <{RDF_TYPE}> "lit" .\n<http://b> <http://p> "lit" .\n', 0),
], ids=["quoted-iri", "literal-class"])
def test_literal_lookalike_terms_cost_no_traceback(tmp_path, capsys, left, code):
    (tmp_path / "l.nt").write_text(left)
    (tmp_path / "r.nt").write_text('<http://c> <http://p> "x" .\n')
    assert main(["align", str(tmp_path / "l.nt"), str(tmp_path / "r.nt"),
                 "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code:
        assert "error:" in err and "malformed" in err


def test_manifest_reports_load_time_and_rejections_per_side(tmp_path):
    """Each side holds one statement with a class as its object, which the
    loader rejects and counts."""
    for name, prefix in (("l.nt", "http://one/"), ("r.nt", "http://two/")):
        (tmp_path / name).write_text(
            f"<{prefix}a> <{prefix}p> <{prefix}b> .\n"
            f"<{prefix}a> <{RDF_TYPE}> <{prefix}C> .\n"
            f"<{prefix}b> <{prefix}p> <{prefix}C> .\n"
        )
    assert main(["align", str(tmp_path / "l.nt"), str(tmp_path / "r.nt"),
                 "--out", str(tmp_path / "out")]) == 0
    manifest = dict(
        line.split("=", 1)
        for line in (tmp_path / "out" / "manifest.txt").read_text().splitlines()
    )
    assert manifest["input.left.rejected_statements"] == "1"
    assert manifest["input.right.rejected_statements"] == "1"
    assert float(manifest["phase.load.seconds"]) >= 0.0


def test_manifest_reports_class_time_and_peak_memory(world):
    """The class inclusions get a time of their own, and the run reports its
    peak resident memory in MB."""
    _, out = world
    manifest = dict(
        line.split("=", 1)
        for line in (out / "manifest.txt").read_text().splitlines()
    )
    assert float(manifest["phase.classes.seconds"]) >= 0.0
    assert float(manifest["process.peak_rss_mb"]) >= 0.0


def test_manifest_times_the_bootstrap_phases(world):
    """The functionality tables and the literal seeds each get a time of
    their own."""
    _, out = world
    manifest = dict(
        line.split("=", 1)
        for line in (out / "manifest.txt").read_text().splitlines()
    )
    assert float(manifest["phase.functionality.seconds"]) >= 0.0
    assert float(manifest["phase.seed.seconds"]) >= 0.0


def test_manifest_reports_peak_memory_per_phase(world):
    """The peak after loading and after each phase of each iteration (the
    instance sweep, the assignment and the relation sweep, which ends it)
    only grow, up to the process's peak: the first phase to reach it is
    where it happened."""
    _, out = world
    manifest = dict(
        line.split("=", 1)
        for line in (out / "manifest.txt").read_text().splitlines()
    )
    iterations = int(manifest["iterations"])
    assert iterations >= 1
    peaks = [float(manifest["phase.load.peak_rss_mb"])]
    for i in range(1, iterations + 1):
        for phase in ("instance_sweep.", "assignment.", ""):
            peaks.append(float(manifest[f"iteration.{i}.{phase}peak_rss_mb"]))
    peaks.append(float(manifest["process.peak_rss_mb"]))
    assert 0.0 < peaks[0]
    assert peaks == sorted(peaks)


def test_manifest_reports_peak_memory_after_the_seeds(world):
    """The peak right after the literal seeds lies between the peak after
    loading and the first iteration's, and so at most at the process's."""
    _, out = world
    manifest = dict(
        line.split("=", 1)
        for line in (out / "manifest.txt").read_text().splitlines()
    )
    seed = float(manifest["phase.seed.peak_rss_mb"])
    assert float(manifest["phase.load.peak_rss_mb"]) <= seed
    assert seed <= float(manifest["iteration.1.peak_rss_mb"])
    assert seed <= float(manifest["process.peak_rss_mb"])


def test_manifest_times_each_phase_of_every_iteration(world):
    """Each iteration's instance sweep, assignment and relation sweep get a
    time of their own, within the iteration's time. Each value is written
    to the millisecond, so the three may exceed the total by at most 2 ms."""
    _, out = world
    manifest = dict(
        line.split("=", 1)
        for line in (out / "manifest.txt").read_text().splitlines()
    )
    for n in range(1, int(manifest["iterations"]) + 1):
        phases = [
            float(manifest[f"iteration.{n}.{phase}.seconds"])
            for phase in ("instance_sweep", "assignment", "relation_sweep")
        ]
        assert min(phases) >= 0.0
        assert sum(phases) <= float(manifest[f"iteration.{n}.seconds"]) + 0.002


def test_manifest_records_every_phase_and_the_readme_names_it(world):
    """Every phase of the run and of each iteration has a `.seconds` and a
    `.peak_rss_mb` key, and the manifest holds no other timing key than
    those, the process's peak and each iteration's total and end. The
    README names each of them and every other per-iteration key, with N for
    the iteration number, so a new phase or count cannot go undocumented."""
    _, out = world
    manifest = dict(
        line.split("=", 1)
        for line in (out / "manifest.txt").read_text().splitlines()
    )
    units = ("seconds", "peak_rss_mb")
    timing = {k for k in manifest if k.endswith(tuple(f".{u}" for u in units))}
    iterations = range(1, int(manifest["iterations"]) + 1)
    assert iterations
    totals = {"process.peak_rss_mb"} | {f"iteration.{n}.{u}" for n in iterations for u in units}
    phases = {k.rsplit(".", 1)[0] for k in timing - totals}
    assert all(re.fullmatch(r"phase\.\w+|iteration\.\d+\.\w+", p) for p in phases), phases
    assert {"phase.load", "phase.functionality", "phase.seed", "phase.classes"} <= phases
    per_iteration = [{p.split(".", 2)[2] for p in phases if p.startswith(f"iteration.{n}.")}
                     for n in iterations]
    assert per_iteration[0] >= {"instance_sweep", "assignment", "relation_sweep"}
    assert all(names == per_iteration[0] for names in per_iteration)
    assert timing == totals | {f"{p}.{u}" for p in phases for u in units}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    per_iteration_keys = {k for k in manifest if k.startswith("iteration.")}
    documented = {
        re.sub(r"^iteration\.\d+\.", "iteration.N.", k) for k in timing | per_iteration_keys
    }
    missing = [k for k in sorted(documented) if f"`{k}`" not in readme]
    assert not missing, missing


@pytest.mark.parametrize("bad_arg", ["predicted", "gold"])
def test_non_utf8_eval_input_exits_3(world, tmp_path, capsys, bad_arg):
    data, out = world
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b'<http://a.example/x> <http://a.example/name> "Ren\xe9" .\n')
    files = {"predicted": out / "instances.tsv", "gold": data / "gold_instances.tsv"}
    files[bad_arg] = bad
    code = main(["eval", str(files["predicted"]), str(files["gold"])])
    assert code == 3
    err = capsys.readouterr().err
    assert "latin1.txt" in err and "UTF-8" in err


@pytest.mark.parametrize(
    "option",
    [
        ["--theta", "1.5"],
        ["--theta", "-0.5"],
        ["--theta", "0"],
        ["--theta", "1"],
        ["--max-iterations", "-1"],
        ["--theta", "nan"],
        ["--max-iterations", "0"],
        ["--theta", "inf"],
        ["--theta", "1.5", "--max-iterations", "0"],
    ],
)
def test_out_of_range_settings_exit_2(world, tmp_path, capsys, option):
    data, _ = world
    out = tmp_path / "out"
    code = main(["align", str(data / "left.nt"), str(data / "right.nt"),
                 "--out", str(out), *option])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()  # rejected before any output is written


def test_align_defaults_are_the_config_defaults():
    args = build_parser().parse_args(["align", "l", "r", "--out", "o"])
    assert _config_from_args(args) == AlignmentConfig()


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--instances", "0"],
        ["generate", "--instances", "-3"],
        ["generate", "--attribute-drop", "1.5"],
        ["generate", "--perturb-literals", "-1"],
        ["generate", "--scramble-phones", "2"],
        ["functionality", "{left}", "--top", "0"],
        ["functionality", "{left}", "--top", "-2"],
        ["generate", "--attribute-drop", "nan"],
    ],
)
def test_out_of_range_settings_outside_align_exit_2(world, tmp_path, capsys, argv):
    data, out = world
    out_dir = tmp_path / "generated"
    paths = {"left": data / "left.nt", "predicted": out / "instances.tsv",
             "gold": data / "gold_instances.tsv"}
    argv = [a.format(**paths) for a in argv]
    if argv[0] == "generate":
        argv += ["--out-dir", str(out_dir)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.out == ""
    assert not out_dir.exists()  # rejected before any output is written


def test_non_numeric_score_exits_3(world, tmp_path, capsys):
    data, _ = world
    bad = tmp_path / "predicted.tsv"
    bad.write_text("a\tb\t1.0\tinstance\tequivalence\nc\td\tabc\tinstance\tequivalence\n",
                   encoding="utf-8")
    assert main(["eval", str(bad), str(data / "gold_instances.tsv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "predicted.tsv:2" in err and "'abc'" in err


@pytest.mark.parametrize("score", ["nan", "7.5", "-0.25", "inf"])
@pytest.mark.parametrize("sweep", [False, True], ids=["eval", "sweep"])
def test_score_outside_0_1_exits_3(world, tmp_path, capsys, score, sweep):
    """A gold pair scored nan or out of [0, 1] is not a prediction: read as
    one, it would count as correct, and a sweep would drop the nan row."""
    data, _ = world
    gold = (data / "gold_instances.tsv").read_text(encoding="utf-8")
    left, right = gold.splitlines()[0].split("\t")[:2]
    bad = tmp_path / "predicted.tsv"
    bad.write_text(f"a\tb\t1.0\tinstance\tequivalence\n{left}\t{right}\t{score}"
                   "\tinstance\tequivalence\n", encoding="utf-8")
    args = ["eval", str(bad), str(data / "gold_instances.tsv")] + ["--sweep"] * sweep
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "predicted.tsv:2" in err and repr(score) in err


def test_usage_errors_exit_2(world, tmp_path, capsys):
    data, aligned = world
    with pytest.raises(SystemExit) as exc:
        main(["align"])  # missing positionals and --out
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()
    out = tmp_path / "out"
    # No flag bounds the inclusion sweeps, widens the evidence beyond the
    # assignment, picks another negative-evidence penalty, picks a
    # functionality estimator other than the harmonic mean, moves the class
    # floor or the stop fraction, or writes instance pairs beyond the
    # assignment, in any command.
    for flags in (
        ["--pair-cap", "0"], ["--no-restrict"], ["--functionality-mode", "median"],
        ["--negative-inner", "pair"], ["--class-threshold", "0.5"], ["--all-probabilities"],
        ["--convergence", "0.01"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(["align", str(data / "left.nt"), str(data / "right.nt"),
                  "--out", str(out), *flags])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert not out.exists()
    with pytest.raises(SystemExit) as exc:
        main(["functionality", str(data / "left.nt"), "--mode", "pair-ratio"])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    # eval scores every gold pair: no flag drops the thinly described ones
    for flags in (["--min-facts", "1"], ["--facts-from", str(data / "left.nt")]):
        with pytest.raises(SystemExit) as exc:
            main(["eval", str(aligned / "instances.tsv"),
                  str(data / "gold_instances.tsv"), *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "usage:" in captured.err and captured.out == ""


def test_help_exits_0():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def _readme_flags_and_options():
    """The --flags the README names from its quick start on (the pip flags
    come before), and the long options of every subcommand."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    usage = readme.split("\n## Quick start\n", 1)[1]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", usage))
    subcommands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices.values()
    options = {flag for p in subcommands for a in p._actions for flag in a.option_strings
               if flag.startswith("--")}
    return named, options


def test_readme_names_only_existing_flags():
    """Every --flag the README names is an option of some subcommand, so a
    retired flag cannot linger in the docs."""
    named, options = _readme_flags_and_options()
    assert named and named <= options, sorted(named - options)


def test_readme_names_every_flag():
    """Every long option of every subcommand is named in the README, so a
    flag cannot go undocumented."""
    named, options = _readme_flags_and_options()
    assert options <= named, sorted(options - named)


def test_functionality_lists_relations(world, capsys):
    data, _ = world
    assert main(["functionality", str(data / "left.nt")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "relation\tfunctionality\tinverse_functionality\tstatements"
    rows = {name: rest for name, *rest in (line.split("\t") for line in lines[1:])}
    # every row is the table align reads, checked against the oracle's
    onto = load_ontology(data / "left.nt", origin="first")
    expected = naive_functionality(onto)
    for name, (fun, ifun, stmts) in rows.items():
        rid = onto.relation_id(name)
        assert fun == f"{expected[rid]:.6f}", name
        assert ifun == f"{expected[rid ^ 1]:.6f}", name
        assert stmts == str(len(list(onto.pairs(rid)))), name
    # hasCode values are unique, so its functionality is exactly 1 both ways
    assert rows["http://one.example/hasCode"][:2] == ["1.000000", "1.000000"]


def test_functionality_top_limits_rows(world, capsys):
    data, _ = world
    assert main(["functionality", str(data / "left.nt"), "--top", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3


@pytest.mark.parametrize("command", ["align", "functionality"])
def test_reader_closing_the_pipe_early_costs_no_traceback(world, tmp_path, command):
    """As in `ontoalign align ... | true`: the reader of standard output is
    gone before anything is printed. The run ends with the documented exit
    status and an empty stderr, and the files align wrote stay complete."""
    data, out = world
    argv = {
        "align": ["align", str(data / "left.nt"), str(data / "right.nt"),
                  "--out", str(tmp_path / "out")],
        "functionality": ["functionality", str(data / "left.nt")],
    }[command]
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)  # output reaches the pipe at the final flush
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "ontoalign.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_BROKEN_PIPE
    assert proc.stderr == b""
    if command == "align":
        for name in ("instances.tsv", "relations.tsv", "classes.tsv"):
            assert (tmp_path / "out" / name).read_bytes() == (out / name).read_bytes()

        def stable(path):  # the manifest without output paths, timings and memory
            lines = path.read_text(encoding="utf-8").splitlines()
            return [l for l in lines if not (l.startswith("output.") and ".path=" in l)
                    and ".seconds=" not in l and ".peak_rss_mb=" not in l]

        assert stable(tmp_path / "out" / "manifest.txt") == stable(out / "manifest.txt")
