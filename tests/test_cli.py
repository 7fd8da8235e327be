"""Command-line interface: verdicts, exit codes, json/human agreement."""

import contextlib
import io
import json
import shutil
import tempfile
import time
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coxwalk.affine import EMBEDDING_BALL_CAP
from coxwalk.antichain import FAMILY_CAP
from coxwalk.automaton import ReducedWordAutomaton, build
from coxwalk.cli import MAX_COUNT_EDGE_STEPS, MAX_COUNT_LENGTH, main
from coxwalk.diagram import parse_diagram

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "coxwalk" / "fixtures"


def fixture(name):
    return str(FIXTURES / f"{name}.cox")


# 2305843009213693951 = 2**61 - 1 is prime
HUGE_PRIME_LABEL = "a b\na-b:2305843009213693951\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_human(capsys):
    code, out, _ = run(capsys, "classify", fixture("case_vi"))
    assert code == 0
    assert "CompactHyperbolic" in out


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", fixture("affine_a2"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["components"][0]["class"] == "Affine"


def test_classify_components(capsys, tmp_path):
    f = tmp_path / "two.cox"
    f.write_text("a b c d e; a-b b-c a-c d-e:inf\n")
    code, out, _ = run(capsys, "classify", str(f))
    assert code == 0
    assert "Affine" in out  # both components are affine


def test_classify_large_labels_skips_gram(capsys, tmp_path):
    # labels 7, 11, 13 would need a degree-360 field for the Gram matrix
    f = tmp_path / "path_7_11_13.cox"
    f.write_text("s t u v\ns-t:7 t-u:11 u-v:13\n")
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "classify", str(f))
    assert code == 0
    assert "OtherInfinite" in out
    assert time.perf_counter() - t0 < 10


def test_classify_parse_error(capsys, tmp_path):
    f = tmp_path / "bad.cox"
    f.write_text("a b; a-b:1\n")
    code, _, err = run(capsys, "classify", str(f))
    assert code == 2
    assert "error" in err


def test_empty_file(capsys, tmp_path):
    f = tmp_path / "empty.cox"
    f.write_text("")
    code, _, err = run(capsys, "classify", str(f))
    assert code == 2
    assert "empty diagram" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("automaton", "a2", "--count", "-1"),
        ("antichain", "universal_rank3", "--n", "0"),
        ("antichain", "universal_rank3", "--n", "-3"),
    ],
)
def test_bad_integer_flag(capsys, argv):
    command, name, flag, value = argv
    with pytest.raises(SystemExit) as exc:
        main([command, fixture(name), flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: must be >= " in capsys.readouterr().err


def test_compare_field_degree_cap(capsys, tmp_path):
    # labels 7, 11, 13 need a field of degree 360
    f = tmp_path / "path_7_11_13.cox"
    f.write_text("s t u v\ns-t:7 t-u:11 u-v:13\n")
    t0 = time.perf_counter()
    code, _, err = run(capsys, "compare", str(f), "s t", "t u")
    assert time.perf_counter() - t0 < 5
    assert code == 2
    assert "degree" in err


@pytest.mark.parametrize("argv", [("automaton",), ("compare", "a", "a b")])
def test_huge_prime_label_exits_at_once(capsys, tmp_path, argv):
    f = tmp_path / "huge.cox"
    f.write_text(HUGE_PRIME_LABEL)
    t0 = time.perf_counter()
    code, _, err = run(capsys, argv[0], str(f), *argv[1:])
    assert time.perf_counter() - t0 < 5
    assert code == 2
    assert err.startswith("error: label lcm")


def test_missing_file(capsys):
    code, _, err = run(capsys, "classify", "/nonexistent/path.cox")
    assert code == 2


def test_automaton_counts(capsys):
    code, out, _ = run(capsys, "automaton", fixture("a2"), "--count", "3")
    assert code == 0
    assert "states: 6" in out
    assert "1 2 2 2" in out


def test_automaton_count_cap(capsys):
    t0 = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["automaton", fixture("i2inf"), "--count", str(MAX_COUNT_LENGTH + 1)])
    assert time.perf_counter() - t0 < 5
    assert exc.value.code == 2
    assert f"argument --count: must be <= {MAX_COUNT_LENGTH}" in capsys.readouterr().err


def test_automaton_count_at_cap_is_fast(capsys):
    # all K + 1 counts come from one transfer-matrix pass of K steps
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "automaton", fixture("i2inf"), "--count", str(MAX_COUNT_LENGTH), "--json")
    assert time.perf_counter() - t0 < 5
    assert code == 0
    assert json.loads(out)["reduced_word_counts"] == [1] + [2] * MAX_COUNT_LENGTH


def test_automaton_count_edge_cap(capsys):
    # case_vi has 273 911 edges: K = 1000 would take over a minute, so it is
    # refused after the build
    t0 = time.perf_counter()
    code, out, err = run(capsys, "automaton", fixture("case_vi"), "--count", "1000")
    assert time.perf_counter() - t0 < 10
    assert code == 2
    assert out == ""
    assert "--count 1000" in err and "273911 edges" in err
    assert str(MAX_COUNT_EDGE_STEPS) in err


def test_automaton_count_under_edge_cap(capsys):
    code, out, _ = run(capsys, "automaton", fixture("fig1_path4_435"), "--count", "1000", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["edges"] * 1000 <= MAX_COUNT_EDGE_STEPS
    counts = payload["reduced_word_counts"]
    assert len(counts) == 1001
    assert counts[:3] == [1, 4, 12]


def test_automaton_export_dot(capsys):
    code, out, _ = run(capsys, "automaton", fixture("i2inf"), "--export", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert out.endswith("}\n")


def test_automaton_export_json_roundtrip(capsys):
    code, out, _ = run(capsys, "automaton", fixture("i2inf"), "--export", "json")
    assert code == 0
    assert out.endswith("}\n")
    payload = json.loads(out)
    assert len(payload["states"]) == 3
    again = ReducedWordAutomaton.from_json(out)
    assert again == build(parse_diagram(Path(fixture("i2inf")).read_text()))


def test_automaton_count_with_export_rejected(capsys):
    # the export fills stdout, so the counts would be computed and dropped
    with pytest.raises(SystemExit) as exc:
        main(["automaton", fixture("a2"), "--count", "3", "--export", "json"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--count" in err and "--export" in err


def test_automaton_cap(capsys):
    code, _, err = run(capsys, "automaton", fixture("a2"), "--cap", "2")
    assert code == 2
    assert "cap" in err


def test_compare(capsys):
    code, out, _ = run(capsys, "compare", fixture("a3"), "e", "s")
    assert code == 0
    assert "word1 < word2" in out


def test_compare_incomparable(capsys):
    code, out, _ = run(capsys, "compare", fixture("a3"), "s", "t")
    assert code == 0
    assert "incomparable" in out


def test_compare_json_agrees_with_human(capsys):
    code, out, _ = run(capsys, "compare", fixture("a3"), "s", "s t", "--json")
    payload = json.loads(out)
    assert payload["leq_forward"] is True
    assert payload["leq_backward"] is False


def test_goodpair_pass(capsys):
    code, out, _ = run(capsys, "goodpair", fixture("case_v"), "uvtut", "utvsut")
    assert code == 0
    assert "good pair: True" in out


def test_goodpair_fail(capsys):
    code, out, _ = run(capsys, "goodpair", fixture("case_v"), "s", "s")
    assert code == 1
    assert "good pair: False" in out
    assert "FAIL" in out


def test_goodpair_past_the_expression_cap(capsys, tmp_path):
    # x = w*u has 9! reduced expressions, above the enumeration cap of 10^5,
    # but (iv) reads one rank of the 2^9-element interval below x
    f = tmp_path / "commuting9.cox"
    f.write_text("a b c d e f g h i\n")
    code, out, err = run(capsys, "goodpair", str(f), "f g h i", "a b c d e")
    assert code == 1
    assert "good pair: False" in out
    assert err == ""


def test_goodpair_long_word_has_no_recursion_limit(capsys):
    # condition (v) walks the interval below w*w, 1200 letters long, one
    # rank at a time
    w = " ".join(["s t"] * 300)
    code, out, err = run(capsys, "goodpair", fixture("universal_rank3"), "u", w)
    assert code in (0, 1)
    assert "good pair: " in out
    assert "Traceback" not in err


def test_antichain_refusal_affine(capsys):
    code, out, _ = run(capsys, "antichain", fixture("affine_a2"))
    assert code == 0
    assert "no infinite antichain" in out


def test_antichain_goodpair(capsys):
    code, out, _ = run(capsys, "antichain", fixture("triangle_334"), "--kmax", "3")
    assert code == 0
    assert "GoodPair" in out


def test_antichain_coset(capsys):
    code, out, _ = run(capsys, "antichain", fixture("universal_rank3"), "--n", "5")
    assert code == 0
    assert "CosetConstruction" in out


def test_antichain_case_vi_automaton_cycle(capsys):
    code, out, _ = run(capsys, "antichain", fixture("case_vi"), "--kmax", "6")
    assert code == 0
    assert "method: AutomatonCycle" in out
    assert "family size: 2" in out


@pytest.mark.parametrize("size", [FAMILY_CAP + 1, 100000])
@pytest.mark.parametrize(
    "argv",
    [
        ("antichain", "triangle_334", "--kmax"),
        ("antichain", "case_vi", "--kmax"),
        ("goodpair", "case_v", "uvtut", "utvsut", "--kmax"),
        ("antichain", "universal_rank3", "--n"),
    ],
    ids=["antichain-kmax", "antichain-case-vi-kmax", "goodpair-kmax", "antichain-n"],
)
def test_antichain_family_cap(capsys, argv, size):
    t0 = time.perf_counter()
    code, _, err = run(capsys, argv[0], fixture(argv[1]), *argv[2:], str(size))
    assert time.perf_counter() - t0 < 5
    assert code == 2
    assert err.startswith("error: ")
    assert f"{size} is above the antichain family cap of {FAMILY_CAP}" in err


def test_antichain_family_at_cap(capsys):
    code, out, _ = run(capsys, "antichain", fixture("universal_rank3"), "--n", str(FAMILY_CAP))
    assert code == 0
    assert f"family size: {FAMILY_CAP}" in out


def test_affine_embed(capsys):
    code, out, _ = run(capsys, "affine-embed", fixture("affine_c2"), "--radius", "3")
    assert code == 0
    assert "order violations: 0" in out


@pytest.mark.parametrize("radius", [20, 60])
def test_affine_embed_ball_cap(capsys, radius):
    # affine A2 has 235 elements of length <= 12, and the pairwise check
    # grows with the square of that
    t0 = time.perf_counter()
    code, out, err = run(capsys, "affine-embed", fixture("affine_a2"), "--radius", str(radius))
    assert time.perf_counter() - t0 < 5
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and f"cap of {EMBEDDING_BALL_CAP}" in err


def test_affine_embed_unsupported(capsys, tmp_path):
    f = tmp_path / "atilde5.cox"
    f.write_text("a b c d e f; a-b b-c c-d d-e e-f f-a\n")
    code, _, err = run(capsys, "affine-embed", str(f), "--radius", "2")
    assert code == 3
    assert "unsupported" in err


def test_verify_paper_subset(capsys):
    code, out, _ = run(
        capsys, "verify-paper", "--only", "automaton.state_counts", "growth"
    )
    assert code == 0
    assert "pass" in out
    assert "0 failed" in out


def test_verify_paper_subset_json(capsys):
    code, out, _ = run(
        capsys, "verify-paper", "--json", "--only", "automaton.state_counts"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0
    assert payload["checks"][0]["check"] == "automaton.state_counts"


def test_verify_paper_bad_filter(capsys):
    code, _, err = run(capsys, "verify-paper", "--only", "nonsense")
    assert code == 2


def test_verify_paper_only_needs_a_prefix(capsys):
    # an empty filter would otherwise match every check and pass
    with pytest.raises(SystemExit) as exc:
        main(["verify-paper", "--only", "--json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--only: expected at least one argument" in captured.err


def test_verify_paper_negative_control(capsys, tmp_path):
    """A corrupted rank-5 fixture must flip the exact facts to FAIL."""
    corrupt = tmp_path / "fixtures"
    corrupt.mkdir()
    for path in FIXTURES.glob("*.cox"):
        shutil.copy(path, corrupt / path.name)
    (corrupt / "case_vi.cox").write_text("s t u v w\ns-t:4 t-u u-v v-w\n")
    code, out, _ = run(
        capsys,
        "verify-paper",
        "--fixtures",
        str(corrupt),
        "--only",
        "case_vi",
    )
    assert code == 1
    assert "FAIL" in out


def test_verify_paper_missing_fixture(capsys, tmp_path):
    """A fixture missing from --fixtures DIR is an input error, not a failed
    fact."""
    shutil.copy(FIXTURES / "a1.cox", tmp_path)
    code, out, err = run(
        capsys, "verify-paper", "--fixtures", str(tmp_path), "--only", "classify.named"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_verify_paper_missing_fixtures_dir(capsys, tmp_path):
    missing = tmp_path / "no_such_dir"
    code, out, err = run(capsys, "verify-paper", "--fixtures", str(missing))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(missing) in err


FIXTURE_TEXTS = {path.name: path.read_text() for path in sorted(FIXTURES.glob("*.cox"))}
MUTATION_TOKENS = ("-", ":", ";", "#", "0", "9", "1", "7", "inf", " ", "\n")


@st.composite
def malformed_fixture(draw):
    """A fixture text with one token inserted, deleted or replaced."""
    text = FIXTURE_TEXTS[draw(st.sampled_from(sorted(FIXTURE_TEXTS)))]
    pos = draw(st.integers(0, len(text)))
    op = draw(st.sampled_from(("insert", "delete", "replace")))
    if op == "delete":
        return text[:pos] + text[pos + 1 :]
    token = draw(st.sampled_from(MUTATION_TOKENS))
    return text[:pos] + token + text[pos + (op == "replace") :]


@settings(derandomize=True, database=None, deadline=timedelta(seconds=5), max_examples=150)
@given(malformed_fixture())
@example(HUGE_PRIME_LABEL)
def test_malformed_files_exit_cleanly(text):
    """Mutated diagram files exit 0, 2 or 3; a nonzero exit prints exactly one
    error: or unsupported: line, and no exception escapes main()."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.cox"
        path.write_text(text)
        for argv in (["classify", str(path)], ["automaton", str(path), "--cap", "500"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2, 3), (argv[0], code, err.getvalue())
            if code:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1, lines
                assert lines[0].startswith(("error: ", "unsupported: ")), lines
