"""Signed-magnitude order, root data, alcove walks, the embedding check."""

import json
import math
from pathlib import Path

import pytest

from coxwalk import affine, cli
from coxwalk.diagram import parse_diagram
from coxwalk.element import CoxeterGroup, MixedSignRootError, group_for


def test_z_leq():
    for k in range(-5, 6):
        assert affine.z_leq(0, k)
    assert affine.z_leq(1, 2) and not affine.z_leq(2, 1)
    assert affine.z_leq(-1, -3) and not affine.z_leq(-3, -1)
    assert not affine.z_leq(1, -2) and not affine.z_leq(-2, 1)
    assert affine.z_leq(3, 3)
    assert not affine.z_leq(1, 0)


def test_root_data_counts():
    for label, count in affine.EXPECTED_POSITIVE_COUNTS.items():
        datum = affine.root_datum(label)
        assert len(datum.positive_roots) == count
        # the highest root dominates componentwise in the simple basis
        for coords in datum.positive_roots:
            assert all(h >= c for h, c in zip(datum.highest_root, coords))


def test_affine_labels_match_known_diagrams():
    g2 = affine.root_datum("G2").affine_labels
    finite = sorted(
        m for row in g2 for m in row if m != 1 and not math.isinf(m)
    )
    assert max(finite) == 6
    a1 = affine.root_datum("A1").affine_labels
    assert math.isinf(a1[0][1])


@pytest.mark.parametrize(
    "text,label",
    [
        ("a b c; a-b b-c a-c", "A2"),
        ("a b c d; a-b b-c c-d d-a", "A3"),
        ("a b c d e; a-b b-c c-d d-e e-a", "A4"),
        ("a b c; a-b:4 b-c:4", "C2"),
        ("a b c; a-b:6 b-c", "G2"),
        ("a b c d; a-c b-c c-d:4", "B3"),
        ("a b; a-b:inf", "A1"),
    ],
)
def test_recognize_affine(text, label):
    d = parse_diagram(text)
    datum, mapping = affine.recognize_affine(d)
    assert datum.label == label
    target = datum.affine_labels
    for i in range(d.rank):
        for j in range(d.rank):
            if i != j:
                assert d.labels[i][j] == target[mapping[i]][mapping[j]]


def test_recognize_rejects_non_affine():
    with pytest.raises(ValueError):
        affine.recognize_affine(parse_diagram("a b c; a-b b-c"))


def test_recognize_unsupported_affine():
    atilde5 = parse_diagram("a b c d e f; a-b b-c c-d d-e e-f f-a")
    with pytest.raises(affine.UnsupportedAffineTypeError):
        affine.recognize_affine(atilde5)
    dtilde4 = parse_diagram("a b c d e; a-c b-c c-d c-e")
    with pytest.raises(affine.UnsupportedAffineTypeError):
        affine.recognize_affine(dtilde4)


def test_alcove_coords_identity_and_generators():
    datum = affine.root_datum("A2")
    assert affine.alcove_coords(datum, ()) == (0, 0, 0)
    v1 = affine.alcove_coords(datum, (0,))
    assert v1[datum.positive_roots.index(datum.simple_roots[0])] == -1
    assert sum(abs(x) for x in v1) == 1
    v0 = affine.alcove_coords(datum, (2,))
    assert v0[datum.positive_roots.index(datum.highest_root)] == 1
    assert sum(abs(x) for x in v0) == 1


def test_alcove_coords_letter_out_of_range():
    """Letters are 0..rank, slot rank being s_0: -1 must not read as the
    last simple reflection."""
    datum = affine.root_datum("A2")
    for s in (-1, datum.rank + 1):
        for word in [(s,), (0, s)]:
            with pytest.raises(IndexError, match=f"generator index {s} out of range"):
                affine.alcove_coords(datum, word)


# Root order, affine labels and the alcove vectors of 40 seeded words per
# type (lengths 0-30, no letter twice in a row), computed independently by
# reflecting a rational point inside the fundamental alcove in ambient
# Euclidean coordinates and flooring its pairings with the positive roots.
PINNED = json.loads((Path(__file__).parent / "data" / "alcove_vectors.json").read_text())


@pytest.mark.parametrize("label", affine.SUPPORTED_TYPES)
def test_alcove_vectors_pinned(label):
    datum = affine.root_datum(label)
    pinned = PINNED[label]
    assert [list(r) for r in datum.positive_roots] == pinned["positive_roots"]
    labels = [[None if math.isinf(m) else m for m in row] for row in datum.affine_labels]
    assert labels == pinned["affine_labels"]
    assert len(pinned["walks"]) == 40
    for word, vector in pinned["walks"]:
        assert list(affine.alcove_coords(datum, tuple(map(int, word)))) == vector, word


@pytest.mark.parametrize("text", ["a b c; a-b b-c a-c", "a b c; a-b:4 b-c:4"])
def test_one_step_crosses_one_wall(text):
    d = parse_diagram(text)
    datum, mapping = affine.recognize_affine(d)
    group = group_for(d)
    for el in group.ball(4):
        word = tuple(mapping[s] for s in el.shortlex_nf())
        vec = affine.alcove_coords(datum, word)
        for s in range(d.rank):
            nxt = affine.alcove_coords(datum, word + (mapping[s],))
            diffs = [(i, b - a) for i, (a, b) in enumerate(zip(vec, nxt)) if a != b]
            assert len(diffs) == 1
            assert abs(diffs[0][1]) == 1


def test_length_equals_sum_of_coordinates():
    d = parse_diagram("a b c; a-b b-c a-c")
    datum, mapping = affine.recognize_affine(d)
    group = group_for(d)
    for el in group.ball(5):
        word = tuple(mapping[s] for s in el.shortlex_nf())
        vec = affine.alcove_coords(datum, word)
        assert sum(abs(x) for x in vec) == el.length()


def test_phi_leq():
    datum = affine.root_datum("A2")
    zero = affine.alcove_coords(datum, ())
    one = affine.alcove_coords(datum, (0,))
    assert affine.phi_leq(zero, one)
    assert not affine.phi_leq(one, zero)
    other = affine.alcove_coords(datum, (1,))
    assert not affine.phi_leq(one, other) and not affine.phi_leq(other, one)
    c2 = affine.root_datum("C2")
    with pytest.raises(ValueError):
        affine.phi_leq(zero, affine.alcove_coords(c2, ()))


def test_phi_antisymmetric_on_ball():
    d = parse_diagram("a b c; a-b b-c a-c")
    datum, mapping = affine.recognize_affine(d)
    group = group_for(d)
    vectors = [
        affine.alcove_coords(datum, tuple(mapping[s] for s in el.shortlex_nf()))
        for el in group.ball(4)
    ]
    for a in vectors:
        for b in vectors:
            if affine.phi_leq(a, b) and affine.phi_leq(b, a):
                assert a == b


def test_embedding_check_small():
    report = affine.embedding_check(parse_diagram("a b c; a-b b-c a-c"), 3)
    assert report.ok
    assert report.type_label == "A2"
    assert report.pairs_checked == report.elements**2
    payload = report.to_payload()
    assert payload["violations"] == []
    assert payload["length_mismatches"] == []


def test_embedding_check_b3(vctx):
    report = affine.embedding_check(vctx.fixture("affine_b3"), 3)
    assert report.ok and report.type_label == "B3"


@pytest.mark.parametrize(
    "text,label,radius",
    [
        ("a b c d; a-b b-c c-d d-a", "A3", 3),
        ("a b c d e; a-b b-c c-d d-e e-a", "A4", 2),
        ("a b c; a-b:6 b-c", "G2", 4),
    ],
)
def test_embedding_check_other_types(text, label, radius):
    report = affine.embedding_check(parse_diagram(text), radius)
    assert report.ok and report.type_label == label


def _corrupt_inversion_set(monkeypatch, target, corrupt):
    """Replace N(w) by corrupt(N(w)) for the one ShortLex word target."""
    real = CoxeterGroup.inversion_set

    def patched(self, word):
        roots = real(self, word)
        return corrupt(roots) if tuple(word) == target else roots

    monkeypatch.setattr(CoxeterGroup, "inversion_set", patched)


def test_embedding_check_sees_a_dropped_root(monkeypatch, capsys):
    """With alpha_a missing from N(a), a compares below the identity and
    every element not above a: the check and affine-embed must say so."""
    _corrupt_inversion_set(monkeypatch, (0,), lambda roots: frozenset())
    report = affine.embedding_check(parse_diagram("a b c; a-b b-c a-c"), 3)
    assert report.violations and not report.ok
    assert not report.length_mismatches
    assert all("a" in (v["v"], v["w"]) for v in report.violations)
    assert {"v": "a", "w": "e", "weak_leq": True, "phi_leq": False} in report.violations

    fixture = Path(affine.__file__).parent / "fixtures" / "affine_c2.cox"
    code = cli.main(["affine-embed", str(fixture), "--radius", "3", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_FACT_FAILURE
    assert payload["report"]["violations"]


def test_embedding_check_refuses_a_non_reduced_normal_form(monkeypatch):
    _corrupt_inversion_set(monkeypatch, (0, 1), lambda roots: None)
    with pytest.raises(MixedSignRootError, match="not reduced"):
        affine.embedding_check(parse_diagram("a b c; a-b b-c a-c"), 2)
