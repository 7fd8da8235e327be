"""Good pairs, case dispatch, the rank-5 certificate, coset antichains."""

import time
import tracemalloc

import pytest

from coxwalk import algebra, antichain, automaton
from coxwalk.diagram import DiagramClass, parse_diagram
from coxwalk.element import (
    CapExceededError,
    CoxeterGroup,
    GroupMismatchError,
    format_word,
    group_for,
    parse_word,
)
from product_reference import column_product, product_length, walked_length


CASE_V = antichain.case_v_diagram()
CASE_VI = antichain.case_vi_diagram()
T334 = parse_diagram("a b c; a-b b-c a-c:4")
UNIVERSAL3 = parse_diagram("a b c; a-b:inf b-c:inf a-c:inf")


def _elements(d, u_text, w_text):
    g = group_for(d)
    return g.element_of(parse_word(d, u_text)), g.element_of(parse_word(d, w_text))


def test_good_pair_case_v():
    nu, omega = _elements(CASE_V, "uvtut", "utvsut")
    report = antichain.check_good_pair(nu, omega)
    assert report.all_hold
    assert report.conditions == {"i": True, "ii": True, "iii": True, "iv": True, "v": True}


def test_good_pair_single_generator_fails():
    s, _ = _elements(CASE_V, "s", "s")
    report = antichain.check_good_pair(s, s)
    assert not report.conditions["ii"]
    assert not report.conditions["iii"]
    assert "ii" in report.witnesses and "iii" in report.witnesses


def test_good_pair_refuses_elements_of_different_groups():
    u = group_for(T334).generator(0)
    w = group_for(CASE_V).generator(0)
    with pytest.raises(GroupMismatchError, match="same group"):
        antichain.check_good_pair(u, w)


def test_split_condition_decides_past_the_expression_cap():
    """x = a b c d e f g h i in nine commuting generators has 9! = 362 880
    reduced expressions, above the enumeration cap, but an interval [e, x]
    of only 2^9 elements: (iv) is decided false with a witness."""
    d = parse_diagram("a b c d e f g h i")
    g = group_for(d)
    u, w = _elements(d, "f g h i", "a b c d e")
    x = g.element_of(parse_word(d, "a b c d e f g h i"))
    with pytest.raises(CapExceededError, match="enumeration"):
        g.reduced_expressions(x)
    report = antichain.check_good_pair(u, w)
    assert not report.conditions["iv"]
    witness = report.witnesses["iv"]
    word = parse_word(d, witness.removeprefix("reduced expression ").partition(" does not")[0])
    assert len(word) == x.length() == 9
    assert g.element_of(word) == x
    assert g.element_of(word[:5]) != w


def test_good_pair_case_iii():
    d = parse_diagram("s t u; s-t:7 t-u")
    u, w = _elements(d, "st", "sutst")
    report = antichain.check_good_pair(u, w)
    assert report.all_hold


def test_good_pair_family_lengths():
    g = group_for(T334)
    u = g.element_of((2,))
    w = g.element_of((1, 2, 0))
    cert = antichain.good_pair_family(u, w, 6)
    assert cert.method == "GoodPair"
    assert cert.facts["lengths"] == [1, 4, 7, 10, 13, 16, 19]
    assert len(cert.checks) == 21
    single = antichain.good_pair_family(u, w, 0)
    assert len(single.family) == 1 and not single.checks


def test_good_pair_family_rejects_bad_pair():
    g = group_for(CASE_V)
    s = g.element_of((0,))
    with pytest.raises(antichain.CertificateError):
        antichain.good_pair_family(s, s, 3)


def test_family_reduced_expressions_split(vctx):
    """Reduced expressions of w^k u concatenate k copies of w-expressions
    and one u-expression, for each dispatched pair."""
    samples = [
        (T334, None),
        (parse_diagram("s t u; s-t:5 t-u:4"), None),
        (parse_diagram("s t u; s-t:7 t-u"), None),
        (CASE_V, None),
    ]
    for d, _ in samples:
        pair = antichain.compact_hyperbolic_pair(d)
        g = group_for(d)
        u = g.element_of(pair.u_word)
        w = g.element_of(pair.w_word)
        lw, lu = w.length(), u.length()
        w_exprs = set(g.reduced_expressions(w))
        u_exprs = set(g.reduced_expressions(u))
        cur = u
        for k in range(0, 4):
            for expr in g.reduced_expressions(cur):
                for copy in range(k):
                    assert tuple(expr[copy * lw : (copy + 1) * lw]) in w_exprs
                assert tuple(expr[k * lw :]) in u_exprs
            cur = w * cur


def test_empty_families_refused():
    """kmax < 0 or count < 1 would certify an empty family."""
    g = group_for(T334)
    u, w = g.element_of((2,)), g.element_of((1, 2, 0))
    calls = [
        lambda: antichain.good_pair_family(u, w, kmax=-1),
        lambda: antichain.certify_antichain(T334, kmax=-3),
        lambda: antichain.certify_antichain(UNIVERSAL3, count=0),
        lambda: antichain.not_locally_finite_antichain(UNIVERSAL3, count=0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="empty family"):
            call()


def test_junction_braid_moves_detects_plants():
    d = parse_diagram("a b; a-b")
    g = group_for(d)
    bad = antichain.junction_braid_moves(g, [(0,)], [(1, 0)])
    assert bad  # a b a admits the braid move across the junction
    ok = antichain.junction_braid_moves(g, [(0,)], [(0,)])
    assert ok  # a a is a nil move across the junction
    none = antichain.junction_braid_moves(g, [(0, 1, 0)], [])
    assert not none


def test_dispatch_case_v():
    pair = antichain.compact_hyperbolic_pair(CASE_V)
    assert pair.case == "V"
    assert format_word(CASE_V, pair.u_word) == "u v t u t"
    assert format_word(CASE_V, pair.w_word) == "u t v s u t"


def test_dispatch_case_iv():
    fork = parse_diagram("s t u v; s-t:5 t-u t-v")
    pair = antichain.compact_hyperbolic_pair(fork)
    assert pair.case == "IV"
    assert pair.u_word == (0, 1, 0)
    assert pair.w_word == (0, 1, 2, 3, 1)


def test_dispatch_case_iii_on_rank4_path():
    d = parse_diagram("a b c d; a-b:7 b-c c-d")
    pair = antichain.compact_hyperbolic_pair(d)
    assert pair.case == "III"
    g = group_for(d)
    report = antichain.check_good_pair(
        g.element_of(pair.u_word), g.element_of(pair.w_word)
    )
    assert report.all_hold


def test_dispatch_case_i_cycles():
    for text in (
        "a b c d; a-b:4 b-c c-d d-a",
        "a b c d; a-b:5 b-c c-d:4 d-a",
        "a b c d e; a-b:4 b-c c-d d-e e-a",
    ):
        d = parse_diagram(text)
        pair = antichain.compact_hyperbolic_pair(d)
        assert pair.case == "I"
        assert len(pair.w_word) == d.rank
        g = group_for(d)
        report = antichain.check_good_pair(
            g.element_of(pair.u_word), g.element_of(pair.w_word)
        )
        assert report.all_hold


def test_dispatch_case_ii_orientation():
    d = parse_diagram("a b c; a-b:4 b-c:6")  # needs the reversed reading
    pair = antichain.compact_hyperbolic_pair(d)
    assert pair.case == "II"
    assert pair.u_word == (2, 1, 2)


def test_dispatch_rejects_case_vi():
    with pytest.raises(antichain.CaseVIDiagramError):
        antichain.compact_hyperbolic_pair(CASE_VI)


def test_dispatch_no_match():
    with pytest.raises(antichain.NoCaseMatchError):
        antichain.compact_hyperbolic_pair(parse_diagram("a b c; a-b b-c a-c"))


def test_case_vi_facts_negative_control():
    corrupted = parse_diagram("s t u v w; s-t:4 t-u u-v v-w")  # label 5 -> 4
    facts = antichain.case_vi_facts(corrupted, kmax=7)
    assert not facts["verdicts"]["fact2_length_65"]
    assert not facts["verdicts"]["fact1_states_equal"]


@pytest.mark.parametrize("label", [5, 4])
def test_case_vi_facts_lengths_match_products(vctx, case_vi_automaton, label):
    """The stepped lengths against column products and normal-form walks,
    on the rank-5 path and on its label-4 corruption, where the law fails."""
    if label == 5:
        d, auto = vctx.fixture("case_vi"), case_vi_automaton
    else:
        d, auto = parse_diagram("s t u v w; s-t:4 t-u u-v v-w"), None
    facts = antichain.case_vi_facts(d, kmax=12, auto=auto)
    s, t, u, v, w = facts["order"]
    group = group_for(d)
    alpha = group.element_of((s, t, u, v, w, s, t, u, v))
    wgen = group.element_of((w,))
    expected = {}
    power = group.identity.cols
    for k in range(1, 14):
        power = column_product(group, power, alpha.cols)
        if k >= 6:
            wpw = column_product(group, column_product(group, wgen.cols, power), wgen.cols)
            expected[k] = walked_length(group, wpw)
    assert facts["values"]["lengths_w_alphak_w"] == expected
    assert facts["values"]["length_w_alpha7_w"] == expected[7]
    assert facts["verdicts"]["lengths_2_plus_9k"] == (label == 5)


def test_case_vi_fact1_from_inversion_sets(vctx, case_vi_automaton):
    """Fact 1 without the automaton's run: the elementary roots Sigma of
    phase 1 meet N((w alpha^6)^-1) and N((w alpha^7)^-1), read by the group
    engine from the reversed words, in the same 20 roots, which are the
    roots of the state that both runs reach."""
    d = vctx.fixture("case_vi")
    s, t, u, v, w = range(5)
    alpha = (s, t, u, v, w, s, t, u, v)
    sigma = set(automaton._root_table(d, algebra.field_for(d))[0])
    g = group_for(d)
    meets = [sigma & g.inversion_set(((w,) + alpha * k)[::-1]) for k in (6, 7)]
    assert meets[0] == meets[1]
    assert len(meets[0]) == 20
    auto = case_vi_automaton
    bits = auto.states[26472]
    assert meets[0] == {r for i, r in enumerate(auto.root_vectors) if bits >> i & 1}


def test_case_vi_facts_on_permuted_generator_names():
    """The path d-b-e-a-c with the 5 on d-b: the facts read the path from
    its 5 end, although c, the end with the smaller index, comes first."""
    d = parse_diagram("a b c d e; d-b:5 b-e e-a a-c")
    facts = antichain.case_vi_facts(d, kmax=7)
    assert facts["order"] == [3, 1, 4, 0, 2]
    assert all(facts["verdicts"].values())
    assert facts["values"]["length_w_alpha7_w"] == 65


def test_case_vi_facts_kmax_below_law_refused():
    with pytest.raises(ValueError, match="kmax"):
        antichain.case_vi_facts(CASE_VI, kmax=5)


def test_case_vi_certificate_validation(vctx, case_vi_automaton):
    with pytest.raises(ValueError):
        antichain.case_vi_certificate(kmax=4)
    with pytest.raises(ValueError):
        antichain.case_vi_certificate(kmax=13)
    with pytest.raises(antichain.CaseVIDiagramError):
        antichain.case_vi_certificate(kmax=6, d=T334)
    cert = antichain.case_vi_certificate(
        kmax=6, d=vctx.fixture("case_vi"), auto=case_vi_automaton
    )
    assert cert.method == "AutomatonCycle"
    assert cert.facts["length_w_alpha7_w"] == 65
    assert cert.facts["lengths"] == [1, 55]


def test_coset_antichain_universal():
    cert = antichain.not_locally_finite_antichain(UNIVERSAL3, count=5)
    assert cert.method == "CosetConstruction"
    words = [format_word(UNIVERSAL3, w) for w in cert.family]
    assert words == ["a c", "b a c", "a b a c", "b a b a c", "a b a b a c"]
    single = antichain.not_locally_finite_antichain(UNIVERSAL3, count=1)
    assert len(single.family) == 1


def test_coset_antichain_embedded_triangle():
    d = parse_diagram("a b c d; a-b:inf b-c:inf a-c:inf c-d")
    cert = antichain.not_locally_finite_antichain(d, count=5)
    assert cert.facts["J"] == ["a", "b"]
    assert len(cert.family) == 5


def test_coset_antichain_rejects_locally_finite():
    with pytest.raises(ValueError):
        antichain.not_locally_finite_antichain(T334, count=3)


@pytest.mark.parametrize(
    "text, J, s, s_prime",
    [
        # E10 = T(2,3,7): J spans its affine E8
        (
            "b a1 c1 c2 d1 d2 d3 d4 d5 d6; "
            "b-a1 b-c1 c1-c2 b-d1 d1-d2 d2-d3 d3-d4 d4-d5 d5-d6",
            ["b", "a1", "c1", "c2", "d1", "d2", "d3", "d4", "d5"],
            "d5",
            "d6",
        ),
        ("a b c d; a-b:7 b-c:7 a-c:7 c-d", ["a", "b", "c"], "c", "d"),
        ("a b c d; a-b:4 b-c:4 a-c:4 c-d", ["a", "b", "c"], "c", "d"),
        ("a b c d e f; a-b b-c c-d d-e a-e a-f", ["a", "b", "c", "d", "e"], "a", "f"),
    ],
    ids=["e10", "triangle777_pendant", "triangle444_pendant", "cycle5_pendant"],
)
def test_coset_construction_on_fast_growing_parabolics(text, J, s, s_prime):
    """W_J grows far faster than W_J/W_K here.  Filtering a ball of W_J
    took about 2 s on the 5-cycle, and on the others passed its cap of 10^6
    elements or ran for over a minute; the walk of min_coset_reps makes the
    representatives only."""
    d = parse_diagram(text)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        cert = antichain.certify_antichain(d)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.method == "CosetConstruction"
    assert len(cert.family) == 20
    assert (cert.facts["J"], cert.facts["s"], cert.facts["s_prime"]) == (J, s, s_prime)
    assert elapsed < 3
    assert peak < 16 * 2**20


def test_transfer_identity():
    g = group_for(T334)
    pair = antichain.compact_hyperbolic_pair(T334)
    cert = antichain.good_pair_family(
        g.element_of(pair.u_word), g.element_of(pair.w_word), 3
    )
    transferred = antichain.transfer_label_increase(cert.family, T334, T334)
    assert transferred.method == "LabelTransfer"
    assert transferred.facts["lengths"] == cert.facts["lengths"]


def test_transfer_rejects_decrease():
    smaller = parse_diagram("a b c; a-b b-c")
    with pytest.raises(ValueError):
        antichain.transfer_label_increase([(0,)], T334, smaller)


def test_certify_antichain_routes():
    cert = antichain.certify_antichain(T334, kmax=4)
    assert cert.method == "GoodPair" and cert.facts["case"] == "I"
    cert = antichain.certify_antichain(UNIVERSAL3, count=6)
    assert cert.method == "CosetConstruction"
    with pytest.raises(antichain.NoInfiniteAntichainError) as err:
        antichain.certify_antichain(parse_diagram("a b c; a-b b-c a-c"))
    assert err.value.classification == DiagramClass.AFFINE
    with pytest.raises(antichain.NoInfiniteAntichainError):
        antichain.certify_antichain(parse_diagram("a b c; a-b b-c"))


def test_certify_antichain_reducible():
    d = parse_diagram("a b c d; a-b:inf b-c:inf a-c:inf")
    cert = antichain.certify_antichain(d, count=4)
    assert cert.method == "CosetConstruction"
    assert cert.facts["component"] == ["a", "b", "c"]
    used = {s for word in cert.family for s in word}
    assert used <= {0, 1, 2}

    finite_pair = parse_diagram("a b c d; a-b c-d")
    with pytest.raises(antichain.NoInfiniteAntichainError):
        antichain.certify_antichain(finite_pair)


def test_dispatcher_covers_figure1(vctx, case_vi_automaton):
    """Every rank>=4 compact hyperbolic diagram yields a verified
    certificate, and dispatched pairs always satisfy all five conditions."""
    from coxwalk.verification import FIGURE1

    for name in FIGURE1:
        d = vctx.fixture(name)
        if name == "case_vi":
            cert = antichain.case_vi_certificate(kmax=6, d=d, auto=case_vi_automaton)
            assert cert.method == "AutomatonCycle"
            continue
        pair = antichain.compact_hyperbolic_pair(d)
        g = group_for(d)
        u, w = g.element_of(pair.u_word), g.element_of(pair.w_word)
        assert antichain.check_good_pair(u, w).all_hold, name
        cert = antichain.good_pair_family(u, w, 3)
        assert len(cert.checks) == 6


def test_dispatcher_covers_hyperbolic_triangles():
    from fractions import Fraction

    seen_cases = set()
    total = 0
    for p in range(2, 8):
        for q in range(p, 8):
            for r in range(q, 8):
                if p == 2 and q == 2:
                    continue
                if Fraction(1, p) + Fraction(1, q) + Fraction(1, r) >= 1:
                    continue
                total += 1
                d = parse_diagram(f"a b c; a-b:{p} b-c:{q} a-c:{r}")
                pair = antichain.compact_hyperbolic_pair(d)
                seen_cases.add(pair.case)
                g = group_for(d)
                u, w = g.element_of(pair.u_word), g.element_of(pair.w_word)
                assert antichain.check_good_pair(u, w).all_hold, (p, q, r)
                antichain.good_pair_family(u, w, 2)
    assert total == 44
    assert seen_cases == {"I", "II", "III"}


def test_good_pair_certificate_fallback(monkeypatch):
    """If a dispatched pair ever failed direct verification, the certificate
    must come from the minimal case diagram plus a label-increase transfer."""
    real = antichain.check_good_pair
    state = {"first": True}

    def flaky(u, w):
        report = real(u, w)
        if state["first"]:
            state["first"] = False
            report.conditions = dict(report.conditions, ii=False)
        return report

    monkeypatch.setattr(antichain, "check_good_pair", flaky)
    cert = antichain.certify_antichain(T334, kmax=2)
    assert cert.method == "LabelTransfer"
    assert cert.facts["case"] == "I"
    assert cert.facts["base_conditions"] == {c: True for c in ("i", "ii", "iii", "iv", "v")}


def test_verified_family_refuses_a_comparable_pair(monkeypatch):
    """If member 1's inversion set contained member 0's, member 0 would lie
    below member 1, and the family check must refuse the certificate."""
    family = antichain.certify_antichain(T334, kmax=2).family
    real = CoxeterGroup.inversion_set

    def patched(self, word):
        roots = real(self, word)
        return roots | real(self, family[0]) if tuple(word) == family[1] else roots

    monkeypatch.setattr(CoxeterGroup, "inversion_set", patched)
    with pytest.raises(antichain.CertificateError, match="members 0 and 1 are comparable"):
        antichain._verified_family("GoodPair", T334, family, {})


def test_base_diagram_construction():
    d = parse_diagram("a b c; a-b:6 b-c:5 a-c:4")
    pair = antichain.compact_hyperbolic_pair(d)
    assert pair.case == "I"
    base = pair.base_diagram(d)
    labels = sorted(m for _, _, m in base.edges())
    assert labels == [3, 3, 4]
    # pointwise below the actual diagram
    for i in range(3):
        for j in range(3):
            assert base.labels[i][j] <= d.labels[i][j]


def test_certificate_payload_shape():
    cert = antichain.certify_antichain(T334, kmax=2)
    payload = cert.to_payload()
    assert set(payload) == {"method", "diagram", "family", "checks", "facts"}
    assert all(
        set(c) == {"pair", "leq_forward", "leq_backward"} for c in payload["checks"]
    )
    assert all(
        c["leq_forward"] is False and c["leq_backward"] is False
        for c in payload["checks"]
    )


def _check_family_independently(cert):
    """Re-check a certificate without weak_leq: every word's ShortLex normal
    form is as long as the word, and no pair satisfies the length formula
    l(v) + l(v^-1 w) = l(w) in either direction."""
    g = group_for(cert.diagram)
    elements = [g.element_of(word) for word in cert.family]
    for word, el in zip(cert.family, elements):
        assert len(el.shortlex_nf()) == len(word), format_word(cert.diagram, word)
    assert cert.facts["lengths"] == [len(word) for word in cert.family]
    for i, v in enumerate(elements):
        for j, w in enumerate(elements):
            if i != j:
                assert v.length() + product_length(v.inverse(), w) != w.length(), (i, j)
    n = len(elements)
    assert len(cert.checks) == n * (n - 1) // 2


def test_families_pass_independent_checker(vctx, case_vi_automaton):
    base = vctx.fixture("triangle_334")
    g = group_for(base)
    pair = antichain.compact_hyperbolic_pair(base)
    good = antichain.good_pair_family(
        g.element_of(pair.u_word), g.element_of(pair.w_word), 4
    )
    transferred = antichain.transfer_label_increase(
        good.family, base, vctx.fixture("triangle_335")
    )
    certs = [
        good,
        antichain.not_locally_finite_antichain(vctx.fixture("universal_rank3"), count=6),
        transferred,
        antichain.case_vi_certificate(
            kmax=6, d=vctx.fixture("case_vi"), auto=case_vi_automaton
        ),
    ]
    methods = [cert.method for cert in certs]
    assert methods == ["GoodPair", "CosetConstruction", "LabelTransfer", "AutomatonCycle"]
    for cert in certs:
        _check_family_independently(cert)
