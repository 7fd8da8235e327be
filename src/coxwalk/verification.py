"""Registry of machine-checkable facts, each tied to an acceptance criterion.

Every check returns a verdict plus the measured values, so the CLI table,
the JSON report and the test suite all share one source of truth.  Checks
are grouped by criterion number; run_checks executes them in order, reusing
one context so expensive artifacts (the rank-5 automaton) are built once.
"""

import random
import time
from dataclasses import dataclass
from importlib import resources

from . import affine as affine_mod
from . import antichain as antichain_mod
from . import automaton as automaton_mod
from . import diagram as diagram_mod
from .diagram import DiagramClass, classify, parse_diagram
from .element import format_word, group_for

FIGURE1 = [
    "fig1_path4_435",
    "fig1_path4_535",
    "fig1_path5_4335",
    "fig1_path5_5335",
    "fig1_cycle4_4333",
    "fig1_cycle4_5333",
    "fig1_cycle4_4343",
    "fig1_cycle4_5343",
    "fig1_cycle4_5353",
    "fig1_cycle5_43333",
    "fig1_fork4",
    "fig1_fork5",
    "case_v",
    "case_vi",
]

ORACLE_SEED = 20250809


@dataclass
class CheckResult:
    check_id: str
    criterion: int
    description: str
    passed: bool
    details: dict
    elapsed: float

    def to_payload(self):
        return {
            "check": self.check_id,
            "criterion": self.criterion,
            "description": self.description,
            "passed": self.passed,
            "elapsed_sec": round(self.elapsed, 3),
            "details": self.details,
        }


class VerificationContext:
    """Shared fixture and automaton cache for one verification run."""

    def __init__(self, fixtures_dir=None):
        self.fixtures_dir = fixtures_dir
        self._diagrams = {}
        self._automata = {}

    def fixture_text(self, name):
        if self.fixtures_dir is not None:
            with open(f"{self.fixtures_dir}/{name}.cox") as fh:
                return fh.read()
        return resources.files(__package__).joinpath(f"fixtures/{name}.cox").read_text()

    def fixture(self, name):
        if name not in self._diagrams:
            self._diagrams[name] = parse_diagram(self.fixture_text(name))
        return self._diagrams[name]

    def automaton_for(self, name):
        if name not in self._automata:
            self._automata[name] = automaton_mod.build(self.fixture(name))
        return self._automata[name]


# ---------------------------------------------------------------------------
# criterion 1: the rank-5 exact facts

def check_case_vi_facts(ctx):
    d = ctx.fixture("case_vi")
    facts = antichain_mod.case_vi_facts(d, kmax=13, auto=ctx.automaton_for("case_vi"))
    details = {"verdicts": facts["verdicts"], "values": facts["values"]}
    return all(facts["verdicts"].values()), details


def check_case_vi_family(ctx):
    d = ctx.fixture("case_vi")
    cert = antichain_mod.case_vi_certificate(
        kmax=18, d=d, auto=ctx.automaton_for("case_vi")
    )
    details = {
        "family": [format_word(d, w) for w in cert.family],
        "family_lengths": cert.facts["lengths"],
        "pairs_checked": len(cert.checks),
    }
    return True, details  # certificate construction raises on any failure


# ---------------------------------------------------------------------------
# criterion 2: the rank-4 path 3-5-3

def check_case_v_counts(ctx):
    d = ctx.fixture("case_v")
    group = group_for(d)
    s, t, u, v = range(4)
    omega = group.element_of((u, t, v, s, u, t))
    nu = group.element_of((u, v, t, u, t))
    omega_exprs = group.reduced_expressions(omega)
    nu_exprs = group.reduced_expressions(nu)
    expected_omega = {
        (u, t, v, s, u, t),
        (u, t, v, u, s, t),
        (u, v, t, u, s, t),
        (u, t, s, v, u, t),
        (u, v, t, s, u, t),
    }
    expected_nu = {(u, v, t, u, t), (u, t, v, u, t)}
    ok = set(omega_exprs) == expected_omega and set(nu_exprs) == expected_nu
    details = {
        "omega_expressions": [format_word(d, e) for e in omega_exprs],
        "nu_expressions": [format_word(d, e) for e in nu_exprs],
    }
    return ok, details


def check_case_v_junction(ctx):
    d = ctx.fixture("case_v")
    group = group_for(d)
    s, t, u, v = range(4)
    omega = group.element_of((u, t, v, s, u, t))
    exprs = group.reduced_expressions(omega)
    bad = antichain_mod.junction_braid_moves(group, exprs, exprs)
    details = {"concatenations": len(exprs) ** 2, "junction_moves": len(bad)}
    return len(exprs) == 5 and not bad, details


def check_case_v_good_pair(ctx):
    d = ctx.fixture("case_v")
    group = group_for(d)
    s, t, u, v = range(4)
    omega = group.element_of((u, t, v, s, u, t))
    nu = group.element_of((u, v, t, u, t))
    report = antichain_mod.check_good_pair(nu, omega)
    return report.all_hold, report.to_payload()


# ---------------------------------------------------------------------------
# criterion 3: cases I-IV on their minimal instantiations

def _case_family_check(ctx, d, expected_case, kmax=6):
    if isinstance(d, str):
        d = ctx.fixture(d)
    pair = antichain_mod.compact_hyperbolic_pair(d)
    group = group_for(d)
    try:
        cert = antichain_mod.good_pair_family(
            group.element_of(pair.u_word), group.element_of(pair.w_word), kmax
        )
    except antichain_mod.NotAGoodPairError as exc:
        cert, report = None, exc.report
    else:
        report = cert.report
    ok = pair.case == expected_case and cert is not None
    details = {
        "case": pair.case,
        "u": format_word(d, pair.u_word),
        "w": format_word(d, pair.w_word),
        "conditions": report.conditions,
    }
    if ok:
        details["family_lengths"] = cert.facts["lengths"]
        details["pairs_checked"] = len(cert.checks)
    return ok, details


def check_case_i_family(ctx):
    return _case_family_check(ctx, "triangle_334", "I")


def check_case_ii_family(ctx):
    return _case_family_check(ctx, parse_diagram("s t u; s-t:5 t-u:4"), "II")


def check_case_iii_family(ctx):
    return _case_family_check(ctx, "triangle_237", "III")


def check_case_iv_family(ctx):
    return _case_family_check(ctx, "fig1_fork4", "IV")


# ---------------------------------------------------------------------------
# criterion 4: classification

def check_classify_figure1(ctx):
    wrong = {}
    for name in FIGURE1:
        cls = classify(ctx.fixture(name))
        if cls != DiagramClass.COMPACT_HYPERBOLIC:
            wrong[name] = cls.value
    return not wrong, {"diagrams": len(FIGURE1), "misclassified": wrong}


def check_classify_triangles(ctx):
    wrong = {}
    total = 0
    for p in range(2, 8):
        for q in range(p, 8):
            for r in range(q, 8):
                if p == 2 and q == 2:
                    continue  # reducible
                total += 1
                d = diagram_mod.from_edges(
                    ("a", "b", "c"), [("a", "b", p), ("b", "c", q), ("a", "c", r)]
                )
                # 1/p + 1/q + 1/r - 1 times pqr > 0, so it has the same sign
                excess = q * r + r * p + p * q - p * q * r
                if excess > 0:
                    expect = DiagramClass.FINITE
                elif excess == 0:
                    expect = DiagramClass.AFFINE
                else:
                    expect = DiagramClass.COMPACT_HYPERBOLIC
                got = classify(d)
                if got != expect:
                    wrong[f"({p},{q},{r})"] = got.value
    return not wrong, {"triangles": total, "misclassified": wrong}


def check_classify_named(ctx):
    expectations = {
        "affine_a2": DiagramClass.AFFINE,
        "affine_c2": DiagramClass.AFFINE,
        "affine_g2": DiagramClass.AFFINE,
        "i2inf": DiagramClass.AFFINE,
        "a1": DiagramClass.FINITE,
        "a2": DiagramClass.FINITE,
        "a3": DiagramClass.FINITE,
        "a4": DiagramClass.FINITE,
        "b3": DiagramClass.FINITE,
        "h3": DiagramClass.FINITE,
    }
    wrong = {}
    for name, expect in expectations.items():
        got = classify(ctx.fixture(name))
        if got != expect:
            wrong[name] = got.value
    return not wrong, {"checked": len(expectations), "misclassified": wrong}


# ---------------------------------------------------------------------------
# criterion 5: automaton acceptance matches the reducedness oracle

def _oracle_exhaustive(d, auto, max_len):
    """Judge every word of length <= max_len: accepted iff reduced.

    Words are counted by class, one length at a time: the words of length
    k that reach the element el and the automaton state q (None once an
    edge is missing) form the class (el, q).  Every word in a class gets
    the same verdict, reduced iff l(el) = k and accepted iff q is not None,
    and its extensions by s all land in the class (el*s, q on s).  So the
    counts judge each word exactly as the full prefix tree would, with one
    generator step per element and letter instead of one per word.  One
    mismatch entry is recorded per word, in length order."""
    group = group_for(d)
    mismatches = []
    checked = 0
    level = {group.identity: {auto.start: 1}}
    for k in range(max_len + 1):
        below = {}
        for el, classes in level.items():
            reduced = el.length() == k
            for state, count in classes.items():
                checked += count
                accepted = state is not None
                if accepted != reduced:
                    mismatches.extend({"length": k, "accepted": accepted} for _ in range(count))
            if k == max_len:
                continue
            for s in range(d.rank):
                row = below.setdefault(el.right_mul_gen(s), {})
                for state, count in classes.items():
                    to = auto.next_state(state, s) if state is not None else None
                    row[to] = row.get(to, 0) + count
        level = below
    return checked, mismatches


def _oracle_random(d, auto, max_len, samples, seed):
    """Judge `samples` seeded random words of length <= max_len: accepted
    iff reduced.

    The words are drawn first and visited in sorted order, so a word's
    prefixes come right after those of the word before it.  One stack
    holds the elements of the current word's reduced prefixes; a word
    steps only past the prefix it shares with the previous one, with
    `right_mul_gen`, whose length is tracked: a step that does not lengthen
    ends a reduced prefix, and every extension of a non-reduced prefix is
    non-reduced without a further step.  So each distinct prefix costs at
    most one generator step.  The verdicts are then compared with the
    automaton in sample order, which keeps the mismatches in draw order."""
    group = group_for(d)
    rng = random.Random(seed)
    words = []
    for _ in range(samples):
        k = rng.randint(0, max_len)
        words.append(tuple(rng.randrange(d.rank) for _ in range(k)))
    reduced = [False] * samples
    path = [group.identity]  # path[i] is the element of the reduced prefix word[:i]
    stop = None  # the length of the shortest non-reduced prefix of prev, if any
    prev = ()
    for i in sorted(range(samples), key=words.__getitem__):
        word = words[i]
        common = 0
        for a, b in zip(prev, word):
            if a != b:
                break
            common += 1
        if stop is not None and stop > common:
            stop = None
        del path[common + 1 :]
        while stop is None and len(path) <= len(word):
            el = path[-1].right_mul_gen(word[len(path) - 1])
            if el.length() != len(path):
                stop = len(path)
            else:
                path.append(el)
        reduced[i] = stop is None
        prev = word
    mismatches = [
        {"word": format_word(d, word)}
        for word, ok in zip(words, reduced)
        if auto.accepts(word) != ok
    ]
    return samples, mismatches


def _oracle_check(ctx, name, exhaustive):
    d = ctx.fixture(name)
    auto = ctx.automaton_for(name)
    if exhaustive:
        checked, mism = _oracle_exhaustive(d, auto, 8)
    else:
        checked, mism = _oracle_random(d, auto, 8, 10000, ORACLE_SEED)
    return not mism, {"diagram": name, "words_checked": checked, "mismatches": mism[:5]}


def check_oracle_i2inf(ctx):
    return _oracle_check(ctx, "i2inf", exhaustive=True)


def check_oracle_affine_a2(ctx):
    return _oracle_check(ctx, "affine_a2", exhaustive=True)


def check_oracle_universal(ctx):
    return _oracle_check(ctx, "universal_rank3", exhaustive=True)


def check_oracle_triangle(ctx):
    return _oracle_check(ctx, "triangle_334", exhaustive=True)


def check_oracle_case_vi(ctx):
    return _oracle_check(ctx, "case_vi", exhaustive=False)


# ---------------------------------------------------------------------------
# criterion 6: frozen state counts

def check_state_counts(ctx):
    got = {
        "i2inf": ctx.automaton_for("i2inf").num_states,
        "universal_rank3": ctx.automaton_for("universal_rank3").num_states,
    }
    expect = {"i2inf": 3, "universal_rank3": 4}
    return got == expect, {"got": got, "expected": expect}


# ---------------------------------------------------------------------------
# criterion 7: affine alcove embedding

def _embedding(ctx, name, radius):
    report = affine_mod.embedding_check(ctx.fixture(name), radius)
    return report.ok, report.to_payload()


def check_embedding_a2(ctx):
    return _embedding(ctx, "affine_a2", 6)


def check_embedding_c2(ctx):
    return _embedding(ctx, "affine_c2", 5)


def check_embedding_a1(ctx):
    return _embedding(ctx, "i2inf", 10)


# ---------------------------------------------------------------------------
# criterion 8: growth counts and same-length incomparability

def check_growth_counts(ctx):
    a2 = group_for(ctx.fixture("affine_a2")).ball(8).counts
    i2 = group_for(ctx.fixture("i2inf")).ball(10).counts
    ok = a2 == [1] + [3 * k for k in range(1, 9)] and i2 == [1] + [2] * 10
    return ok, {"affine_a2_counts": a2, "i2inf_counts": i2}


def check_same_length_incomparable(ctx):
    """Distinct same-length elements are incomparable; checked from the raw
    length formula, not the short-circuit in weak_leq.

    Both directions are evaluated.  l(w^-1 v) comes from the product,
    which steps w^-1 right along v's ShortLex word and tracks the length
    at each step.  v^-1 w is the inverse of w^-1 v, so both directions
    share that length."""
    failures = []
    pairs = 0
    for name in ("affine_a2", "i2inf", "triangle_334"):
        group = group_for(ctx.fixture(name))
        ball = group.ball(5)
        for k in range(len(ball.counts)):
            level = ball.of_length(k)
            for i, v in enumerate(level):
                for w in level[i + 1 :]:
                    pairs += 2
                    lx = (w.inverse() * v).length()
                    if v.length() + lx == w.length() or w.length() + lx == v.length():
                        failures.append({"diagram": name, "v": v.word_str(), "w": w.word_str()})
    return not failures, {"pairs_checked": pairs, "failures": failures[:5]}


# ---------------------------------------------------------------------------
# criterion 9: coset construction yields 20 incomparable elements

def check_coset_universal(ctx):
    d = ctx.fixture("universal_rank3")
    cert = antichain_mod.not_locally_finite_antichain(d, count=20)
    details = {
        "count": len(cert.family),
        "pairs_checked": len(cert.checks),
        "J": cert.facts["J"],
    }
    return len(cert.family) >= 20, details


# ---------------------------------------------------------------------------
# criterion 10: label-increase transfer

def check_label_transfer(ctx):
    base = ctx.fixture("triangle_334")
    pair = antichain_mod.compact_hyperbolic_pair(base)
    group = group_for(base)
    cert = antichain_mod.good_pair_family(
        group.element_of(pair.u_word), group.element_of(pair.w_word), 6
    )
    results = {}
    for target_name in ("triangle_335", "triangle_344"):
        target = ctx.fixture(target_name)
        transferred = antichain_mod.transfer_label_increase(cert.family, base, target)
        results[target_name] = {
            "pairs_checked": len(transferred.checks),
            "lengths": transferred.facts["lengths"],
        }
    return True, results  # transfer raises on any failure


CHECKS = [
    (1, "case_vi.exact_facts", "rank-5 path: l(alpha)=9, equal automaton states, l(w a^7 w)=65, l(w a^k w)=2+9k", check_case_vi_facts),
    (1, "case_vi.family", "rank-5 path: {a^k w, k=0 mod 6, k<=18} pairwise incomparable", check_case_vi_family),
    (2, "case_v.expression_counts", "omega has exactly 5 reduced expressions, nu exactly 2", check_case_v_counts),
    (2, "case_v.junction_braids", "all 25 concatenations admit no braid move across the junction", check_case_v_junction),
    (2, "case_v.good_pair", "(nu, omega) satisfies all five good-pair conditions", check_case_v_good_pair),
    (3, "case_i.family", "rank-3 cycle with a 4: good pair plus incomparable family", check_case_i_family),
    (3, "case_ii.family", "path with end labels 5 and 4: good pair plus incomparable family", check_case_ii_family),
    (3, "case_iii.family", "label 7 with a neighbouring edge: good pair plus incomparable family", check_case_iii_family),
    (3, "case_iv.family", "fork with a 5 handle: good pair plus incomparable family", check_case_iv_family),
    (4, "classify.figure1", "all 14 rank>=4 diagrams classify compact hyperbolic", check_classify_figure1),
    (4, "classify.triangles", "triangles (p,q,r<=7) classify by the sign of 1/p+1/q+1/r-1", check_classify_triangles),
    (4, "classify.named", "named affine and finite diagrams classify correctly", check_classify_named),
    (5, "oracle.i2inf", "automaton accepts iff reduced: infinite dihedral, words <= 8", check_oracle_i2inf),
    (5, "oracle.affine_a2", "automaton accepts iff reduced: affine triangle, words <= 8", check_oracle_affine_a2),
    (5, "oracle.universal_rank3", "automaton accepts iff reduced: universal rank 3, words <= 8", check_oracle_universal),
    (5, "oracle.triangle_334", "automaton accepts iff reduced: (3,3,4) triangle, words <= 8", check_oracle_triangle),
    (5, "oracle.case_vi", "automaton accepts iff reduced: rank-5 path, 10^4 random words", check_oracle_case_vi),
    (6, "automaton.state_counts", "frozen state counts: infinite dihedral 3, universal rank-3 4", check_state_counts),
    (7, "embedding.affine_a2", "alcove embedding matches weak order, radius 6", check_embedding_a2),
    (7, "embedding.affine_c2", "alcove embedding matches weak order, radius 5", check_embedding_c2),
    (7, "embedding.a1", "alcove embedding matches weak order, radius 10", check_embedding_a1),
    (8, "growth.counts", "counts per length: affine triangle 3k, infinite dihedral 2", check_growth_counts),
    (8, "growth.same_length_incomparable", "distinct same-length elements incomparable, radius 5", check_same_length_incomparable),
    (9, "coset.universal_rank3", "coset construction yields 20 pairwise-incomparable elements", check_coset_universal),
    (10, "transfer.case_i", "(3,3,4) family stays an antichain in (3,3,5) and (3,4,4)", check_label_transfer),
]

CRITERIA = sorted({c for c, _, _, _ in CHECKS})


def run_checks(only=None, fixtures_dir=None, ctx=None):
    """Run all (or a filtered subset of) registered checks."""
    if ctx is None:
        ctx = VerificationContext(fixtures_dir)
    results = []
    for criterion, check_id, description, fn in CHECKS:
        if only and not any(check_id.startswith(p) or str(criterion) == p for p in only):
            continue
        start = time.perf_counter()
        try:
            passed, details = fn(ctx)
        except OSError:
            # an unreadable fixture is an input error, not a failed fact
            raise
        except Exception as exc:  # a raising check is a failing check
            passed = False
            details = {"error": f"{type(exc).__name__}: {exc}"}
        results.append(
            CheckResult(
                check_id=check_id,
                criterion=criterion,
                description=description,
                passed=passed,
                details=details,
                elapsed=time.perf_counter() - start,
            )
        )
    return results
