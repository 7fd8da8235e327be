"""Infinite-antichain certificates for the weak order.

Three constructions are certified mechanically:

* good pairs (u, w): five conditions that force {w^k u} to be an infinite
  antichain, each decided exactly; the two splitting conditions read one
  rank of a weak-order interval instead of listing reduced expressions;
* the rank-5 path diagram with leading label 5, where the family
  {alpha^k w : k = 0 mod 6} rests on two exact computer facts about the
  reduced-word automaton and lengths;
* the coset construction for irreducible, not locally finite groups.

A label-increase transfer re-verifies an antichain family inside a diagram
whose labels dominate the original pointwise.  Every family prefix, whatever
its construction, passes the same direct check (_verified_family): each word
is reduced and every pair is incomparable both ways.
"""

import itertools
from dataclasses import dataclass, field as dataclass_field, replace

from . import automaton as automaton_mod
from . import diagram as diagram_mod
from .diagram import DiagramClass, classify, components, isomorphism, subdiagram
from .element import DEFAULT_WORDS_CAP, CapExceededError, GroupMismatchError, _braid_run, format_word, group_for

__all__ = [
    "FAMILY_CAP",
    "GoodPairReport",
    "AntichainCertificate",
    "CasePair",
    "CertificateError",
    "CaseVIDiagramError",
    "NoCaseMatchError",
    "NotAGoodPairError",
    "NoInfiniteAntichainError",
    "check_good_pair",
    "good_pair_family",
    "compact_hyperbolic_pair",
    "case_vi_diagram",
    "case_vi_facts",
    "case_vi_certificate",
    "not_locally_finite_antichain",
    "transfer_label_increase",
    "certify_antichain",
    "junction_braid_moves",
]


# Largest `kmax` and `count` a family construction accepts.  A good-pair
# family has kmax + 1 members, the rank-5 family kmax/6 + 1 and a coset family
# count; the built-in uses go up to kmax = 18 and count = 20.  At the cap the
# slowest fixture family (fig1_path5_4335, members up to length 259) takes
# about 8 s on a 2-vCPU VM, and the work grows with the cube of the size.
FAMILY_CAP = 32


def _check_family_cap(name, value):
    # kmax = 0 and count = 1 give one member; below them the family is empty
    if value < (1 if name == "count" else 0):
        raise ValueError(f"{name} {value} would give an empty family")
    if value > FAMILY_CAP:
        raise CapExceededError(
            f"{name} {value} is above the antichain family cap of {FAMILY_CAP}",
            cap=FAMILY_CAP,
        )


class CertificateError(RuntimeError):
    """A direct verification failed where the theory guarantees success."""


class CaseVIDiagramError(ValueError):
    """The dispatcher was handed the rank-5 diagram that needs the
    automaton-cycle certificate instead of a good pair."""


class NoCaseMatchError(ValueError):
    """No case pattern matches the diagram; reported, never silent."""


class NotAGoodPairError(CertificateError):
    """A good-pair condition fails; `report` holds the witnesses."""

    def __init__(self, report):
        failed = [c for c, ok in report.conditions.items() if not ok]
        super().__init__(f"not a good pair: conditions {failed} fail")
        self.report = report


class NoInfiniteAntichainError(ValueError):
    """The group provably has no infinite antichain (finite or affine)."""

    def __init__(self, message, classification):
        super().__init__(message)
        self.classification = classification


@dataclass
class GoodPairReport:
    diagram: object
    u_word: tuple
    w_word: tuple
    conditions: dict
    witnesses: dict

    @property
    def all_hold(self):
        return all(self.conditions.values())

    def to_payload(self):
        return {
            "u": format_word(self.diagram, self.u_word),
            "w": format_word(self.diagram, self.w_word),
            "conditions": dict(self.conditions),
            "witnesses": dict(self.witnesses),
            "good_pair": self.all_hold,
        }


@dataclass
class AntichainCertificate:
    method: str  # GoodPair | CosetConstruction | AutomatonCycle | LabelTransfer
    diagram: object
    family: tuple
    checks: list
    facts: dict = dataclass_field(default_factory=dict)
    report: object = None  # the GoodPairReport behind a GoodPair family

    def to_payload(self):
        return {
            "method": self.method,
            "diagram": self.diagram.to_text().strip(),
            "family": [format_word(self.diagram, w) for w in self.family],
            "checks": self.checks,
            "facts": self.facts,
        }


def _verified_family(method, d, words, facts):
    """The certificate for a family prefix, checked directly in W(d).

    Every word must be reduced and every pair incomparable in both
    directions; any failure raises, because each construction guarantees
    both.  A word is reduced when it has a left inversion set, and v <= w
    in the right weak order iff N(v) is a subset of N(w), so each pair
    costs two set inclusions.  `facts` gains the member lengths.
    """
    group = group_for(d)
    sets = []
    for word in words:
        inversions = group.inversion_set(word)
        if inversions is None:
            raise CertificateError(f"{method} word {format_word(d, word)} is not reduced")
        sets.append(inversions)
    checks = []
    for i, j in itertools.combinations(range(len(sets)), 2):
        fwd = sets[i] <= sets[j]
        bwd = sets[j] <= sets[i]
        if fwd or bwd:
            raise CertificateError(
                f"{method} members {i} and {j} are comparable "
                f"(forward={fwd}, backward={bwd})"
            )
        checks.append({"pair": [i, j], "leq_forward": False, "leq_backward": False})
    return AntichainCertificate(
        method=method,
        diagram=d,
        family=tuple(tuple(w) for w in words),
        checks=checks,
        facts={**facts, "lengths": [len(w) for w in words]},
    )


# ---------------------------------------------------------------------------
# good pairs

def check_good_pair(u, w):
    """Evaluate the five good-pair conditions with witnesses.

    (i) length comparison, (ii) u not below w, (iii) support size of w,
    (iv) every reduced expression of w*u splits at position l(w) into a
    reduced expression of w followed by one of u, (v) every reduced
    expression of w*w splits into two reduced expressions of w.  (iv) and
    (v) are decided on the weak-order interval below the product (see
    _split_condition), so no reduced expression is listed and no
    expression cap applies.
    """
    if u.group is not w.group:
        raise GroupMismatchError("u and w must live in the same group")
    group = u.group
    d = group.diagram
    conditions = {}
    witnesses = {}

    lu, lw = u.length(), w.length()
    conditions["i"] = lu <= lw
    if not conditions["i"]:
        witnesses["i"] = f"l(u) = {lu} > l(w) = {lw}"

    below = group.weak_leq(u, w)
    conditions["ii"] = not below
    if below:
        witnesses["ii"] = (
            f"u <= w: w = u * ({format_word(d, (u.inverse() * w).shortlex_nf())})"
        )

    supp = w.support()
    conditions["iii"] = len(supp) >= 3
    if not conditions["iii"]:
        witnesses["iii"] = f"S(w) = {{{', '.join(d.names[s] for s in sorted(supp))}}}"

    conditions["iv"], wit = _split_condition(group, w, u)
    if wit:
        witnesses["iv"] = wit
    conditions["v"], wit = _split_condition(group, w, w)
    if wit:
        witnesses["v"] = wit

    return GoodPairReport(
        diagram=d,
        u_word=tuple(u.shortlex_nf()),
        w_word=tuple(w.shortlex_nf()),
        conditions=conditions,
        witnesses=witnesses,
    )


def _split_condition(group, w, tail):
    """Does every reduced expression of x = w*tail split at l(w) into reduced
    expressions of w and of tail?

    The reduced expressions of x are the maximal chains of [e, x] in the
    right weak order (Bjorner-Brenti, GTM 231, Sec. 3.1), so the split holds
    iff the lengths add and w is the only element of length l(w) below x.
    The ranks come from one walk down x's right descents.  A failure's
    witness runs through another v of that rank: v's ShortLex word, then
    that of v^-1 x.
    """
    d = group.diagram
    lw, lt = w.length(), tail.length()
    x = group.element_of(w.shortlex_nf() + tail.shortlex_nf())
    if x.length() != lw + lt:
        return False, f"l(w*tail) = {x.length()} < {lw} + {lt}"
    rank = list(group._descent_levels(x, DEFAULT_WORDS_CAP))[lw]
    v = next((v for v in rank if v != w), None)
    if v is not None:
        expr = v.shortlex_nf() + (v.inverse() * x).shortlex_nf()
        return False, (
            f"reduced expression {format_word(d, expr)} does not start "
            f"with a reduced expression of {format_word(d, w.shortlex_nf())}"
        )
    return True, None


def good_pair_family(u, w, kmax):
    """The antichain prefix {w^k u : 0 <= k <= kmax}, verified directly.

    The five conditions are evaluated once: a failure raises
    NotAGoodPairError with the report, a success keeps it as `report`.
    """
    _check_family_cap("kmax", kmax)
    report = check_good_pair(u, w)
    if not report.all_hold:
        raise NotAGoodPairError(report)
    d = report.diagram
    words = [report.w_word * k + report.u_word for k in range(kmax + 1)]
    facts = {
        "u": format_word(d, report.u_word),
        "w": format_word(d, report.w_word),
        "kmax": kmax,
        "conditions": dict(report.conditions),
    }
    cert = _verified_family("GoodPair", d, words, facts)
    cert.report = report
    return cert


def junction_braid_moves(group, exprs_a, exprs_b):
    """Concatenations of expression pairs that admit a braid move across the
    junction; empty means every concatenation keeps its halves intact."""
    d = group.diagram
    bad = []
    for ra in exprs_a:
        for rb in exprs_b:
            word = tuple(ra) + tuple(rb)
            cut = len(ra)
            for p in range(len(word) - 1):
                s, t = word[p], word[p + 1]
                if s == t:
                    bad.append((ra, rb, p, "nil"))
                    continue
                m = _braid_run(d.labels, word, p)
                if m and p < cut < p + m:
                    bad.append((ra, rb, p, f"braid m={m}"))
    return bad


# ---------------------------------------------------------------------------
# case dispatch for compact hyperbolic diagrams

@dataclass(frozen=True)
class CasePair:
    case: str
    u_word: tuple
    w_word: tuple
    base_labels: tuple  # (i, j, m) triples of the minimal case diagram

    def base_diagram(self, d):
        """The matched case shape with minimal labels; everything else commutes."""
        n = d.rank
        labels = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
        for i, j, m in self.base_labels:
            labels[i][j] = labels[j][i] = m
        return diagram_mod.CoxeterDiagram(d.names, labels)


def case_vi_diagram():
    return diagram_mod.path_diagram([5, 3, 3, 3])


def case_v_diagram():
    return diagram_mod.path_diagram([3, 5, 3])


def _as_path(d):
    """Vertex order of a path through all generators, or None.

    Deterministic: starts at the smaller-indexed endpoint.
    """
    n = d.rank
    if n < 2 or len(d.edges()) != n - 1:
        return None
    deg = [len(d.neighbors(i)) for i in range(n)]
    ends = [i for i in range(n) if deg[i] == 1]
    if len(ends) != 2 or any(deg[i] != 2 for i in range(n) if i not in ends):
        return None
    order = [min(ends)]
    prev = None
    while len(order) < n:
        nxt = [j for j in d.neighbors(order[-1]) if j != prev]
        if len(nxt) != 1:
            return None
        prev = order[-1]
        order.append(nxt[0])
    return order


def _as_cycle(d):
    """Vertex order of a cycle through all generators, or None."""
    n = d.rank
    if n < 3 or len(d.edges()) != n:
        return None
    if any(len(d.neighbors(i)) != 2 for i in range(n)):
        return None
    order = [0]
    prev = None
    while len(order) < n:
        nxt = [j for j in d.neighbors(order[-1]) if j != prev]
        if not nxt:
            return None
        prev = order[-1]
        order.append(min(nxt) if len(order) == 1 else nxt[0])
    if order[0] not in d.neighbors(order[-1]):
        return None
    return order


def _as_fork(d):
    """(handle_order, prong_lo, prong_hi) for a fork diagram, or None.

    handle_order runs from the far end of the handle to the branch vertex;
    the two prongs hang off the branch vertex.
    """
    n = d.rank
    if n < 4 or len(d.edges()) != n - 1:
        return None
    deg = [len(d.neighbors(i)) for i in range(n)]
    branch = [i for i in range(n) if deg[i] == 3]
    if len(branch) != 1 or any(deg[i] > 3 for i in range(n)):
        return None
    f = branch[0]
    leaves = [i for i in d.neighbors(f) if deg[i] == 1]
    if n == 4:
        if len(leaves) != 3:
            return None
        # the handle end carries the heavy edge
        handle_end = max(leaves, key=lambda i: (d.labels[f][i], -i))
        prongs = sorted(x for x in leaves if x != handle_end)
        return [handle_end, f], prongs[0], prongs[1]
    if len(leaves) != 2:
        return None
    prongs = sorted(leaves)
    start = [j for j in d.neighbors(f) if j not in leaves]
    if len(start) != 1:
        return None
    order = [f, start[0]]
    while True:
        nxt = [j for j in d.neighbors(order[-1]) if j != order[-2]]
        if not nxt:
            break
        if len(nxt) != 1:
            return None
        order.append(nxt[0])
    if len(order) != n - 2:
        return None
    return list(reversed(order)), prongs[0], prongs[1]


def compact_hyperbolic_pair(d):
    """Dispatch a diagram to one of the five good-pair constructions.

    Matching allows labels above each case's minimum; the pair is always
    re-verified in the actual group by the caller.  The rank-5 path with
    labels (5, 3, 3, 3) is rejected here: its antichain needs the
    automaton-cycle certificate.
    """
    if len(components(d)) != 1:
        raise diagram_mod.ReducibleDiagramError("case dispatch needs an irreducible diagram")
    if isomorphism(d, case_vi_diagram()) is not None:
        raise CaseVIDiagramError(
            "rank-5 path with labels (5,3,3,3): use the automaton-cycle certificate"
        )

    # Case V: the exact rank-4 path 3-5-3
    if isomorphism(d, case_v_diagram()) is not None:
        s, t, u, v = _as_path(d)
        return CasePair(
            case="V",
            u_word=(u, v, t, u, t),
            w_word=(u, t, v, s, u, t),
            base_labels=((s, t, 3), (t, u, 5), (u, v, 3)),
        )

    # Case IV: fork with a heavy handle edge
    fork = _as_fork(d)
    if fork is not None:
        handle, p1, p2 = fork
        if d.labels[handle[0]][handle[1]] >= 5:
            order = handle + [p1, p2]
            n = len(order)
            w_word = tuple(order) + tuple(reversed(order[1 : n - 2]))
            base = [(order[0], order[1], 5)]
            for a, b in zip(handle[1:], handle[2:]):
                base.append((a, b, 3))
            base.append((handle[-1], p1, 3))
            base.append((handle[-1], p2, 3))
            return CasePair(
                case="IV",
                u_word=(order[0], order[1], order[0]),
                w_word=w_word,
                base_labels=tuple(base),
            )

    # Case III: a label >= 7 with a neighbouring edge
    for i, j, m in sorted(d.edges()):
        if m < 7:
            continue
        for s, t in ((i, j), (j, i)):
            for u in sorted(d.neighbors(t)):
                if u == s:
                    continue
                return CasePair(
                    case="III",
                    u_word=(s, t),
                    w_word=(s, u, t, s, t),
                    base_labels=((s, t, 7), (t, u, 3)),
                )

    # Case I: a cycle through all generators with a label >= 4
    cyc = _as_cycle(d)
    if cyc is not None:
        heavy = sorted(
            (min(a, b), max(a, b))
            for a, b, m in d.edges()
            if m >= 4
        )
        if heavy:
            x, y = heavy[0]
            # orient the cycle s1 .. sn with (s1, sn) the heavy edge
            pos = cyc.index(x)
            cyc = cyc[pos:] + cyc[:pos]
            if cyc[1] == y:
                cyc = [cyc[0]] + list(reversed(cyc[1:]))
            order = cyc
            base = [(order[0], order[-1], 4)]
            for a, b in zip(order, order[1:]):
                base.append((a, b, 3))
            return CasePair(
                case="I",
                u_word=(order[-1],),
                w_word=tuple(order[1:]) + (order[0],),
                base_labels=tuple(base),
            )

    # Case II: a path with end labels >= 5 and >= 4
    p = _as_path(d)
    if p is not None:
        for order in (p, list(reversed(p))):
            first = d.labels[order[0]][order[1]]
            last = d.labels[order[-2]][order[-1]]
            if first >= 5 and last >= 4:
                base = [(order[0], order[1], 5), (order[-2], order[-1], 4)]
                for a, b in zip(order[1:-2], order[2:-1]):
                    base.append((a, b, 3))
                w_word = tuple(order) + tuple(reversed(order[1:-1]))
                return CasePair(
                    case="II",
                    u_word=(order[0], order[1], order[0]),
                    w_word=w_word,
                    base_labels=tuple(base),
                )

    raise NoCaseMatchError(f"no good-pair case matches {d!r}")


# ---------------------------------------------------------------------------
# the rank-5 automaton-cycle certificate

def case_vi_facts(d, kmax=13, auto=None):
    """Run the exact facts behind the rank-5 family on any rank-5 path.

    Returns verdicts and measured values; no shape gate, so a corrupted
    diagram shows up as failed facts rather than a refusal.  The lengths
    l(w alpha^k w) for k = 6 .. kmax + 1 come from one running element
    w alpha^k, extended by the 9 letters of alpha per k, plus one step for
    the trailing w: each generator step reads the sign of one root image,
    so no power, product or normal-form walk is made.
    """
    if kmax < 6:
        raise ValueError("kmax must be >= 6: the length law starts at k = 6")
    result = {"verdicts": {}, "values": {}}
    # read the path from its end with the larger label, so the 5 of the
    # 5-3-3-3 path comes first
    order = _as_path(d)
    if order is not None and d.labels[order[0]][order[1]] < d.labels[order[-2]][order[-1]]:
        order.reverse()
    if order is None or len(order) != 5:
        result["verdicts"] = {
            "alpha_length": False,
            "fact1_states_equal": False,
            "fact2_length_65": False,
            "lengths_2_plus_9k": False,
        }
        result["values"]["error"] = "diagram is not a rank-5 path"
        return result

    s, t, u, v, w = order
    alpha_word = (s, t, u, v, w, s, t, u, v)
    group = group_for(d)
    alpha = group.element_of(alpha_word)

    la = alpha.length()
    result["values"]["alpha_length"] = la
    result["verdicts"]["alpha_length"] = la == 9

    if auto is None:
        auto = automaton_mod.build(d)
    state6 = auto.run((w,) + alpha_word * 6)
    state7 = auto.run((w,) + alpha_word * 7)
    result["values"]["state_w_alpha6"] = state6
    result["values"]["state_w_alpha7"] = state7
    result["verdicts"]["fact1_states_equal"] = (
        state6 is not None and state7 is not None and state6 == state7
    )

    # cur runs through w alpha^k, nine generator steps per k, and one more
    # step gives w alpha^k w; every step tracks the length exactly
    cur = group.element_of((w,))
    lengths = {}
    for k in range(1, kmax + 2):
        for x in alpha_word:
            cur = cur.right_mul_gen(x)
        if k >= 6:
            lengths[k] = cur.right_mul_gen(w).length()

    l7 = lengths[7]
    result["values"]["length_w_alpha7_w"] = l7
    result["verdicts"]["fact2_length_65"] = l7 == 65

    ok = all(lk == 2 + 9 * k for k, lk in lengths.items())
    result["values"]["lengths_w_alphak_w"] = lengths
    result["verdicts"]["lengths_2_plus_9k"] = ok
    result["order"] = order
    return result


def case_vi_certificate(kmax=18, d=None, auto=None):
    """Certificate for {alpha^k w : k = 0 mod 6}: verify both computer facts,
    the length law l(w alpha^k w) = 2 + 9k for k >= 6, and direct pairwise
    incomparability of the family up to kmax."""
    if kmax < 6 or kmax % 6:
        raise ValueError("kmax must be a positive multiple of 6")
    _check_family_cap("kmax", kmax)
    canonical = case_vi_diagram()
    if d is None:
        d = canonical
    elif isomorphism(d, canonical) is None:
        raise CaseVIDiagramError("diagram is not the rank-5 path with labels (5,3,3,3)")
    facts = case_vi_facts(d, kmax=max(kmax, 13), auto=auto)
    failed = [name for name, ok in facts["verdicts"].items() if not ok]
    if failed:
        raise CertificateError(f"exact facts failed: {failed}")

    s, t, u, v, w = facts["order"]
    alpha_word = (s, t, u, v, w, s, t, u, v)
    values = facts["values"]
    return _verified_family(
        "AutomatonCycle",
        d,
        [alpha_word * k + (w,) for k in range(0, kmax + 1, 6)],
        {
            "alpha": format_word(d, alpha_word),
            "alpha_length": values["alpha_length"],
            "state_w_alpha6": values["state_w_alpha6"],
            "state_w_alpha7": values["state_w_alpha7"],
            "length_w_alpha7_w": values["length_w_alpha7_w"],
            "lengths_w_alphak_w": values["lengths_w_alphak_w"],
            "kmax": kmax,
        },
    )


# ---------------------------------------------------------------------------
# coset construction for irreducible, not locally finite groups

def not_locally_finite_antichain(d, count=20):
    """Build {w s' : w in W_J with right descent set {s}} for an infinite
    irreducible proper parabolic W_J and a neighbour s' outside J; verify
    pairwise incomparability directly."""
    _check_family_cap("count", count)
    if len(components(d)) != 1:
        raise diagram_mod.ReducibleDiagramError("construction needs an irreducible diagram")
    if diagram_mod.is_locally_finite(d):
        raise ValueError("every proper parabolic is finite: construction does not apply")

    subs = (
        (list(J), subdiagram(d, J))
        for size in range(1, d.rank)
        for J in itertools.combinations(range(d.rank), size)
    )
    J = next(
        (J for J, sub in subs if len(components(sub)) == 1 and classify(sub) != DiagramClass.FINITE),
        None,
    )
    if J is None:
        raise ValueError("no infinite irreducible proper parabolic found")
    pair = next(
        ((s, sp) for s in J for sp in range(d.rank) if sp not in J and d.labels[s][sp] >= 3),
        None,
    )
    if pair is None:
        raise ValueError("no neighbour outside the parabolic (diagram not irreducible?)")
    s, s_prime = pair

    group = group_for(d)
    K = [x for x in J if x != s]
    depth = count
    cap = 4 * count + 8
    while True:
        reps = [el for el in group.min_coset_reps(J, K, depth) if el.length() > 0]
        if len(reps) >= count or depth >= cap:
            break
        depth = min(2 * depth, cap)
    if len(reps) < count:
        raise CapExceededError(
            f"only {len(reps)} coset representatives of depth <= {depth} found, "
            f"need {count}",
            found=len(reps),
            depth=depth,
        )
    reps = reps[:count]

    for el in reps:
        if el.right_descents() != {s}:
            raise CertificateError("coset representative has unexpected descent set")
    return _verified_family(
        "CosetConstruction",
        d,
        [tuple(el.shortlex_nf()) + (s_prime,) for el in reps],
        {
            "J": [d.names[x] for x in J],
            "s": d.names[s],
            "s_prime": d.names[s_prime],
            "count": count,
        },
    )


# ---------------------------------------------------------------------------
# label-increase transfer

def transfer_label_increase(words, d, d_target):
    """Re-verify an antichain family after increasing edge labels.

    Every word must stay reduced and the family pairwise incomparable in the
    target; both are checked directly, and a failure is fatal because the
    transfer is guaranteed.
    """
    if d.rank != d_target.rank:
        raise ValueError("label transfer requires equal ranks")
    for i in range(d.rank):
        for j in range(i + 1, d.rank):
            if d_target.labels[i][j] < d.labels[i][j]:
                raise ValueError(
                    f"target label m({d.names[i]},{d.names[j]}) decreased"
                )
    return _verified_family("LabelTransfer", d_target, words, {"source": d.to_text().strip()})


# ---------------------------------------------------------------------------
# driver

def certify_antichain(d, count=20, kmax=6):
    """Produce a certificate for the diagram, by the construction its
    classification calls for, or raise NoInfiniteAntichainError when none
    can exist (finite or affine)."""
    _check_family_cap("count", count)
    _check_family_cap("kmax", kmax)
    comps = components(d)
    if len(comps) > 1:
        last_refusal = None
        for comp in comps:
            sub = subdiagram(d, comp)
            try:
                cert = certify_antichain(sub, count=count, kmax=kmax)
            except NoInfiniteAntichainError as exc:
                last_refusal = exc
                continue
            return replace(
                cert,
                diagram=d,
                family=tuple(tuple(comp[s] for s in w) for w in cert.family),
                facts={**cert.facts, "component": [d.names[i] for i in comp]},
            )
        raise NoInfiniteAntichainError(
            "every irreducible component is finite or affine: "
            "no infinite antichain exists",
            last_refusal.classification if last_refusal else None,
        )

    cls = classify(d)
    if cls == DiagramClass.FINITE:
        raise NoInfiniteAntichainError("finite group: no infinite antichain exists", cls)
    if cls == DiagramClass.AFFINE:
        raise NoInfiniteAntichainError("affine: no infinite antichain exists", cls)
    if cls == DiagramClass.OTHER_INFINITE:
        return not_locally_finite_antichain(d, count=count)
    # compact hyperbolic
    if isomorphism(d, case_vi_diagram()) is not None:
        return case_vi_certificate(kmax=max(6, kmax // 6 * 6), d=d)
    return _good_pair_certificate(d, kmax=kmax)


def _good_pair_certificate(d, kmax):
    """The dispatched pair's family in d; should the pair ever fail there,
    verify it in the minimal case diagram and transfer the family."""
    pair = compact_hyperbolic_pair(d)

    def family(diagram):
        group = group_for(diagram)
        return good_pair_family(group.element_of(pair.u_word), group.element_of(pair.w_word), kmax)

    try:
        cert = family(d)
    except NotAGoodPairError:
        base = pair.base_diagram(d)
        base_cert = family(base)
        cert = transfer_label_increase(base_cert.family, base, d)
        cert.facts["base_conditions"] = base_cert.facts["conditions"]
    cert.facts["case"] = pair.case
    return cert
