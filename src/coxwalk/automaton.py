"""The finite automaton recognizing reduced words.

States are sets of positive roots built by the recursion: the start state
is empty, and reading s from state D (allowed when alpha_s is not in D)
leads to {alpha_s} union {s(beta) : beta in D, -1 < (beta|alpha_s) < 1}.
All root coordinates and form values are exact, so state identity is
structural.  Paths from the start state spell exactly the reduced words;
this is validated against the group engine rather than assumed.

Root vectors are interned and renumbered canonically (lexicographic on the
exact coefficient sequences) once the build closes, so state contents,
exports and state indices are deterministic.
"""

import json
import os
from collections import deque
from fractions import Fraction

from . import _kernel as K
from . import algebra
from .algebra import AlgReal
from .diagram import CoxeterDiagram, parse_diagram
from .element import CapExceededError, MixedSignRootError, _root_vec_sign

DEFAULT_STATE_CAP = 200000

__all__ = [
    "ReducedWordAutomaton",
    "StateCapExceededError",
    "build",
    "resolve_state_cap",
    "DEFAULT_STATE_CAP",
]


class StateCapExceededError(CapExceededError):
    """The state BFS hit the cap before closing."""


def resolve_state_cap(cap=None):
    if cap is not None:
        return cap
    env = os.environ.get("COXWALK_STATE_CAP", "").strip()
    if env:
        return int(env)
    return DEFAULT_STATE_CAP


def _root_key(vec):
    return tuple((e.nums, e.den) for e in vec)


def _root_sort_key(vec):
    return tuple(e.to_fractions() for e in vec)


def _canonical_remap(vectors, states, simple_ids):
    """Renumber roots by coefficient order; sort state tuples accordingly."""
    order = sorted(range(len(vectors)), key=lambda r: _root_sort_key(vectors[r]))
    rank = [0] * len(vectors)
    for pos, rid in enumerate(order):
        rank[rid] = pos
    vectors2 = tuple(vectors[rid] for rid in order)
    states2 = tuple(tuple(sorted(rank[r] for r in st)) for st in states)
    simple2 = tuple(rank[r] for r in simple_ids)
    return vectors2, states2, simple2


class ReducedWordAutomaton:
    """Deterministic automaton; every state is accepting, missing
    transitions reject."""

    def __init__(self, diagram, field, root_vectors, states, transitions, simple_root_ids):
        self.diagram = diagram
        self.field = field
        self.root_vectors = root_vectors
        self.states = states
        self.transitions = transitions
        self.simple_root_ids = simple_root_ids
        self.start = 0
        self._canon = None

    @property
    def num_states(self):
        return len(self.states)

    @property
    def num_edges(self):
        return sum(len(t) for t in self.transitions)

    def run(self, word):
        """Final state index, or None at the first missing transition."""
        cur = self.start
        for s in word:
            nxt = self.transitions[cur].get(s)
            if nxt is None:
                return None
            cur = nxt
        return cur

    def accepts(self, word):
        return self.run(word) is not None

    def state_roots(self, sid):
        """Roots of a state as coordinate vectors, canonically sorted."""
        return tuple(self.root_vectors[rid] for rid in self.states[sid])

    def state_contains_simple(self, sid, s):
        return self.simple_root_ids[s] in self.states[sid]

    def count_reduced_words(self, k):
        """Number of accepted words of length exactly k (words, not elements)."""
        if k < 0:
            raise ValueError("length must be >= 0")
        cur = [0] * self.num_states
        cur[self.start] = 1
        for _ in range(k):
            nxt = [0] * self.num_states
            for sid, ways in enumerate(cur):
                if ways:
                    for to in self.transitions[sid].values():
                        nxt[to] += ways
            cur = nxt
        return sum(cur)

    # -- serialization --------------------------------------------------------

    def canonical_form(self):
        if self._canon is None:
            states = tuple(
                tuple(
                    tuple(e.to_fractions() for e in vec) for vec in self.state_roots(sid)
                )
                for sid in range(self.num_states)
            )
            trans = tuple(tuple(sorted(t.items())) for t in self.transitions)
            self._canon = (self.diagram.names, self.field.L, states, self.start, trans)
        return self._canon

    def __eq__(self, other):
        if not isinstance(other, ReducedWordAutomaton):
            return NotImplemented
        return self.canonical_form() == other.canonical_form()

    def __hash__(self):
        return hash(self.canonical_form())

    def to_json(self):
        states = []
        for sid in range(self.num_states):
            roots = [
                [[str(f) for f in e.to_fractions()] for e in vec]
                for vec in self.state_roots(sid)
            ]
            states.append({"id": sid, "roots": roots})
        transitions = [
            {"from": sid, "label": self.diagram.names[s], "to": to}
            for sid in range(self.num_states)
            for s, to in sorted(self.transitions[sid].items())
        ]
        payload = {
            "format": "coxwalk-automaton",
            "generators": list(self.diagram.names),
            "diagram": self.diagram.to_text(),
            "field": {"L": self.field.L, "minpoly": list(self.field.minpoly)},
            "start": self.start,
            "states": states,
            "transitions": transitions,
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text, diagram=None):
        payload = json.loads(text)
        if payload.get("format") != "coxwalk-automaton":
            raise ValueError("not an automaton export")
        if diagram is None:
            if "diagram" not in payload:
                raise ValueError("automaton export has no diagram; pass diagram=")
            # the rank-0 diagram's text is a bare newline, which a diagram
            # file may not be
            if payload["generators"]:
                diagram = parse_diagram(payload["diagram"])
            else:
                diagram = CoxeterDiagram((), ())
        field = algebra.field_for_lcm(payload["field"]["L"])
        if list(field.minpoly) != payload["field"]["minpoly"]:
            raise ValueError("minimal polynomial mismatch in automaton export")
        name_to_idx = {n: i for i, n in enumerate(payload["generators"])}
        n = len(payload["generators"])
        vectors = []
        ids = {}

        def intern(vec):
            key = _root_key(vec)
            rid = ids.get(key)
            if rid is None:
                rid = len(vectors)
                vectors.append(vec)
                ids[key] = rid
            return rid

        states = []
        for st in payload["states"]:
            rids = set()
            for root in st["roots"]:
                vec = tuple(field.element([Fraction(c) for c in coord]) for coord in root)
                rids.add(intern(vec))
            states.append(tuple(sorted(rids)))
        transitions = [dict() for _ in states]
        for tr in payload["transitions"]:
            transitions[tr["from"]][name_to_idx[tr["label"]]] = tr["to"]
        zero, one = field.zero, field.one
        simple_ids = []
        for s in range(n):
            vec = tuple(one if i == s else zero for i in range(n))
            simple_ids.append(intern(vec))
        vectors, states, simple_ids = _canonical_remap(vectors, states, simple_ids)
        auto = cls(diagram, field, vectors, states, transitions, simple_ids)
        auto.start = payload["start"]
        return auto

    def to_dot(self):
        lines = ["digraph reduced_words {", "  rankdir=LR;", "  __start [shape=point];"]
        lines.append(f'  __start -> "{self.start}";')
        for sid in range(self.num_states):
            size = len(self.states[sid])
            lines.append(f'  "{sid}" [label="{sid} [{size}]"];')
        for sid in range(self.num_states):
            for s, to in sorted(self.transitions[sid].items()):
                name = self.diagram.names[s]
                lines.append(f'  "{sid}" -> "{to}" [label="{name}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def export(self, fmt):
        if fmt == "dot":
            return self.to_dot()
        if fmt == "json":
            return self.to_json()
        raise ValueError(f"unsupported export format {fmt!r}")

    def __repr__(self):
        return f"ReducedWordAutomaton(states={self.num_states}, edges={self.num_edges})"


def build(diagram, cap=None):
    """BFS the state recursion from the empty state.

    Finiteness holds for every diagram exercised here; the cap converts
    anything unexpected into a diagnosable error carrying the frontier size.
    The rank-5 compact hyperbolic path diagram closes at 101412 states, so
    the default cap leaves ample headroom above every built-in diagram.
    """
    cap = resolve_state_cap(cap)
    if cap < 1:
        raise ValueError("state cap must be >= 1")
    field = algebra.field_for(diagram)
    gram = algebra.gram(diagram, field)
    n = diagram.rank
    mp = field._mp_low
    zero, one = field.zero, field.one

    vectors = []
    ids = {}

    def intern(vec):
        key = _root_key(vec)
        rid = ids.get(key)
        if rid is None:
            rid = len(vectors)
            vectors.append(vec)
            ids[key] = rid
        return rid

    simple_ids = []
    for s in range(n):
        vec = tuple(one if i == s else zero for i in range(n))
        simple_ids.append(intern(vec))

    gram_cols_nums = [[gram.entry(i, s).nums for i in range(n)] for s in range(n)]
    gram_cols_dens = [[gram.entry(i, s).den for i in range(n)] for s in range(n)]

    step_cache = {}

    def step(rid, s):
        """Image root id of sigma_s(beta) when -1 < (beta|alpha_s) < 1, else None."""
        key = (rid, s)
        hit = step_cache.get(key, False)
        if hit is not False:
            return hit
        beta = vectors[rid]
        nums, den = K.dot_mod(
            [e.nums for e in beta],
            [e.den for e in beta],
            gram_cols_nums[s],
            gram_cols_dens[s],
            mp,
        )
        x = AlgReal._new(field, nums, den)
        if (one - x).sign() <= 0 or (one + x).sign() <= 0:
            step_cache[key] = None
            return None
        img = list(beta)
        img[s] = beta[s] - (x + x)
        img = tuple(img)
        if _root_vec_sign(img) != 1:
            raise MixedSignRootError("reflected state root is not positive")
        out = intern(img)
        step_cache[key] = out
        return out

    start = ()
    states = {start: 0}
    state_list = [start]
    transitions = [dict()]
    queue = deque([0])
    while queue:
        sid = queue.popleft()
        state = state_list[sid]
        in_state = set(state)
        for s in range(n):
            if simple_ids[s] in in_state:
                continue
            new = {simple_ids[s]}
            for rid in state:
                img = step(rid, s)
                if img is not None:
                    new.add(img)
            fz = tuple(sorted(new))
            to = states.get(fz)
            if to is None:
                if len(state_list) >= cap:
                    raise StateCapExceededError(
                        f"automaton exceeded state cap {cap} (frontier size {len(queue)})",
                        cap=cap,
                        frontier=len(queue),
                    )
                to = len(state_list)
                states[fz] = to
                state_list.append(fz)
                transitions.append(dict())
                queue.append(to)
            transitions[sid][s] = to
    vectors, state_list, simple_ids = _canonical_remap(vectors, state_list, simple_ids)
    return ReducedWordAutomaton(diagram, field, vectors, state_list, transitions, simple_ids)
