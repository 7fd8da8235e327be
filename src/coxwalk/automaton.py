"""The finite automaton recognizing reduced words.

States are sets of positive roots built by the recursion: the start state
is empty, and reading s from state D (allowed when alpha_s is not in D)
leads to {alpha_s} union {s(beta) : beta in D, -1 < (beta|alpha_s) < 1}.
Every root coordinate and form value lies in Z[c], c = 2cos(pi/L), and is
held as its tuple of integer coefficients, so state identity is
structural.  Paths from the start state spell exactly the reduced words;
this is validated against the group engine rather than assumed.

The build has two phases.  Phase 1 closes the simple roots under the
admissible step; the closure is the finite set of elementary roots of
Brink and Howlett (Math. Ann. 296, 1993), sorted once into a canonical
order (lexicographic on the integer coefficient tuples) and tabulated as
step[s][root].  A root is one integer tuple per simple-root coordinate,
and every sign is decided on such tuples by the field.
Phase 2 runs the state BFS with each state a Python int whose bit i marks
root i, so state contents, exports and state indices are deterministic.
Since s acts on each root separately, the images of a state under every
generator are the union of its roots' images, packed into one int with
generator s in bits s*w .. s*w+w-1, w the number of roots.  A state is
read as 32-bit chunks; each chunk position keeps the packed images of the
chunk values met so far, filled from one table per byte and bounded in
size, so a state costs one lookup per chunk and each allowed edge a shift
and a mask.

The transitions are one flat array("i") of n entries per state, n the rank:
table[sid * n + s] is the state reached from state sid on generator s, or
-1 when s is not allowed there.  `next_state(sid, s)` reads one edge and
answers None for a missing edge or a letter outside 0..n-1; a state id
outside 0..num_states-1 raises IndexError.  The table costs
4 bytes per (state, generator) and no object per state.

The two readers do only what their output needs.  `reduced_word_counts`
walks a prefix of state ids that grows with the largest target of the rows
walked so far, so short counts touch only the states near the start.
`to_json` writes every transition row with one %: the simple roots a state
holds fix its row's keys, so each held set has one row template.

Both phases are deterministic, so the one automaton an export may describe
is the build of its diagram: `from_json` rebuilds it and refuses an export
whose compact re-dump is not exactly what `to_json` writes for the build.
"""

import json
from array import array
from functools import lru_cache
from itertools import cycle, repeat
from operator import getitem
from struct import Struct

from . import _kernel as K
from . import algebra
from .diagram import CoxeterDiagram, parse_diagram
from .element import CapExceededError, MixedSignRootError

DEFAULT_STATE_CAP = 200000
EXPORT_VERSION = 2
# entries a chunk cache of the build stores; past it, misses are computed
# from the byte tables and dropped, so the caches hold at most 2^12 entries
# per byte table whatever the diagram
_CHUNK_CACHE_CAP = 1 << 14

__all__ = [
    "ReducedWordAutomaton",
    "StateCapExceededError",
    "build",
    "DEFAULT_STATE_CAP",
]


class StateCapExceededError(CapExceededError):
    """The state BFS hit the cap before closing."""


@lru_cache
def _state_fragments(nbytes):
    """The text fragments to_json writes for the bytes of a state of nbytes
    bytes: per byte position, one fragment per byte value, every id with a
    leading comma; then "],[" for one extra byte per state, always 0, which
    closes the state and opens the next."""
    tables = tuple(
        tuple("".join(f",{k + i}" for i in range(8) if b >> i & 1) for b in range(256))
        for k in range(0, 8 * nbytes, 8)
    )
    return tables + (("],[",),)


class ReducedWordAutomaton:
    """Deterministic automaton; every state is accepting, missing
    transitions reject.

    `root_vectors` is the canonically ordered root table: each root is a
    tuple of n coordinates, each coordinate the tuple of its integer
    coefficients in the basis 1, c, c^2, ... of the field.  Each entry of
    `states` is an int whose bit i marks root i of that table.  The table
    may hold elementary roots that no state uses.  `table` is the flat
    transition table: `table[sid * n + s]` is the target of the edge on s
    from state sid, or -1 when there is none.
    """

    def __init__(self, diagram, field, root_vectors, states, table, simple_root_ids):
        self.diagram = diagram
        self.field = field
        self.root_vectors = root_vectors
        self.states = states
        self.table = table
        self.rank = diagram.rank
        self.simple_root_ids = simple_root_ids
        self.start = 0
        self._canon = None

    @property
    def num_states(self):
        return len(self.states)

    @property
    def num_edges(self):
        return len(self.table) - self.table.count(-1)

    def _check_state(self, sid):
        # a negative id would read a state or row from the end
        if not 0 <= sid < len(self.states):
            raise IndexError(f"state {sid} out of range")

    def next_state(self, sid, s):
        """The state reached from state sid on generator s, or None when
        there is no edge (a letter outside 0..n-1 has none).  A state id
        outside 0..num_states-1 raises IndexError."""
        self._check_state(sid)
        n = self.rank
        if not 0 <= s < n:
            return None
        to = self.table[sid * n + s]
        return None if to < 0 else to

    def run(self, word):
        """Final state index, or None at the first missing transition."""
        table, n = self.table, self.rank
        cur = self.start
        for s in word:
            # a bare flat index would read a letter outside 0..n-1 from a
            # neighbouring row
            if not 0 <= s < n:
                return None
            cur = table[cur * n + s]
            if cur < 0:
                return None
        return cur

    def accepts(self, word):
        return self.run(word) is not None

    def state_contains_simple(self, sid, s):
        self._check_state(sid)
        if not 0 <= s < self.rank:
            raise IndexError(f"generator index {s} out of range")
        return bool(self.states[sid] >> self.simple_root_ids[s] & 1)

    def reduced_word_counts(self, k):
        """Numbers of accepted words of each length 0..k (words, not
        elements), in one pass of the transfer matrix.

        Only a prefix of state ids can carry ways: `cur` covers states
        0..len(cur)-1, and the next step's list reaches one past the largest
        target of those rows.  Each row is read for that bound once, when the
        prefix first covers it, so the bound holds for any state order.  In
        build's BFS order the list after j steps covers exactly the states
        within j letters of the start.  Once it covers every state, a step
        walks the whole list."""
        if k < 0:
            raise ValueError("length must be >= 0")
        table, n = self.table, self.rank
        cur = [0] * (self.start + 1)
        cur[self.start] = 1
        counts = [1]
        read = 0
        for _ in range(k):
            hi = len(cur)
            nxt = [0] * max(hi, max(table[read * n : hi * n], default=-1) + 1)
            read = hi
            for sid, ways in enumerate(cur):
                if ways:
                    for to in table[sid * n : sid * n + n]:
                        if to >= 0:
                            nxt[to] += ways
            cur = nxt
            counts.append(sum(cur))
        return counts

    def count_reduced_words(self, k):
        """Number of accepted words of length exactly k (words, not elements)."""
        return self.reduced_word_counts(k)[-1]

    # -- serialization --------------------------------------------------------

    def canonical_form(self):
        if self._canon is None:
            self._canon = (
                self.diagram.names,
                self.field.L,
                self.root_vectors,
                tuple(self.states),
                self.start,
                self.table.tobytes(),
            )
        return self._canon

    def __eq__(self, other):
        if not isinstance(other, ReducedWordAutomaton):
            return NotImplemented
        return self.canonical_form() == other.canonical_form()

    def __hash__(self):
        return hash(self.canonical_form())

    def to_json(self):
        """Export schema version 2 as compact JSON: the root table once,
        each state as its ascending root ids, transitions per state.

        The states are written from one blob of their bytes, each byte
        looked up in a table of text fragments, and the transition rows with
        one % from one row template per set of held simple roots, to the
        bytes json.dumps would give."""
        names = self.diagram.names
        nbytes = -(-len(self.root_vectors) // 8)
        blob = b"".join(map(int.to_bytes, self.states, repeat(nbytes + 1), repeat("little")))
        # "[," drops each state's first comma
        frags = cycle(_state_fragments(nbytes))
        states = ("[" + "".join(map(getitem, frags, blob))[:-2]).replace("[,", "[")
        head = json.dumps(
            {
                "format": "coxwalk-automaton",
                "version": EXPORT_VERSION,
                "generators": list(names),
                "diagram": self.diagram.to_text(),
                "field": {"L": self.field.L, "minpoly": list(self.field.minpoly)},
                "start": self.start,
                "roots": [[[str(x) for x in coord] for coord in vec] for vec in self.root_vectors],
            },
            separators=(",", ":"),
        )
        # each row as json.dumps writes a dict of the present edges.  A state
        # has an edge on s exactly when it lacks alpha_s, so the simple roots
        # it holds fix its row's keys, and the table's edges fill the %d
        # fields in row order.  A name may contain %, which is doubled.  Rows
        # follow the states, since at rank 0 the table is empty but the one
        # state still has a row.
        fields = [json.dumps(name).replace("%", "%%") + ":%d" for name in names]
        bits = [1 << rid for rid in self.simple_root_ids]
        held = list(map(sum(bits).__and__, self.states))
        templates = {
            h: "{" + ",".join(f for f, bit in zip(fields, bits) if not h & bit) + "}"
            for h in set(held)
        }
        rows = ",".join(map(templates.__getitem__, held))
        transitions = rows % tuple(filter((0).__le__, self.table))
        return f'{head[:-1]},"states":[{states}],"transitions":[{transitions}]}}'

    @classmethod
    def from_json(cls, text, diagram=None):
        """Read an export of schema version 2: the automaton that `build`
        makes for the export's diagram, written as `to_json` writes it.
        Anything else raises ValueError."""
        payload = json.loads(text)
        if not isinstance(payload, dict) or payload.get("format") != "coxwalk-automaton":
            raise ValueError("not an automaton export")
        version = payload.get("version")
        if version != EXPORT_VERSION:
            raise ValueError(f"automaton export version {version!r} is not {EXPORT_VERSION}")
        try:
            # rank 0's diagram text is a bare newline, which parse_diagram refuses
            names = payload["generators"]
            written = parse_diagram(payload["diagram"]) if names else CoxeterDiagram((), ())
            if diagram is not None and diagram != written:
                raise ValueError(f"export is of diagram {written!r}, not {diagram!r}")
            cap = len(payload["states"])
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed automaton export: {exc!r}") from exc
        # the compact re-dump ignores only whitespace: it still tells true
        # from 1, 1.5 from an id, and a reordered key.  It is taken first, so
        # that the build does not run beside the parsed export.
        redump = json.dumps(payload, separators=(",", ":"))
        del payload
        # the export's own state count as the cap: a short export stops the
        # build early, and one written under a larger cap still reads
        try:
            auto = build(written, cap=cap)
        except StateCapExceededError as exc:
            raise ValueError(f"export has too few states: {exc}") from exc
        if redump != auto.to_json():
            raise ValueError("export differs from the build of its diagram")
        return auto

    def to_dot(self):
        lines = ["digraph reduced_words {", "  rankdir=LR;", "  __start [shape=point];"]
        lines.append(f'  __start -> "{self.start}";')
        for sid, state in enumerate(self.states):
            lines.append(f'  "{sid}" [label="{sid} [{state.bit_count()}]"];')
        # a DOT quoted string ends at the first unescaped quote
        names = [name.replace("\\", "\\\\").replace('"', '\\"') for name in self.diagram.names]
        n = self.rank
        for i, to in enumerate(self.table):
            if to >= 0:
                sid, s = divmod(i, n)
                lines.append(f'  "{sid}" -> "{to}" [label="{names[s]}"];')
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


class _ChunkImages(dict):
    """Packed images of the 32-bit values met at one chunk position of a
    state: a missing value's entry is the OR of its four bytes' entries in
    `tables`, stored while the cache is under _CHUNK_CACHE_CAP."""

    __slots__ = ("tables",)

    def __init__(self, tables):
        super().__init__()
        self.tables = tables

    def __missing__(self, v):
        t0, t1, t2, t3 = self.tables
        img = t0[v & 255] | t1[v >> 8 & 255] | t2[v >> 16 & 255] | t3[v >> 24]
        if len(self) < _CHUNK_CACHE_CAP:
            self[v] = img
        return img


def _root_table(diagram, field):
    """Phase 1: close the simple roots under the admissible step.

    Returns the root vectors in canonical order, the ids of the simple
    roots, and step[s][rid]: the id of sigma_s(beta) when
    -1 < (beta|alpha_s) < 1, else -1.  With the doubled form
    y = 2(beta|alpha_s), the test is -2 < y < 2 and the image is
    beta - y alpha_s.
    """
    gram = algebra.gram(diagram, field)
    n = diagram.rank
    mp = field._mp_low
    sign = field.sign
    zero, one = field.zero, field.one
    vectors = [tuple(one if i == s else zero for i in range(n)) for s in range(n)]
    ids = {vec: rid for rid, vec in enumerate(vectors)}
    raw_step = [[] for _ in range(n)]
    # vectors grows while it is walked: a breadth-first closure
    for beta in vectors:
        for s in range(n):
            # the Gram matrix is symmetric, so its rows are its columns
            y = K.dot_mod(beta, gram[s], mp)
            if sign((y[0] - 2,) + y[1:]) >= 0 or sign((y[0] + 2,) + y[1:]) <= 0:
                raw_step[s].append(-1)
                continue
            coord = tuple([b - x for b, x in zip(beta[s], y)])
            # beta is positive and its image differs from it only in coordinate s
            if sign(coord) < 0:
                raise MixedSignRootError("reflected root is not positive")
            img = beta[:s] + (coord,) + beta[s + 1 :]
            rid = ids.get(img)
            if rid is None:
                rid = ids[img] = len(vectors)
                vectors.append(img)
            raw_step[s].append(rid)

    order = sorted(range(len(vectors)), key=vectors.__getitem__)
    new_id = [0] * len(vectors)
    for pos, rid in enumerate(order):
        new_id[rid] = pos
    step = tuple(
        tuple(new_id[raw[rid]] if raw[rid] >= 0 else -1 for rid in order) for raw in raw_step
    )
    return tuple(vectors[rid] for rid in order), tuple(new_id[:n]), step


def build(diagram, cap=DEFAULT_STATE_CAP):
    """BFS the state recursion from the empty state.

    Finiteness holds for every diagram exercised here; the cap converts
    anything unexpected into a diagnosable error carrying the frontier size.
    The rank-5 compact hyperbolic path diagram closes at 101412 states, so
    the default cap leaves ample headroom above every built-in diagram.
    """
    if cap < 1:
        raise ValueError("state cap must be >= 1")
    field = algebra.field_for(diagram)
    vectors, simple_ids, step = _root_table(diagram, field)
    n = diagram.rank

    # Phase 2.  root_imgs[rid] packs the images of root rid under every
    # generator, generator s in bits s*w .. s*w+w-1 (bit s*w + i marks root
    # i).  packed[k][b] is the OR of root_imgs over the roots that byte value
    # b marks in byte k of a state: the entry without b's lowest bit, plus
    # that bit's root.  Bits past the last root add nothing.
    w = len(vectors)
    root_imgs = [
        sum(1 << (s * w + st[rid]) for s, st in enumerate(step) if st[rid] >= 0)
        for rid in range(w)
    ] + [0] * (-w % 32)
    packed = []
    for k in range(0, len(root_imgs), 8):
        table = [0] * 256
        for b in range(1, 256):
            table[b] = table[b & (b - 1)] | root_imgs[k + (b & -b).bit_length() - 1]
        packed.append(table)
    # A state is read as 32-bit chunks, each looked up in its position's
    # cache.  The chunks hold disjoint roots and s is injective on roots, so
    # their images share no bit and add up to their union.  No positive root
    # maps to alpha_s, so adding const, which sets bit s*w + id(alpha_s) for
    # every s, puts alpha_s into every image.
    nbytes = len(packed)
    chunks = [_ChunkImages(packed[k : k + 4]) for k in range(0, nbytes, 4)]
    unpack = Struct(f"<{len(chunks)}I").unpack
    const = sum(1 << (s * w + rid) for s, rid in enumerate(simple_ids))
    full = (1 << w) - 1
    smask = sum(1 << rid for rid in simple_ids)
    # held simple roots -> (s, s*w) for each generator s allowed there
    allowed = {}
    blank = [-1] * n

    states = {0: 0}
    state_list = [0]
    # state sid's row is table[sid * n : sid * n + n]; rows are appended in
    # BFS order, one entry per generator
    table = array("i")
    # state_list grows while it is walked: it is the BFS queue
    for sid, state in enumerate(state_list):
        imgs = sum(map(getitem, chunks, unpack(state.to_bytes(nbytes, "little"))), const)
        held = state & smask
        gens = allowed.get(held)
        if gens is None:
            gens = allowed[held] = [
                (s, s * w) for s, rid in enumerate(simple_ids) if not held >> rid & 1
            ]
        row = blank.copy()
        for s, shift in gens:
            img = imgs >> shift & full
            to = states.get(img)
            if to is None:
                if len(state_list) >= cap:
                    frontier = len(state_list) - sid - 1
                    raise StateCapExceededError(
                        f"automaton exceeded state cap {cap} (frontier size {frontier})",
                        cap=cap,
                        frontier=frontier,
                    )
                to = states[img] = len(state_list)
                state_list.append(img)
            row[s] = to
        table.extend(row)
    return ReducedWordAutomaton(diagram, field, vectors, state_list, table, simple_ids)
