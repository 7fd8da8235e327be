"""Group elements of a Coxeter system via the exact geometric representation.

An element is the pair of matrices (action on simple-root coordinates, and
the same for the inverse), with exact field entries.  The representation is
faithful, so matrix equality decides group equality and descent sets fall
out of root signs.  The right generator step is the only generator action
and the only way to form a product: u * v steps u's columns along v's
ShortLex word, and `weak_leq(v, w)` steps w's inverse along v's word.
Every element knows its length when it is made, since l(ws) = l(w) + 1
exactly when w(alpha_s) is positive.  An inverse is the right-step
product of a word of w^-1: `element_of` reverses its word, and a right
step (`right_mul_gen`, a ball element, a product) holds its own columns
only until its inverse is read, then reverses the ShortLex word a ball
recorded or takes the word of w^-1 that the walk spells from w's
columns.  Lengths and right descents need the columns only, and
`inversion_set` reads the left inversion roots of a word from the
columns of its prefixes alone: it decides whether the word is reduced,
and set inclusion of inversion sets decides the right weak order for
checks that compare many pairs.  Balls, reduced-expression enumeration,
braid closures and minimal coset representatives are all built on top of
that engine, with size caps that turn non-termination on infinite groups
into clean errors.
"""

import math

from . import algebra
from .algebra import CapExceededError
from . import diagram as diagram_mod

DEFAULT_BALL_CAP = 10**6
DEFAULT_WORDS_CAP = 10**5
DEFAULT_NF_CAP = 10**6

__all__ = [
    "CoxeterGroup",
    "GroupElement",
    "Ball",
    "group_for",
    "parse_word",
    "format_word",
    "CapExceededError",
    "MixedSignRootError",
    "NonReducedWordError",
    "GroupMismatchError",
]


class MixedSignRootError(RuntimeError):
    """A root image had mixed coordinate signs: internal corruption."""


class NonReducedWordError(ValueError):
    """A word required to be reduced admits a nil move."""


class GroupMismatchError(ValueError):
    """Elements of different groups were combined."""


def _root_vec_sign(vec):
    """+1 for a positive root, -1 for a negative one; mixed signs raise."""
    pos = neg = False
    for e in vec:
        s = e.sign()
        if s > 0:
            pos = True
        elif s < 0:
            neg = True
    if pos and neg:
        raise MixedSignRootError("root image has mixed coordinate signs")
    if pos:
        return 1
    if neg:
        return -1
    raise MixedSignRootError("root image is the zero vector")


def _braid_run(labels, word, p):
    """m when word[p:p + m] is the alternating run s t s ... of length
    m = m(s, t), for s = word[p] and t = word[p + 1] distinct with a finite
    label; else 0.  Such a run admits a braid move."""
    s, t = word[p], word[p + 1]
    m = labels[s][t]
    if math.isinf(m) or p + m > len(word):
        return 0
    m = int(m)
    if all(word[p + k] == (s if k % 2 == 0 else t) for k in range(m)):
        return m
    return 0


class CoxeterGroup:
    """Shared context for one diagram: field, form, generator actions."""

    def __init__(self, diagram):
        self.diagram = diagram
        self.n = diagram.rank
        self.field = algebra.field_for(diagram)
        gram = algebra.gram(diagram, self.field)
        # sparse generator data: for s, the non-commuting columns j with the
        # exact coefficient -2*(alpha_s | alpha_j), which is minus the doubled
        # Gram entry; None marks the coefficient 1 of a label 3, which needs
        # an add and no multiply
        zero, one = self.field.zero, self.field.one
        self._nbr = []
        for s in range(self.n):
            row = []
            for j in range(self.n):
                if j == s:
                    continue
                coeff = -gram[s][j]
                if not coeff.is_zero():
                    row.append((j, None if coeff == one else coeff))
            self._nbr.append(tuple(row))
        self._id_cols = tuple(
            tuple(one if i == j else zero for i in range(self.n)) for j in range(self.n)
        )
        self._identity = GroupElement(self, self._id_cols, self._id_cols)
        self._identity._len = 0
        self._identity._nf = ()

    # -- generator actions on column matrices --------------------------------

    def _rmul_gen(self, cols, s):
        """Columns of w -> columns of w*s."""
        cs = cols[s]
        nz = [i for i in range(self.n) if not cs[i].is_zero()]
        new = list(cols)
        for j, coeff in self._nbr[s]:
            colj = list(cols[j])
            if coeff is None:
                for i in nz:
                    colj[i] = colj[i] + cs[i]
            else:
                for i in nz:
                    colj[i] = colj[i] + coeff * cs[i]
            new[j] = tuple(colj)
        neg = list(cs)
        for i in nz:
            neg[i] = -cs[i]
        new[s] = tuple(neg)
        return tuple(new)

    def _word_cols(self, word):
        """Columns of the product of the generators of word, in word order."""
        cols = self._id_cols
        for s in word:
            cols = self._rmul_gen(cols, s)
        return cols

    def _steps(self, cols, length, word):
        """Columns and length of w * word from those of w, one right step
        per letter; each step adds the sign of w(alpha_s) to the length."""
        for s in word:
            length += _root_vec_sign(cols[s])
            cols = self._rmul_gen(cols, s)
        return cols, length

    def _walk(self, icols, limit):
        """The ShortLex word of the element whose inverse has columns
        `icols`, built by stripping the smallest left descent, or None if
        the element is longer than `limit` (None: no limit).  Only the
        inverse is needed: s is a left descent of w exactly when
        w^-1(alpha_s) is negative."""
        word = []
        while True:
            for s in range(self.n):
                if _root_vec_sign(icols[s]) < 0:
                    break
            else:
                if icols != self._id_cols:
                    raise MixedSignRootError(
                        "element with no left descent is not the identity"
                    )
                return tuple(word)
            if len(word) == limit:
                return None
            word.append(s)
            icols = self._rmul_gen(icols, s)

    # -- public surface -------------------------------------------------------

    @property
    def identity(self):
        return self._identity

    def generator(self, s):
        return self._identity.right_mul_gen(s)

    def _check_word(self, word):
        for s in word:
            if not 0 <= s < self.n:
                raise IndexError(f"generator index {s} out of range")

    def element_of(self, word):
        """Product of generators in word order (leftmost applied first); its
        inverse is the product of the reversed word."""
        self._check_word(word)
        cols, length = self._steps(self._id_cols, 0, word)
        el = GroupElement(self, cols, self._word_cols(reversed(word)))
        el._len = length
        return el

    def inversion_set(self, word):
        """The left inversion set N(w) of the element w spelled by a reduced
        word, or None when the word is not reduced.

        The roots of N(a_1...a_k) are the columns a_1...a_{j-1}(alpha_{a_j})
        of the prefixes, read just before each step; a letter shortens its
        prefix exactly when that root is negative, and the walk stops there.
        Builds the columns of the prefixes only.  For elements v and w,
        v <= w in the right weak order iff N(v) is a subset of N(w)
        (Bjorner-Brenti, GTM 231, Prop. 3.1.3), so this is the batch form of
        `weak_leq`, which steps along v's word once per pair: here each
        word is walked once, then each pair is a set inclusion.
        """
        self._check_word(word)
        cols = self._id_cols
        roots = []
        last = len(word) - 1
        for i, s in enumerate(word):
            root = cols[s]
            if _root_vec_sign(root) < 0:
                return None
            roots.append(root)
            if i < last:
                cols = self._rmul_gen(cols, s)
        return frozenset(roots)

    def is_reduced(self, word):
        """Whether word is a reduced expression: each letter s must lengthen
        the prefix w before it, that is, w(alpha_s) must be positive."""
        return self.inversion_set(word) is not None

    def ball(self, radius, cap=DEFAULT_BALL_CAP):
        """All elements of length <= radius, with counts per length (BFS).

        The frontier is visited in discovery order and the generators in
        ascending order, and every prefix of a ShortLex word is a ShortLex
        word, so the first word that reaches an element is its ShortLex
        word: each element keeps it, and needs no normal-form walk."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        seen = {self._id_cols: self._identity}
        elements = [self._identity]
        counts = [1]
        frontier = [self._identity]
        for k in range(1, radius + 1):
            new = []
            for el in frontier:
                for s in range(self.n):
                    cols = self._rmul_gen(el.cols, s)
                    if cols in seen:
                        continue
                    if len(seen) >= cap:
                        raise CapExceededError(
                            f"ball exceeded cap of {cap} elements",
                            cap=cap,
                            radius=k,
                        )
                    cand = GroupElement(self, cols, None)
                    cand._len = k
                    cand._nf = el._nf + (s,)
                    seen[cols] = cand
                    new.append(cand)
            if not new:
                break
            counts.append(len(new))
            elements.extend(new)
            frontier = new
        return Ball(self, radius, elements, counts)

    def weak_leq(self, v, w):
        """Right weak order: v <= w iff l(v^-1 w) = l(w) - l(v)
        (Bjorner-Brenti, GTM 231, Sec. 3.1).

        With s_1 ... s_k the ShortLex word of v, v^-1 w is the inverse of
        w^-1 s_1 ... s_k, and each right step changes the length by one,
        so the equality holds iff every step shortens: w^-1 s_1 ... s_{i-1}
        (alpha_{s_i}) is negative for each i.  The steps start from w's
        inverse columns and stop at the first letter that lengthens.
        """
        if v.group is not self or w.group is not self:
            raise GroupMismatchError("elements belong to a different group")
        lv = v.length()
        lw = w.length()
        if lv > lw:
            return False
        if lv == lw:
            return v == w
        cols = w.icols
        for s in v.shortlex_nf():
            if _root_vec_sign(cols[s]) > 0:
                return False
            cols = self._rmul_gen(cols, s)
        return True

    def _descent_levels(self, w, cap):
        """The elements reached from w by removing right descents, one dict
        per length from the identity up to w, mapping each element to its
        edges [(s, el * s) for s a right descent].

        The levels are the ranks of the interval [e, w] in the right weak
        order.  Every element but the identity ends at least one reduced
        expression of itself, so more than cap + 1 elements exceed a cap of
        cap expressions; the walk stops there instead of listing them all.
        """
        levels = []
        level = dict.fromkeys([w])
        size = 1
        while level:
            below = {}
            for el in level:
                level[el] = [(s, el.right_mul_gen(s)) for s in el.right_descents()]
                below.update(dict.fromkeys(x for _, x in level[el]))
            levels.append(level)
            size += len(below)
            if size > cap + 1:
                raise CapExceededError(
                    f"weak-order interval [e, w] exceeded cap of {cap + 1} elements",
                    cap=cap,
                )
            level = below
        return reversed(levels)

    def reduced_expressions(self, w, cap=DEFAULT_WORDS_CAP):
        """All reduced expressions of w, sorted; built up the right descent
        graph one length at a time, so long words need no recursion."""
        exprs = {}
        total = 0
        for level in self._descent_levels(w, cap):
            for el, edges in level.items():
                if not edges:  # the identity
                    exprs[el] = [()]
                    continue
                out = [sub + (s,) for s, x in edges for sub in exprs[x]]
                total += len(out)
                if total > cap:
                    raise CapExceededError(
                        f"reduced-expression enumeration exceeded cap of {cap}", cap=cap
                    )
                exprs[el] = out
        return sorted(exprs[w])

    def count_reduced_expressions(self, w):
        """The number of reduced expressions of w; capped like
        `reduced_expressions`, by the size of [e, w]."""
        counts = {}
        for level in self._descent_levels(w, DEFAULT_WORDS_CAP):
            for el, edges in level.items():
                counts[el] = sum(counts[x] for _, x in edges) if edges else 1
        return counts[w]

    def braid_closure(self, word, cap=DEFAULT_WORDS_CAP):
        """BFS closure of a reduced word under braid moves.

        Words with an adjacent equal pair admit a nil move, which cannot
        happen when the input is reduced; encountering one raises
        NonReducedWordError.
        """
        word = tuple(word)
        self._check_word(word)
        seen = {word}
        queue = [word]
        labels = self.diagram.labels
        while queue:
            cur = queue.pop()
            for i in range(len(cur) - 1):
                s, t = cur[i], cur[i + 1]
                if s == t:
                    raise NonReducedWordError(
                        f"nil move applies at position {i}: word is not reduced"
                    )
                m = _braid_run(labels, cur, i)
                if m:
                    flip = tuple(t if k % 2 == 0 else s for k in range(m))
                    new = cur[:i] + flip + cur[i + m :]
                    if new not in seen:
                        if len(seen) >= cap:
                            raise CapExceededError(
                                f"braid closure exceeded cap of {cap}", cap=cap
                            )
                        seen.add(new)
                        queue.append(new)
        return frozenset(seen)

    def min_coset_reps(self, J, K, radius, cap=DEFAULT_BALL_CAP):
        """Elements of the parabolic W_J with no right descent in K, length <= radius.

        These are the minimal coset representatives of W_J modulo W_K,
        truncated at the given length.
        """
        J = sorted(set(J))
        K = sorted(set(K))
        if not set(K) <= set(J):
            raise ValueError("K must be a subset of J")
        if J and not (0 <= J[0] and J[-1] < self.n):
            raise ValueError("J contains out-of-range indices")
        sub = diagram_mod.subdiagram(self.diagram, J)
        subgroup = group_for(sub)
        kpos = {J.index(k) for k in K}
        out = []
        for el in subgroup.ball(radius, cap).elements:
            if el.right_descents() & kpos:
                continue
            word = tuple(J[t] for t in el.shortlex_nf())
            lifted = self.element_of(word)
            lifted._nf = word
            out.append(lifted)
        out.sort(key=lambda e: (e.length(), e.shortlex_nf()))
        return out

    def __repr__(self):
        return f"CoxeterGroup({self.diagram!r})"


class GroupElement:
    """Immutable group element; equality and hashing via the exact matrix.

    `cols` is the matrix of w and `icols` that of w^-1.  An element made by
    right generator steps (`right_mul_gen`, a ball, a product) holds its
    own columns only and builds `icols` on first read; it refers to no
    other element.
    """

    __slots__ = ("group", "cols", "_icols", "_len", "_nf", "_hash", "_rdes")

    def __init__(self, group, cols, icols):
        self.group = group
        self.cols = cols
        self._icols = icols
        self._len = None
        self._nf = None
        self._hash = None
        self._rdes = None

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.group is other.group and self.cols == other.cols

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.cols)
        return self._hash

    @property
    def icols(self):
        """Columns of the inverse, built on first read as the product of a
        word of w^-1: the reversed ShortLex word of w when it is known, else
        the ShortLex word of w^-1, which the walk spells from w's columns."""
        if self._icols is None:
            g = self.group
            word = reversed(self._nf) if self._nf is not None else g._walk(self.cols, None)
            self._icols = g._word_cols(word)
        return self._icols

    def right_mul_gen(self, s):
        """w*s; its length is l(w) + 1 if w(alpha_s) is positive, else l(w) - 1."""
        if not 0 <= s < self.group.n:
            raise IndexError(f"generator index {s} out of range")
        el = GroupElement(self.group, self.group._rmul_gen(self.cols, s), None)
        if self._len is not None:
            el._len = self._len + _root_vec_sign(self.cols[s])
        return el

    def __mul__(self, other):
        """u * v: u's columns stepped right along v's ShortLex word, with
        the length tracked at each step; the inverse is built on first
        read, as for `right_mul_gen`."""
        if not isinstance(other, GroupElement):
            return NotImplemented
        if other.group is not self.group:
            raise GroupMismatchError("elements belong to different groups")
        g = self.group
        cols, length = g._steps(self.cols, self.length(), other.shortlex_nf())
        el = GroupElement(g, cols, None)
        el._len = length
        return el

    def inverse(self):
        el = GroupElement(self.group, self.icols, self.cols)
        el._len = self._len
        return el

    def right_descents(self):
        """Generators s with w(alpha_s) negative, i.e. l(ws) < l(w)."""
        if self._rdes is None:
            self._rdes = frozenset(
                s for s in range(self.group.n) if _root_vec_sign(self.cols[s]) < 0
            )
        return self._rdes

    def shortlex_nf(self, cap=DEFAULT_NF_CAP):
        """Lexicographically smallest reduced word."""
        if self._nf is None:
            word = self.group._walk(self.icols, cap)
            if word is None:
                raise CapExceededError(f"normal-form walk exceeded {cap} steps", cap=cap)
            if self._len is not None and self._len != len(word):
                raise MixedSignRootError("tracked length disagrees with the normal form")
            self._nf = word
            self._len = len(word)
        return self._nf

    def length(self):
        """Known from construction; walked only for an element built
        directly from its columns."""
        if self._len is None:
            self.shortlex_nf()
        return self._len

    def support(self):
        """Generators used by every reduced expression."""
        return frozenset(self.shortlex_nf())

    def word_str(self):
        names = self.group.diagram.names
        return " ".join(names[s] for s in self.shortlex_nf()) or "e"

    def __repr__(self):
        return f"<{self.word_str()}>"


class Ball:
    """BFS ball: elements in discovery order plus counts per length."""

    def __init__(self, group, radius, elements, counts):
        self.group = group
        self.radius = radius
        self.elements = elements
        self.counts = counts

    def of_length(self, k):
        if k < 0:
            raise ValueError("length must be >= 0")
        start = sum(self.counts[:k])
        if k >= len(self.counts):
            return []
        return self.elements[start : start + self.counts[k]]

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


_GROUPS = {}


def group_for(diagram):
    """Shared CoxeterGroup per diagram (groups are immutable contexts)."""
    g = _GROUPS.get(diagram)
    if g is None:
        g = CoxeterGroup(diagram)
        _GROUPS[diagram] = g
    return g


def parse_word(diagram, text):
    """Word from space-separated generator names; a single run of one-letter
    names may be written without spaces ("stuvw"), and a bare "e" (when no
    generator has that name) is the empty word."""
    tokens = text.split()
    if not tokens:
        return ()
    index = diagram._index
    if len(tokens) == 1 and tokens[0] not in index:
        token = tokens[0]
        if token == "e":
            return ()
        if all(ch in index for ch in token):
            return tuple(index[ch] for ch in token)
    out = []
    for tok in tokens:
        if tok not in index:
            raise diagram_mod.DiagramError(f"unknown generator {tok!r} in word")
        out.append(index[tok])
    return tuple(out)


def format_word(diagram, word):
    return " ".join(diagram.names[s] for s in word) or "e"
