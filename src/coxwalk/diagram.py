"""Coxeter diagrams: parsing, components, subdiagrams, classification.

A diagram is the complete edge-labelled graph on the generators; label 2
means the generators commute and is suppressed in the text format, label 3
is written as a bare edge.  Classification of irreducible diagrams into
finite / affine / compact hyperbolic / other-infinite runs on the exact
Gram signature plus a local-finiteness recursion, not on lookup tables.
"""

import itertools
import math
from enum import Enum

from . import algebra

INF = math.inf

__all__ = [
    "INF",
    "CoxeterDiagram",
    "DiagramClass",
    "DiagramError",
    "ReducibleDiagramError",
    "parse_diagram",
    "components",
    "subdiagram",
    "classify",
    "is_locally_finite",
    "isomorphism",
    "path_diagram",
]


class DiagramError(ValueError):
    """Malformed diagram text or an invalid diagram operation."""


class ReducibleDiagramError(DiagramError):
    """An operation that requires an irreducible diagram got a reducible one."""


def _edge_label(m):
    """An off-diagonal label as inf or an int >= 2.  A non-integral label is
    refused, not truncated: 2.5 would become 2, a commuting pair."""
    if m == INF:
        return m
    try:
        integral = int(m) == m
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise DiagramError(f"edge label {m!r} is not an integer or inf")
    if m < 2:
        raise DiagramError("edge labels must be >= 2 or inf")
    return int(m)


class CoxeterDiagram:
    """Immutable labelled diagram: generator names plus a symmetric label matrix."""

    __slots__ = ("names", "labels", "_index")

    def __init__(self, names, labels):
        names = tuple(names)
        n = len(names)
        if len(set(names)) != n:
            raise DiagramError("duplicate generator names")
        for name in names:
            if not name or any(ch in name for ch in "-:;#") or any(ch.isspace() for ch in name):
                raise DiagramError(f"invalid generator name {name!r}")
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                m = labels[i][j]
                if i == j:
                    if m != 1:
                        raise DiagramError("diagonal labels must be 1")
                else:
                    # validate both labels first: a NaN is never equal to itself
                    m = _edge_label(m)
                    if m != _edge_label(labels[j][i]):
                        raise DiagramError("label matrix is not symmetric")
                row.append(m)
            rows.append(tuple(row))
        self.names = names
        self.labels = tuple(rows)
        self._index = {name: i for i, name in enumerate(names)}

    @property
    def rank(self):
        return len(self.names)

    def label(self, i, j):
        return self.labels[i][j]

    def edges(self):
        """(i, j, m) with i < j and m >= 3."""
        out = []
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                m = self.labels[i][j]
                if m >= 3:
                    out.append((i, j, m))
        return out

    def neighbors(self, i):
        return [j for j in range(self.rank) if j != i and self.labels[i][j] >= 3]

    def has_infinite_label(self):
        return any(math.isinf(m) for row in self.labels for m in row)

    def __eq__(self, other):
        if not isinstance(other, CoxeterDiagram):
            return NotImplemented
        return self.names == other.names and self.labels == other.labels

    def __hash__(self):
        return hash((self.names, self.labels))

    def __repr__(self):
        edges = ", ".join(
            f"{self.names[i]}-{self.names[j]}:{'inf' if math.isinf(m) else m}"
            for i, j, m in self.edges()
        )
        return f"CoxeterDiagram({' '.join(self.names)}; {edges})"

    def to_text(self):
        lines = [" ".join(self.names)]
        tokens = []
        for i, j, m in self.edges():
            if m == 3:
                tokens.append(f"{self.names[i]}-{self.names[j]}")
            else:
                label = "inf" if math.isinf(m) else str(m)
                tokens.append(f"{self.names[i]}-{self.names[j]}:{label}")
        if tokens:
            lines.append(" ".join(tokens))
        return "\n".join(lines) + "\n"


def from_edges(names, edges):
    """Build a diagram from (name_i, name_j, m) triples; omitted pairs get m = 2."""
    names = tuple(names)
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    labels = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    seen = set()
    for a, b, m in edges:
        if a not in index or b not in index:
            raise DiagramError(f"unknown generator in edge {a}-{b}")
        i, j = index[a], index[b]
        if i == j:
            raise DiagramError(f"self-loop on generator {a!r}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise DiagramError(f"edge {a}-{b} specified twice")
        seen.add(key)
        labels[i][j] = labels[j][i] = _edge_label(m)
    return CoxeterDiagram(names, labels)


def parse_diagram(text):
    """Parse the line-oriented format.

    First logical line: whitespace-separated generator names.  Remaining
    tokens: "x-y:m" with m an integer >= 2 in ASCII digits or "inf"; "x-y"
    alone means m = 3; pairs never mentioned commute (m = 2).  "#" starts a
    comment; ";" separates logical lines, so one-liners like "a b; a-b:5"
    work.
    """
    lines = []
    for raw in text.replace(";", "\n").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise DiagramError("empty diagram description")
    names = lines[0].split()
    edges = []
    for line in lines[1:]:
        for token in line.split():
            if ":" in token:
                pair, _, label = token.partition(":")
                label = label.strip().lower()
                if label in ("inf", "infinity", "oo"):
                    m = INF
                # int() would also read "1_0" and non-ASCII digits
                elif label.isascii() and label.isdigit():
                    m = int(label)
                else:
                    raise DiagramError(f"bad label in token {token!r}")
            else:
                pair, m = token, 3
            if pair.count("-") != 1:
                raise DiagramError(f"bad edge token {token!r}")
            a, b = pair.split("-")
            edges.append((a, b, m))
    return from_edges(names, edges)


def components(d):
    """Connected components of the graph on edges with m >= 3, as index tuples."""
    seen = [False] * d.rank
    out = []
    for start in range(d.rank):
        if seen[start]:
            continue
        comp = []
        stack = [start]
        seen[start] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in d.neighbors(i):
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        out.append(tuple(sorted(comp)))
    return tuple(out)


def subdiagram(d, J):
    """Restriction to the generator subset J (indices), names preserved."""
    J = sorted(set(J))
    for i in J:
        if not 0 <= i < d.rank:
            raise DiagramError(f"generator index {i} out of range")
    names = [d.names[i] for i in J]
    labels = [[d.labels[i][j] for j in J] for i in J]
    return CoxeterDiagram(names, labels)


class DiagramClass(Enum):
    FINITE = "Finite"
    AFFINE = "Affine"
    COMPACT_HYPERBOLIC = "CompactHyperbolic"
    OTHER_INFINITE = "OtherInfinite"


def classify(d):
    """Classify an irreducible diagram.

    Finite iff the Gram matrix is positive definite; affine iff it is
    positive semidefinite and singular; otherwise compact hyperbolic iff
    every proper subdiagram is a product of finite ones, else other-infinite.
    Diagrams with an infinite label are never finite or affine, except the
    infinite dihedral diagram itself, which is affine.  A finite label m on
    rank 2 gives the dihedral group of order 2m, and rank 1 the group of
    order 2, so both are finite without a field.  Nor is a diagram of
    rank >= 3 with a label >= 7: by Coxeter's classification (Humphreys,
    Reflection Groups and Coxeter Groups, 2.7 and 4.7) connected finite and
    affine diagrams of rank >= 3 have labels <= 6.  Skipping the Gram matrix
    there avoids fields of huge degree: the field's L is the lcm of the
    finite labels >= 4 (1 if there is none), so labels 7, 11, 13 give
    L = 1001 and degree 360.
    """
    if d.rank == 0:
        raise DiagramError("cannot classify the rank-0 diagram")
    if len(components(d)) != 1:
        raise ReducibleDiagramError("classification requires an irreducible diagram")
    if d.has_infinite_label():
        if d.rank == 2:
            return DiagramClass.AFFINE
    elif d.rank < 3:
        return DiagramClass.FINITE
    elif max(map(max, d.labels)) < 7:
        field = algebra.field_for(d)
        defin = algebra.definiteness(algebra.gram(d, field), field)
        if defin == algebra.Definiteness.POS_DEF:
            return DiagramClass.FINITE
        if defin == algebra.Definiteness.POS_SEMIDEF_SINGULAR:
            return DiagramClass.AFFINE
    if is_locally_finite(d):
        return DiagramClass.COMPACT_HYPERBOLIC
    return DiagramClass.OTHER_INFINITE


def is_locally_finite(d):
    """True iff every proper parabolic is finite.

    It suffices to check the corank-1 subdiagrams: any proper subset sits
    inside one of them, and subgroups of finite groups are finite.
    """
    if d.rank <= 1:
        return True
    for drop in range(d.rank):
        rest = [i for i in range(d.rank) if i != drop]
        sub = subdiagram(d, rest)
        for comp in components(sub):
            if classify(subdiagram(sub, comp)) != DiagramClass.FINITE:
                return False
    return True


def isomorphism(d1, d2):
    """A label-preserving bijection d1 -> d2 as an index tuple, or None."""
    if d1.rank != d2.rank:
        return None
    n = d1.rank
    multiset1 = sorted(sorted(d1.labels[i][j] for j in range(n) if j != i) for i in range(n))
    multiset2 = sorted(sorted(d2.labels[i][j] for j in range(n) if j != i) for i in range(n))
    if multiset1 != multiset2:
        return None
    for perm in itertools.permutations(range(n)):
        ok = True
        for i in range(n):
            for j in range(i + 1, n):
                if d1.labels[i][j] != d2.labels[perm[i]][perm[j]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return perm
    return None


def path_diagram(labels, names=None):
    """Path on len(labels)+1 nodes with consecutive edge labels."""
    n = len(labels) + 1
    if names is None:
        names = _default_names(n)
    edges = [(names[i], names[i + 1], labels[i]) for i in range(n - 1)]
    return from_edges(names, edges)


def _default_names(n):
    base = "stuvwxyzabcdefgh"
    if n <= len(base):
        return [base[i] for i in range(n)]
    return [f"s{i}" for i in range(n)]
