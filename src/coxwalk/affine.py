"""Affine Weyl groups realized by alcove geometry.

A supported finite root system is realized with exact rational ambient
coordinates; the affine group is generated by the simple reflections plus
the affine reflection in the hyperplane {<x, theta> = 1} through the
highest root theta.  The alcove of a group element w is w applied to the
fundamental alcove, encoded by the integer vector (n_w^alpha) over the
positive roots: n_w^alpha = floor(<w p0, alpha>) for a rational interior
point p0.  Mapped into the product of copies of the signed-magnitude order
on the integers, this is checked to embed the weak order exactly.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import element as element_mod
from .diagram import CoxeterDiagram, DiagramClass, classify, isomorphism

INF = math.inf

SUPPORTED_TYPES = ("A1", "A2", "A3", "A4", "B3", "C2", "G2")

# Largest ball embedding_check accepts.  The check compares every ordered
# pair, so its cost grows with the square of the ball: 235 elements (affine
# A2, radius 12) already take seconds.  The in-repo checks use at most 64.
EMBEDDING_BALL_CAP = 256

EXPECTED_POSITIVE_COUNTS = {
    "A1": 1,
    "A2": 3,
    "A3": 6,
    "A4": 10,
    "B3": 9,
    "C2": 4,
    "G2": 6,
}

__all__ = [
    "z_leq",
    "phi_leq",
    "FiniteRootDatum",
    "AlcoveVector",
    "UnsupportedAffineTypeError",
    "root_datum",
    "recognize_affine",
    "alcove_coords",
    "embedding_check",
    "EMBEDDING_BALL_CAP",
    "EmbeddingReport",
    "SUPPORTED_TYPES",
]


class UnsupportedAffineTypeError(ValueError):
    """The diagram is affine but outside the tabulated realizations."""


def z_leq(i, j):
    """Signed-magnitude order on the integers: 0 is the minimum, and chains
    grow along a fixed sign."""
    if abs(i) > abs(j):
        return False
    return i == 0 or (i > 0) == (j > 0)


# ---------------------------------------------------------------------------
# exact rational linear algebra (tiny systems)

def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _solve(matrix, rhs):
    """Solve a small nonsingular rational system by Gaussian elimination."""
    n = len(matrix)
    a = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for k in range(n):
        piv = None
        for i in range(k, n):
            if a[i][k] != 0:
                piv = i
                break
        if piv is None:
            raise ArithmeticError("singular system")
        a[k], a[piv] = a[piv], a[k]
        inv = Fraction(1) / a[k][k]
        a[k] = [x * inv for x in a[k]]
        for i in range(n):
            if i != k and a[i][k] != 0:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [a[i][n] for i in range(n)]


_SIMPLE_ROOTS = {
    "A1": ((1, -1),),
    "A2": ((1, -1, 0), (0, 1, -1)),
    "A3": ((1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1)),
    "A4": ((1, -1, 0, 0, 0), (0, 1, -1, 0, 0), (0, 0, 1, -1, 0), (0, 0, 0, 1, -1)),
    "B3": ((1, -1, 0), (0, 1, -1), (0, 0, 1)),
    "C2": ((1, -1), (0, 2)),
    "G2": ((1, -1, 0), (-1, 2, -1)),
}


@dataclass(frozen=True)
class _AffineMap:
    """x -> A x + b with exact rational entries."""

    matrix: tuple
    offset: tuple

    def __call__(self, v):
        return tuple(_dot(row, v) + o for row, o in zip(self.matrix, self.offset))

    def compose(self, other):
        rows = tuple(
            tuple(_dot(r, [other.matrix[k][j] for k in range(len(r))]) for j in range(len(r)))
            for r in self.matrix
        )
        off = tuple(_dot(r, other.offset) + o for r, o in zip(self.matrix, self.offset))
        return _AffineMap(rows, off)

    def is_identity(self):
        n = len(self.matrix)
        if any(o != 0 for o in self.offset):
            return False
        return all(
            self.matrix[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n)
        )


def _reflection_map(alpha, dim):
    """Linear reflection through the hyperplane orthogonal to alpha."""
    norm = _dot(alpha, alpha)
    rows = []
    for i in range(dim):
        row = []
        for j in range(dim):
            val = Fraction(1 if i == j else 0) - Fraction(2 * alpha[i] * alpha[j], norm)
            row.append(val)
        rows.append(tuple(row))
    return _AffineMap(tuple(rows), tuple(Fraction(0) for _ in range(dim)))


def _affine_reflection_map(theta, level, dim):
    """Reflection in the hyperplane {<x, theta> = level}."""
    norm = _dot(theta, theta)
    lin = _reflection_map(theta, dim)
    off = tuple(Fraction(2 * level * theta[i], norm) for i in range(dim))
    return _AffineMap(lin.matrix, off)


class FiniteRootDatum:
    """A supported finite Weyl root system plus its affine realization."""

    def __init__(self, label):
        simples = [tuple(Fraction(x) for x in v) for v in _SIMPLE_ROOTS[label]]
        self.label = label
        self.rank = len(simples)
        self.dim = len(simples[0])
        self.simple_roots = tuple(simples)
        self._gram = [[_dot(a, b) for b in simples] for a in simples]

        roots = set(simples)
        frontier = list(simples)
        refl = [_reflection_map(a, self.dim) for a in simples]
        while frontier:
            nxt = []
            for r in frontier:
                for m in refl:
                    img = m(r)
                    if img not in roots:
                        roots.add(img)
                        nxt.append(img)
            frontier = nxt

        coords = {r: self._simple_coords(r) for r in roots}
        positive = [r for r in roots if all(c >= 0 for c in coords[r])]
        if 2 * len(positive) != len(roots):
            raise ArithmeticError("root system closure is inconsistent")
        if len(positive) != EXPECTED_POSITIVE_COUNTS[label]:
            raise ArithmeticError(f"unexpected positive root count for {label}")
        positive.sort(key=lambda r: coords[r])
        self.positive_roots = tuple(positive)
        self.positive_coords = tuple(coords[r] for r in positive)

        highest = None
        for r in positive:
            if all(
                all(a >= b for a, b in zip(coords[r], coords[q])) for q in positive
            ):
                highest = r
        if highest is None:
            raise ArithmeticError("no dominating root found")
        self.highest_root = highest
        self.highest_coords = coords[highest]

        gens = [_reflection_map(a, self.dim) for a in simples]
        gens.append(_affine_reflection_map(highest, 1, self.dim))
        self.generators = tuple(gens)
        for g in gens:
            if not g.compose(g).is_identity():
                raise ArithmeticError("generator is not an involution")
        self.affine_labels = self._coxeter_matrix()

    def _simple_coords(self, root):
        rhs = [_dot(root, a) for a in self.simple_roots]
        return tuple(_solve(self._gram, rhs))

    def _coxeter_matrix(self, cap=64):
        n = len(self.generators)
        mat = [[1] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                prod = self.generators[i].compose(self.generators[j])
                cur = prod
                # order of the product map; past the cap the pair is free (m = oo)
                order = INF
                for k in range(1, cap + 1):
                    if cur.is_identity():
                        order = k
                        break
                    cur = cur.compose(prod)
                mat[i][j] = mat[j][i] = order
        return tuple(tuple(row) for row in mat)

    def interior_point(self, variant=0):
        """A rational point inside the fundamental alcove.

        Built from the dual basis: <p, alpha_i> = t_i > 0 with
        sum t_i m_i < 1 for the highest root theta = sum m_i alpha_i, so all
        positive-root pairings are strictly between 0 and 1.
        """
        m = self.highest_coords
        if variant == 0:
            weights = [Fraction(1)] * self.rank
        else:
            weights = [Fraction(2 + (i % 3)) for i in range(self.rank)]
        denom = 1 + sum(w * mi for w, mi in zip(weights, m))
        t = [w / denom for w in weights]
        # p = sum_i t_i omega_i with omega_i the dual basis of the simples
        coeffs = _solve(self._gram, t)
        point = [Fraction(0)] * self.dim
        for c, a in zip(coeffs, self.simple_roots):
            for k in range(self.dim):
                point[k] += c * a[k]
        point = tuple(point)
        for alpha in self.positive_roots:
            val = _dot(point, alpha)
            if not 0 < val < 1:
                raise ArithmeticError("interior point escaped the fundamental alcove")
        return point

    def __repr__(self):
        return f"FiniteRootDatum({self.label})"


@functools.lru_cache(maxsize=None)
def root_datum(label):
    if label not in SUPPORTED_TYPES:
        raise UnsupportedAffineTypeError(f"unsupported type {label!r}")
    return FiniteRootDatum(label)


class AlcoveVector:
    """Map from the ordered positive roots to the integers n_w^alpha."""

    __slots__ = ("datum", "values")

    def __init__(self, datum, values):
        self.datum = datum
        self.values = tuple(values)

    def __getitem__(self, idx):
        return self.values[idx]

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def coord_for_root(self, root):
        return self.values[self.datum.positive_roots.index(root)]

    def __eq__(self, other):
        if not isinstance(other, AlcoveVector):
            return NotImplemented
        return self.datum is other.datum and self.values == other.values

    def __hash__(self):
        return hash((id(self.datum), self.values))

    def __repr__(self):
        return f"AlcoveVector({self.values})"


def phi_leq(a, b):
    """Componentwise signed-magnitude comparison of alcove vectors."""
    if a.datum is not b.datum:
        raise ValueError("alcove vectors use different root orderings")
    return all(z_leq(x, y) for x, y in zip(a.values, b.values))


def alcove_coords(datum, word, variant=0):
    """Alcove vector of the element spelled by `word` over the affine
    generators (0..rank-1 finite, rank = affine node).

    The word acts on an interior point of the fundamental alcove; the
    leftmost letter is the outermost reflection.
    """
    pt = datum.interior_point(variant)
    for s in reversed(word):
        pt = datum.generators[s](pt)
    values = []
    for alpha in datum.positive_roots:
        val = _dot(pt, alpha)
        if val.denominator == 1:
            raise ArithmeticError("alcove point landed on a wall")
        values.append(math.floor(val))
    return AlcoveVector(datum, values)


def recognize_affine(d):
    """Identify an affine diagram among the supported realizations.

    Returns (datum, mapping) where mapping[i] is the realization generator
    slot of diagram generator i.  Raises UnsupportedAffineTypeError when the
    diagram is affine but not tabulated.
    """
    if classify(d) != DiagramClass.AFFINE:
        raise ValueError("diagram is not affine")
    for label in SUPPORTED_TYPES:
        datum = root_datum(label)
        if d.rank != datum.rank + 1:
            continue
        perm = isomorphism(d, CoxeterDiagram(d.names, datum.affine_labels))
        if perm is not None:
            return datum, perm
    raise UnsupportedAffineTypeError(
        f"affine diagram {d!r} has no tabulated realization"
    )


@dataclass
class EmbeddingReport:
    type_label: str
    radius: int
    pairs_checked: int
    violations: list
    length_mismatches: list
    elements: int

    @property
    def ok(self):
        return not self.violations and not self.length_mismatches

    def to_payload(self):
        return {
            "type": self.type_label,
            "radius": self.radius,
            "elements": self.elements,
            "pairs_checked": self.pairs_checked,
            "violations": self.violations,
            "length_mismatches": self.length_mismatches,
        }


def embedding_check(d, radius):
    """Exhaustive bidirectional check on a ball: weak order v <= w iff the
    alcove vectors compare componentwise, and length equals the sum of
    absolute alcove coordinates.  A ball of more than EMBEDDING_BALL_CAP
    elements raises CapExceededError."""
    datum, mapping = recognize_affine(d)
    group = element_mod.group_for(d)
    ball = group.ball(radius, cap=EMBEDDING_BALL_CAP)
    words = [el.shortlex_nf() for el in ball.elements]
    vectors = [
        alcove_coords(datum, tuple(mapping[s] for s in word)) for word in words
    ]

    length_mismatches = []
    for el, vec in zip(ball.elements, vectors):
        total = sum(abs(v) for v in vec.values)
        if total != el.length():
            length_mismatches.append(
                {"word": el.word_str(), "length": el.length(), "sum_abs": total}
            )

    violations = []
    pairs = 0
    els = ball.elements
    for i, v in enumerate(els):
        for j, w in enumerate(els):
            pairs += 1
            weak = group.weak_leq(v, w)
            phi = phi_leq(vectors[i], vectors[j])
            if weak != phi:
                violations.append(
                    {
                        "v": v.word_str(),
                        "w": w.word_str(),
                        "weak_leq": weak,
                        "phi_leq": phi,
                    }
                )
    return EmbeddingReport(
        type_label=datum.label,
        radius=radius,
        pairs_checked=pairs,
        violations=violations,
        length_mismatches=length_mismatches,
        elements=len(els),
    )
