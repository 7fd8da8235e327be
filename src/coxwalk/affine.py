"""Affine Weyl groups realized by an integer alcove walk.

Each supported finite root system is one integer Gram matrix of its simple
roots.  Roots, the highest root theta and the affine Coxeter labels are
computed from it in simple-root coordinates with integer pairings.  The
affine group is generated by the simple reflections plus s_0, the
reflection in the hyperplane {<x, theta> = 1}.  The alcove of w = t_lam u
(lam in the coroot lattice, u in the finite Weyl group) is encoded by the
integer vector over the positive roots
n_w(alpha) = <lam, alpha> - [u^-1 alpha < 0], the number of walls
{<x, alpha> = k} between it and the fundamental alcove, signed by side.
Mapped into the product of copies of the signed-magnitude order on the
integers, this is checked to embed the weak order exactly.  The walk uses
crystallographic integers only, never the 2cos(pi/m) field of the group
engine, so the two engines check each other.
"""

import functools
import math
from dataclasses import dataclass

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


def _type_a(n):
    return tuple(
        tuple(2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n))
        for i in range(n)
    )


# Gram matrix (alpha_i | alpha_j) of the simple roots of each supported type,
# scaled to integers.  Every other datum is computed from it.
_GRAMS = {
    "A1": _type_a(1),
    "A2": _type_a(2),
    "A3": _type_a(3),
    "A4": _type_a(4),
    "B3": ((2, -1, 0), (-1, 2, -1), (0, -1, 1)),
    "C2": ((2, -2), (-2, 4)),
    "G2": ((2, -3), (-3, 6)),
}

# m_ij from <a^v, b><b^v, a> = 4 cos^2(pi / m_ij); 4 means the reflections
# in a and b generate an infinite dihedral group
_LABEL_OF_PRODUCT = {0: 2, 1: 3, 2: 4, 3: 6, 4: INF}


class FiniteRootDatum:
    """A supported finite Weyl root system, in simple-root coordinates.

    Roots are integer tuples over the simple roots; `positive_roots` is
    sorted lexicographically, and `highest_root` (theta) dominates every
    positive root componentwise.  `affine_labels` is the Coxeter matrix of
    the affine group on the simple reflections plus s_0 (slot `rank`), the
    reflection in the hyperplane {<x, theta> = 1}.
    """

    def __init__(self, label):
        self.label = label
        self.gram = _GRAMS[label]
        self.rank = len(self.gram)
        self.simple_roots = simples = tuple(
            tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank)
        )

        roots = set(simples)
        frontier = list(simples)
        while frontier:
            images = {self._reflect(r, a) for r in frontier for a in simples}
            frontier = list(images - roots)
            roots |= images
        positive = sorted(r for r in roots if min(r) >= 0)
        if 2 * len(positive) != len(roots):
            raise ArithmeticError("root system closure is inconsistent")
        if len(positive) != EXPECTED_POSITIVE_COUNTS[label]:
            raise ArithmeticError(f"unexpected positive root count for {label}")
        self.positive_roots = tuple(positive)
        self.highest_root = max(positive, key=sum)
        if any(h < c for r in positive for h, c in zip(self.highest_root, r)):
            raise ArithmeticError("no dominating root found")

        # s_0 reflects in a hyperplane orthogonal to theta, so theta stands in
        # for its root
        slots = simples + (self.highest_root,)
        self.affine_labels = tuple(
            tuple(
                1 if i == j
                else _LABEL_OF_PRODUCT[self._coroot_pairing(a, b) * self._coroot_pairing(b, a)]
                for j, b in enumerate(slots)
            )
            for i, a in enumerate(slots)
        )

    def _form(self, x, y):
        """(x | y) for vectors in simple-root coordinates."""
        return sum(
            xi * gij * yj for xi, row in zip(x, self.gram) for gij, yj in zip(row, y)
        )

    def _coroot_pairing(self, x, beta):
        """<x, beta^v> = 2 (x | beta) / (beta | beta), an integer for roots."""
        k, rem = divmod(2 * self._form(x, beta), self._form(beta, beta))
        if rem:
            raise ArithmeticError("pairing with a coroot is not an integer")
        return k

    def _reflect(self, x, beta):
        """s_beta(x) = x - <x, beta^v> beta."""
        k = self._coroot_pairing(x, beta)
        return tuple(a - k * b for a, b in zip(x, beta))

    def __repr__(self):
        return f"FiniteRootDatum({self.label})"


@functools.lru_cache(maxsize=None)
def root_datum(label):
    if label not in SUPPORTED_TYPES:
        raise UnsupportedAffineTypeError(f"unsupported type {label!r}")
    return FiniteRootDatum(label)


def phi_leq(a, b):
    """Componentwise signed-magnitude comparison of alcove vectors."""
    if len(a) != len(b):
        raise ValueError("alcove vectors of different lengths")
    return all(z_leq(x, y) for x, y in zip(a, b))


def alcove_coords(datum, word):
    """Alcove vector of the element spelled by `word` over the affine
    generators (0..rank-1 the simple reflections, rank for s_0), as a tuple
    over `datum.positive_roots`.  A letter outside 0..rank raises IndexError.

    The element is kept as w = t_lam u: lam by its pairings <lam, alpha_j>
    with the simple roots, u by the images u^-1(alpha_j).  Letters act as
    right multiplications in word order: s_i replaces u by u s_i, and
    s_0 = t_(theta^v) s_theta adds u(theta^v) to lam and replaces u by
    u s_theta.  Then n_w(alpha) = <lam, alpha> - [u^-1 alpha < 0].
    """
    theta = datum.highest_root
    lam = [0] * datum.rank
    inv = list(datum.simple_roots)
    for s in word:
        # a bare index would read letter -1 as the last simple reflection
        if not 0 <= s <= datum.rank:
            raise IndexError(f"generator index {s} out of range")
        if s == datum.rank:
            lam = [l + datum._coroot_pairing(b, theta) for l, b in zip(lam, inv)]
            beta = theta
        else:
            beta = datum.simple_roots[s]
        inv = [datum._reflect(b, beta) for b in inv]
    values = []
    for alpha in datum.positive_roots:
        image = [sum(c * b[k] for c, b in zip(alpha, inv)) for k in range(datum.rank)]
        values.append(
            sum(c * l for c, l in zip(alpha, lam)) - (1 if min(image) < 0 else 0)
        )
    return tuple(values)


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
        total = sum(abs(v) for v in vec)
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
