"""coxwalk: exact computations in Coxeter groups under the weak order.

Diagrams, exact cyclotomic field arithmetic, the geometric representation,
the reduced-word automaton, infinite-antichain certificates and affine
alcove embeddings, with a CLI that re-derives every recorded fact.
"""

from ._kernel import BACKEND as KERNEL_BACKEND
from .algebra import FieldSpec, field_for, form_value, gram
from .antichain import (
    case_vi_certificate,
    certify_antichain,
    check_good_pair,
    good_pair_family,
)
from .automaton import ReducedWordAutomaton, build as build_automaton
from .affine import embedding_check, recognize_affine
from .diagram import (
    CoxeterDiagram,
    DiagramClass,
    classify,
    components,
    is_locally_finite,
    parse_diagram,
    subdiagram,
)
from .element import CoxeterGroup, GroupElement, format_word, group_for, parse_word

__version__ = "0.1.0"

__all__ = [
    "KERNEL_BACKEND",
    "__version__",
    "FieldSpec",
    "field_for",
    "form_value",
    "gram",
    "CoxeterDiagram",
    "DiagramClass",
    "classify",
    "components",
    "is_locally_finite",
    "parse_diagram",
    "subdiagram",
    "CoxeterGroup",
    "GroupElement",
    "group_for",
    "parse_word",
    "format_word",
    "ReducedWordAutomaton",
    "build_automaton",
    "check_good_pair",
    "good_pair_family",
    "case_vi_certificate",
    "certify_antichain",
    "embedding_check",
    "recognize_affine",
]
