"""rigidity-forge: exact-arithmetic distance-geometry verification.

Builds finite unit-distance rigidity gadgets with rational squared-distance
certificates, replays their forcing arguments as machine-checkable
derivations, and validates the derivations against concrete distance
preserving models (tower conjugations and function-field isometries).
"""

from .cm import Point, Vec2, affinely_dependent3, cm3, cm4, rational_point, sqdist
from .engine import (
    Derivation,
    FactStore,
    apply_rule,
    assert_certificate,
    check_derivation,
    replay,
)
from .gadgets import (
    AffineComb,
    DotZero,
    Gadget,
    VecEq,
    VecScale,
    build_division,
    build_kempe,
    build_perp_transfer,
    build_rhombus_chain,
    build_translation_bridge,
)
from .models import (
    Embedding,
    ModelMap,
    OrthoAffine,
    conjugation_model,
    eps_rotation_model,
    identity_model,
    make_pythagorean_rotation,
    verify_preservation,
    verify_structure,
)
from .scalars import QQ, FunElem, Rational, TowerDesc, TowerElem, adjoin_sqrt, tower_conjugate

__version__ = "0.1.0"

__all__ = [
    "Point",
    "Vec2",
    "affinely_dependent3",
    "cm3",
    "cm4",
    "rational_point",
    "sqdist",
    "Derivation",
    "FactStore",
    "apply_rule",
    "assert_certificate",
    "check_derivation",
    "replay",
    "AffineComb",
    "DotZero",
    "Gadget",
    "VecEq",
    "VecScale",
    "build_division",
    "build_kempe",
    "build_perp_transfer",
    "build_rhombus_chain",
    "build_translation_bridge",
    "Embedding",
    "ModelMap",
    "OrthoAffine",
    "conjugation_model",
    "eps_rotation_model",
    "identity_model",
    "make_pythagorean_rotation",
    "verify_preservation",
    "verify_structure",
    "QQ",
    "FunElem",
    "Rational",
    "TowerDesc",
    "TowerElem",
    "adjoin_sqrt",
    "tower_conjugate",
    "__version__",
]
