"""
voganlab: exact geometry of unramified Vogan varieties.

Orbits as multisegments, closure order, smoothness of orbit closures,
conormal (Pyasetskii) duality, Kazhdan-Lusztig multiplicity matrices,
Arthur-type rectangle decompositions, and stabilizer component groups --
all over exact rational arithmetic.
"""

__version__ = "0.2.0"

from .arthur import ArthurVerdict, Rectangle, is_arthur_type
from .bridge import (
    multiplicity_matrix,
    multisegment_to_permutation,
    rationally_smooth,
)
from .errors import (
    ConfigurationError,
    InputError,
    InternalInvariantError,
    UnsupportedFamilyError,
)
from .geometry import (
    is_smooth_closure,
    mw_involution,
    pyasetskii_dual,
    tangent_dim_at,
)
from .kl import kl_poly
from .lattice import (
    ComponentGroup,
    RootDatum,
    builtin_root_datum,
    center_image,
    smith_normal_form,
    stabilizer_component_group,
)
from .orbits import (
    OrbitRecord,
    closure_leq,
    enumerate_orbits,
    hasse,
    representative,
)
from .variety import (
    Chain,
    VoganVariety,
    build_variety,
    point_variety,
    steinberg_variety,
    two_eigenvalue_variety,
    variety_from_json,
)

__all__ = [
    "ArthurVerdict",
    "Chain",
    "ComponentGroup",
    "ConfigurationError",
    "InputError",
    "InternalInvariantError",
    "OrbitRecord",
    "Rectangle",
    "RootDatum",
    "UnsupportedFamilyError",
    "VoganVariety",
    "build_variety",
    "builtin_root_datum",
    "center_image",
    "closure_leq",
    "enumerate_orbits",
    "hasse",
    "is_arthur_type",
    "is_smooth_closure",
    "kl_poly",
    "multiplicity_matrix",
    "multisegment_to_permutation",
    "mw_involution",
    "point_variety",
    "pyasetskii_dual",
    "rationally_smooth",
    "representative",
    "smith_normal_form",
    "stabilizer_component_group",
    "steinberg_variety",
    "tangent_dim_at",
    "two_eigenvalue_variety",
    "variety_from_json",
]
