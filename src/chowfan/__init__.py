"""Exact computation of Chow quotients of projective toric varieties.

Given a complete fan and a saturated sublattice of its cocharacter
lattice, this package computes the quotient fan, the stack monoids and
cycle multiplicities attached to its cones, the universal family (the
terminal common refinement) with its monoids, the broken fibers over
distinguished points, basic-monoid presentations and their tropical dual
cones, and runs executable checks of the structural properties the
construction is supposed to satisfy.  All arithmetic is exact.
"""

from ._record import replace
from .intlinalg import (
    NotASublattice,
    NotSaturated,
    QuotientMap,
    Sublattice,
    full_lattice,
    hermite_normal_form,
    lattice_index,
    lattice_intersection,
    lattice_sum,
    quotient_map,
    saturate,
    sublattice,
    zero_sublattice,
)
from .cones import (
    Cone,
    Fan,
    FanMorphism,
    NoTargetCone,
    NotComplete,
    NotStrictlyConvex,
    affine_slice_type,
    all_faces,
    check_fan_morphism,
    cone_from_generators,
    cone_from_halfspaces,
    dual_cone,
    fan_from_cones,
    image_cone,
    intersect_cones,
    is_complete,
    preimage_cone,
    relative_interior_sample,
    validate_fan,
    zero_cone,
)
from .monoids import (
    AffineMonoid,
    MonoidHom,
    NotAFace,
    UnsupportedMonoid,
    dual_monoid,
    member,
    monoid_from_cone,
    monoid_hom,
    restrict_to_face,
    saturated_monoid,
)
from .stacks import (
    InternalConsistencyError,
    MonoidNotMapped,
    NotMaximalCone,
    StackMorphism,
    ToricStackDatum,
    stabilizer_invariants,
    validate_stack_datum,
    validate_stack_morphism,
    variety_datum,
)
from .chow import (
    ChowQuotient,
    InfiniteIndex,
    chow_quotient,
    chow_stack_datum,
    fiber_dim_cones,
    meeting_cones,
    multiplicity,
)
from .family import (
    BasicMonoidPresentation,
    FiberComplex,
    UniversalFamily,
    VerificationFailed,
    Wall,
    adjacency_dot,
    basic_monoid,
    component_bijection,
    cones_over,
    fiber_complex,
    is_refinement_fixed_point,
    presentation_tuple,
    presentation_value,
    segment_length,
    tropical_moduli_cone,
    universal_family,
    wall_monoid_structure,
    wall_structure,
)
from .verify import (
    CheckReport,
    check_basic_monoid,
    check_equidimensional,
    check_integral,
    check_reduced,
    equidimensional_report,
    reduced_report,
)
from .serialize import (
    decode_cone,
    decode_datum,
    decode_fan,
    decode_monoid,
    decode_sublattice,
)

__version__ = "0.1.0"
