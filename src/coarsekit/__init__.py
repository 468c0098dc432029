"""Window checks for coarse structures on finitely generated groups.

Everything runs on finite windows: balls in the word metric, families
parametrized by a radius, and size traces that either stabilize (evidence
of boundedness, reported with the witness set) or keep growing (a genuine
counterexample at that scale).
"""

__version__ = "0.1.0"

from .errors import (
    CoarseKitError,
    CommutativityError,
    CoverFailureError,
    GroupParseError,
    InfiniteStabilizerError,
    InvalidRadiusError,
    MalformedElementError,
    PreconditionError,
    ResourceLimitError,
    SearchFailureError,
    SpaceMismatchError,
    SurjectivityError,
    UnsupportedRankError,
    WindowOverflowError,
    WindowTooSmallError,
)
from .groups import (
    DIH,
    GroupSpec,
    Z,
    ball,
    conjugacy_window,
    cyclic,
    dih_inf,
    free_abelian,
    free_group,
    geodesic_word,
    parse_group_spec,
    product,
    sphere,
)
from .spaces import FiniteSpace, GroupSpace, point_space
from .families import (
    Counterexample,
    FiniteFamily,
    ParamFamily,
    Witness,
    compose_controlled,
    controlled_to_family,
    family_to_controlled,
    finite_family,
    refines,
    shape_translate_family,
    star,
    star_family,
    translate_pair_family,
)
from .structures import (
    CoarseStructure,
    GroupStructure,
    LeftGroupStructure,
    PullbackStructure,
    RightGroupStructure,
    membership_window,
)
from .maps import (
    Certificate,
    MapWindow,
    check_bornologous,
    check_close,
    check_coarsely_proper,
    constant_map,
    floor_div_map,
    identity_map,
    inclusion_z_to_dih,
    mod_map,
    negation_map,
    power_map,
    pullback_structure_equality,
    selection_map,
    squaring_map,
    surjective_equivalence_check,
    table_map,
    translation_map,
)
from .actions import (
    Action,
    ActionInducedStructure,
    coarse_action_certificate,
    cobounded_check,
    commuting_equivalence,
    identity_hom,
    inclusion_hom,
    induced_structure_first,
    induced_structure_second,
    left_translation,
    point_finite_check,
    power_hom,
    right_translation,
    stabilizer_window,
    table_action,
    trivial_action,
    uniformly_bornologous_action_check,
)
from .group_checks import (
    compare_left_right,
    dihedral_demo,
    fc_test,
    multiplication_bornologous_check,
)
from .transfer import (
    TransferData,
    act_source,
    act_target,
    actions_commute_check,
    beta_window_check,
    build_transfer_data,
    compute_cover_constant,
    compute_transfer_sets,
    enumerate_beta_windows,
)

__all__ = [name for name in dir() if not name.startswith("_")]
