"""Quantum strategic games: EWL quantization, strong isomorphisms,
lifted mappings, and equilibrium search."""

from .games import (
    ClassicalGame,
    GameMapping,
    MixedProfile2x2,
    apply_mapping,
    equilibrium_transport_check,
    find_strong_isomorphisms,
    image_game,
    is_strong_isomorphism,
    mixed_nash_2x2,
    pure_nash_equilibria,
    strategic_equivalence,
)
from .linalg import (
    SU2Params,
    basis_index,
    entangler,
    permutation_operator,
    su2,
    tensor,
)
from .ewl import (
    EwlGame,
    StrategySpace,
    parse_space,
    two_param_payoff_closed_form,
)
from .lift import (
    FLIP,
    KEEP,
    AngleTransform,
    LiftedMapping,
    LiftReport,
    operator_identity_suite,
    verify_lift,
)
from .search import (
    GridEquilibria,
    ParamGrid,
    grid_equilibria,
)
from .gamefile import (
    GameFile,
    GameFileError,
    load_game_file,
    parse_game_file,
)

__version__ = "0.1.0"
