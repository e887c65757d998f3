"""The names the `qgame` package exports. A new public name, or a removed
one, changes this list on purpose."""

import types

import qgame

PUBLIC_NAMES = [
    "AngleTransform",
    "ClassicalGame",
    "EwlGame",
    "FLIP",
    "GameFile",
    "GameFileError",
    "GameMapping",
    "GridEquilibria",
    "KEEP",
    "LiftReport",
    "LiftedMapping",
    "MixedProfile2x2",
    "ParamGrid",
    "SU2Params",
    "StrategySpace",
    "apply_mapping",
    "basis_index",
    "entangler",
    "equilibrium_transport_check",
    "find_strong_isomorphisms",
    "grid_equilibria",
    "image_game",
    "is_strong_isomorphism",
    "load_game_file",
    "mixed_nash_2x2",
    "operator_identity_suite",
    "parse_game_file",
    "parse_space",
    "permutation_operator",
    "pure_nash_equilibria",
    "strategic_equivalence",
    "su2",
    "tensor",
    "two_param_payoff_closed_form",
    "verify_lift",
]


def test_public_names_are_the_listed_ones():
    # submodules become package attributes when they are imported, so
    # they are left out
    names = [
        k for k, v in vars(qgame).items() if not k.startswith("_") and not isinstance(v, types.ModuleType)
    ]
    assert sorted(names) == PUBLIC_NAMES
