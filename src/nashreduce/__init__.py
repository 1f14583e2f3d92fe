"""nashreduce: reduce k-player games to 2-player games, exactly.

The pipeline: a k-player normal-form game is first *linearized* into a
polymatrix game (pairwise interactions only) using linear multiplication
gadgets built from a small library of binary gadgets, then flattened into a
two-player bimatrix game in block imitation form.  Approximate
well-supported equilibria survive both steps: an equilibrium of the output
game projects back to one of the input game.

Everything is computed over exact rationals; no floats enter the core.
"""

from ._rational import ACTIVE, R, rational, rational_str
from .errors import (
    CapExceeded,
    CycleDetected,
    DegenerateGame,
    DimensionMismatch,
    DuplicateOutput,
    NashreduceError,
    NoEquilibriumFound,
    ParameterError,
    ParseError,
    SizeBudgetExceeded,
    ZeroBlockMass,
)
from .model import (
    BimatrixGame,
    NormalFormGame,
    PlayerInfo,
    PolymatrixGame,
    Role,
    VerifyResult,
    Violation,
    iter_profiles,
    profile_index,
    profile_unindex,
    pure_strategy,
    random_normal_form,
    random_polymatrix,
    uniform_strategy,
    validate_mixed,
)
from .gadgets import GADGET_INFO, GADGET_KINDS, GadgetCircuit, Tap
from .multipliers import (
    build_multiplication_chain,
    build_multiplier,
    build_robust_multiplier,
    build_unary_multiplier,
    predicted_player_count,
)
from .reductions import (
    GameMapping,
    ReductionParams,
    bimatrixify,
    linearize,
    lift_to_polymatrix,
    normalize_bimatrix,
    recover_from_bimatrix,
    recover_from_polymatrix,
    recover_full,
    reduce_full,
)
from .solvers import (
    SearchCounters,
    SolverResult,
    brute_force_normal_nash,
    grid_enumerate_wsne,
    lift_to_bimatrix,
    realized_eps,
    support_enumeration_bimatrix,
)
from .sweep import SweepCase, SweepReport, sweep_all, sweep_gadget
from .fileio import (
    read_game,
    read_mapping,
    read_profile,
    write_game,
    write_mapping,
    write_profile,
)

__version__ = "0.1.0"
