"""Payoff-query algorithms for approximate Nash equilibria in large
(small-influence) multi-player games, with exact verifiers, sampling
oracles, seeded game generators and an experiment CLI."""

from .games import (
    Game,
    IndependentGame,
    LargenessReport,
    MixedProfile,
    RegretReport,
    TensorGame,
    check_largeness,
    mixed_payoff_table,
    regret_report,
)
from .oracles import (
    MixedEstimate,
    OracleSession,
    StochasticGame,
    binary_sample_count,
    blend_binary,
    blend_kaction,
    kaction_sample_count,
)
from .families import (
    LinearInfluenceGame,
    LowerBoundGame,
    gen_linear_influence,
    gen_lower_bound,
    gen_tiny_tensor,
    make_game,
)
from .binary import (
    BadGoodLabels,
    DynamicsParams,
    communication_dynamics,
    curve_band,
    curve_dynamics,
    curve_regret_bound,
    one_step,
    plane_dynamics,
    plane_residual,
    two_step,
)
from .continuous import Trajectory, simulate_curve_flow, simulate_plane_flow
from .blocks import (
    TruncatedTriangle,
    block_update,
    block_update_bound,
    compare_methods,
    left_sum,
    max_left_sum,
)
from .reports import RunReport

__version__ = "0.1.0"
