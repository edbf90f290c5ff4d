"""Reward shaping for Buchi objectives on labelled MDPs.

Pipeline: parse a Buchi automaton (HOA subset) and a labelled MDP, build
their product with acceptance on branches, reshape it into reachability,
total-reward or reward-biased-discount form, solve exactly or learn
tabularly, and cross-check the three views against an independent end
component oracle.
"""

from .automata import (
    HoaError,
    HoaSemanticError,
    HoaSyntaxError,
    Nba,
    complete_with_trap,
    is_complete,
    is_deterministic,
    parse_hoa,
)
from .learn import LearnConfig, QTable, TrainResult, UniformStream, train
from .mdp import (
    Diagnostic,
    Mdp,
    MdpFormatError,
    dump_mdp,
    load_mdp,
    mdp_from_json,
    mdp_to_json,
)
from .mdp import validate as validate_mdp
from .oracle import (
    BuchiResult,
    EndComponent,
    PolicyIterationError,
    buchi_value,
    mec_decomposition,
    policy_buchi_probability,
)
from .product import (
    AlphabetMismatchError,
    Branch,
    DeadEndError,
    IncompleteAutomatonError,
    Pair,
    ProductError,
    ProductMdp,
    Strategy,
    build_product,
)
from .shaping import (
    AugmentedModel,
    Mode,
    PayoffSpec,
    augment,
    simulate_batch,
)
from .solvers import (
    ConvergenceError,
    ValueVector,
    evaluate_policies,
    evaluate_policy,
    greedy_policy,
    solve_optimal,
)
from .verify import (
    SweepRow,
    TailCheck,
    ThresholdReport,
    VerifyReport,
    tail_check,
    threshold_sweep,
    verify_instance,
)

__version__ = "0.1.0"
