"""Online min-max-share allocation of indivisible chores.

A library for stress-testing online MMS allocation: the pressure-greedy
online allocator with power-of-two value rounding and its bi-value variant,
exact MMS oracles and certified bounds, an exact simulator for the stacking
game that certifies the allocator's pressure bounds, and adaptive
adversarial games that force any online policy toward the trivial ratio n.
"""

from .core import (
    Allocation,
    FairdivError,
    Instance,
    InstanceStats,
    InvariantViolation,
    ParseError,
    ValueTables,
    allocation_to_json,
    format_rational,
    instance_digest,
    instance_stats,
    instance_to_json,
    load_allocation,
    load_instance,
    parse_rational,
)
from .mms import (
    AgentMms,
    InstanceTooLarge,
    agent_type_shares,
    check_mms_decomposition,
    mms_exact,
    per_type_share,
)
from .allocator import (
    BiValuePolicy,
    DumpToOnePolicy,
    ExternalPolicy,
    Policy,
    PressureGreedyPolicy,
    PressureState,
    RoundRobinPolicy,
    RunTrace,
    SeededMixturePolicy,
    bi_value_merges,
    make_policy,
    round_up_pow2,
    run_online,
    validate_pressure_trace,
)
from .stacking import (
    BoundProfile,
    GridGame,
    StackingFunction,
    StackingOperation,
    allocator_to_stacking,
    apply_operation,
    check_bound,
    contiguify,
    integral_F,
    replay_stacking_trace,
)
from .adversary import (
    GameResult,
    RatioCertificate,
    RecursiveAdversary,
    TwoAgentAdversary,
    agent_mms,
    certify_ratio,
    check_O1_O2,
    make_recursive_adversary,
    mms_report,
    play_game,
    verify_certificate,
)
from .harness import (
    ExperimentReport,
    GeneratorConfig,
    generate_instance,
    leq_two_plus_sqrt3,
    policy_zoo,
    run_experiment,
)

__version__ = "0.1.0"
