"""Conditional-instrument simulation of indirect cavity-mode photodetection.

A two-level atom (the pointer) crosses a cavity, exchanges excitation with a
truncated field mode while relaxing and dephasing, and is then read out
projectively.  This package integrates the outcome-resolved superoperator
maps of that measurement, validates them against a full joint Lindblad
solver, and reports outcome probability, information gain and fidelity as
functions of the interaction time.
"""

from .fock import (
    InvalidStateError,
    TruncationMode,
    annihilation_op,
    check_density_matrix,
    fock_state,
    maximally_mixed,
    quadratic_ops,
)
from .instrument import (
    DivergenceError,
    InstrumentBranch,
    ModelParams,
    Preparation,
    build_block_generator,
    conditional_trajectories,
    integrate_instrument,
)
from .metrics import (
    MetricsRecord,
    PositivityError,
    metrics_series,
    sqrtm_psd,
    uhlmann_fidelity,
    von_neumann_entropy,
)
from .oracle import (
    extract_instrument_oracle,
    joint_hamiltonian,
    joint_liouvillian,
    pure_dephasing_rate,
    secular_residual,
)
from .superop import (
    apply_superop,
    choi_matrix,
    sandwich_superop,
    superop_dim,
    unvec,
    vec,
)

__version__ = "0.1.0"
