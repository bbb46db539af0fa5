"""Exact combinatorics of window-constrained occupancy sequences.

Configurations with bounded three-column sums biject with rigged partitions;
the bijection preserves degree and underlies Gordon-type fermionic character
identities, all of which this package verifies exactly, on two independent
code paths, with brute-force enumeration as the oracle at small sizes.
"""

from .bijection import EMPTY, RiggedPartition, RiggingError, e0, e1, iota, kappa, multiplicities
from .characters import (
    RestrictedSet,
    RiggingFloor,
    chi_closed,
    config_sum,
    enumerate_rigged,
    floor_for,
    initial_columns_set,
    member,
    rigged_sum,
)
from .configuration import (
    ZERO,
    AdmissibilityError,
    Configuration,
    InternalCheckError,
    enumerate_configurations,
    is_admissible,
    l_functional,
    s_functional,
    weight,
)
from .identities import VerifyReport, verify_all
from .moves import (
    FreeParticle,
    MoveError,
    ParticleSighting,
    Separation,
    build_free_configuration,
    free_particle,
    highest_particle,
    left_move,
    lowest_particle,
    move_all,
    move_cth,
    particle_positions,
    pass_particle,
    passing_history,
    right_move,
    separate_highest,
)
from .phases import gordon_phase, phase
from .qseries import QPolynomial, gordon_quadratic_form, inv_pochhammer, q_binomial, quadratic_form_Q

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError",
    "Configuration",
    "EMPTY",
    "FreeParticle",
    "InternalCheckError",
    "MoveError",
    "ParticleSighting",
    "QPolynomial",
    "RestrictedSet",
    "RiggedPartition",
    "RiggingError",
    "RiggingFloor",
    "Separation",
    "VerifyReport",
    "ZERO",
    "build_free_configuration",
    "chi_closed",
    "config_sum",
    "e0",
    "e1",
    "enumerate_configurations",
    "enumerate_rigged",
    "floor_for",
    "free_particle",
    "gordon_phase",
    "gordon_quadratic_form",
    "highest_particle",
    "initial_columns_set",
    "inv_pochhammer",
    "iota",
    "is_admissible",
    "kappa",
    "l_functional",
    "left_move",
    "lowest_particle",
    "member",
    "move_all",
    "move_cth",
    "multiplicities",
    "particle_positions",
    "pass_particle",
    "passing_history",
    "phase",
    "q_binomial",
    "quadratic_form_Q",
    "right_move",
    "rigged_sum",
    "s_functional",
    "separate_highest",
    "verify_all",
    "weight",
]
