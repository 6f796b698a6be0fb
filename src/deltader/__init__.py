"""Exact structure-constant computer algebra for delta-derivations.

The package constructs finite-dimensional anticommutative algebras and Lie
superalgebras from structure constants and solves, in exact arithmetic, the
linear systems defining delta-derivations, centroids, quasiderivations and
delta-superderivations, together with the derived objects built on top of
them: composition rings of half-derivations, root-space decompositions with
their (possibly non-semigroup) gradings, Grassmann envelopes, and
exp-quasiautomorphisms.
"""

from .fields import (
    FieldError,
    DivisionByZero,
    NonInvertible,
    Rationals,
    PrimeField,
    QuotientRing,
    field_from_json,
    field_to_json,
)
from .algebras import (
    Algebra,
    ModuleAction,
    ValidationReport,
    AlgebraError,
    NotClosed,
    GradingMissing,
    FlavorMismatch,
    validate,
    make_abelian,
    make_witt_type,
    make_zassenhaus,
    make_divided_powers,
    make_current,
    make_semidirect,
    make_deformed_zassenhaus,
    make_derivation_algebra,
    make_elduque4,
    make_special_linear,
    make_osp12,
    make_grassmann_envelope,
    algebra_from_json,
    algebra_to_json,
)
from .linmap import LinearMap
from .solver import (
    SolutionSpace,
    solve_delta_derivations,
    solve_module_valued,
    solve_centroid,
    solve_supercentroid,
    solve_quasiderivations,
    solve_superderivations,
    solve_parametric,
    lift_grassmann,
    exp_quasiautomorphism,
    NilpotencyTooDeep,
    is_delta_derivation,
)
from .halfring import (
    CompositionRing,
    NotClosedRing,
    NotCommutative,
    build_composition_ring,
    find_zero_divisors,
    locality_report,
    witt_half_basis,
)
from .gradings import (
    RootDecomposition,
    NonCommuting,
    NonSplitting,
    root_decompose,
    check_semigroup,
    check_prop_root1,
    check_root_sum,
)
from .superstd import (
    IdealBasis,
    compute_s4,
    verify_kernel_containment,
    desk_check_theorems,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
