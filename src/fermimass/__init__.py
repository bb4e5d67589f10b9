"""Fermion mass matrices, vacuum geometry and lattice Dirac spectra for
spontaneously broken gauge theories."""

from .clifford import CliffordAlgebra, build_clifford
from .group_rep import (
    LieAlgebraRep,
    commutant_check,
    direct_sum,
    exp_map,
    isotropy_algebra,
)
from .higgs_vacuum import (
    HiggsModel,
    SaddleConverged,
    VacuumSolution,
    gradient,
    hessian,
    minimize,
    potential_eval,
    unitary_gauge_project,
)
from .lattice_dirac import (
    CurvatureResult,
    LatticeOperator,
    NonHermitian,
    TorusLattice,
    bochner_laplacian,
    branch_momentum_shifts,
    build_vacuum_connection,
    build_vacuum_dirac,
    contraction_residual,
    dirac_potential,
    expected_squared_spectrum,
    fluctuation_operator,
    gauge_transform,
    lagrangian_density,
    mean_mass,
    relative_curvature,
    spectrum,
    wilson_flatness,
)
from .model_config import ModelConfig, ModelError, load_model, save_model
from .operator_io import dump_operator, load_operator, read_spectrum_csv, write_spectrum_csv
from .reference import REGISTRY, ew_reference, resolve_model
from .tolerances import DEFAULT, Tolerances
from .yukawa_mass import (
    BlockStructureViolation,
    ChiralFermionRep,
    LemmaReport,
    MassBlock,
    MassData,
    YukawaMap,
    apply_yukawa,
    check_equivariance,
    lemma_verify,
    mass_data_from_operator,
    mass_matrix,
    reconstruction_residual,
)

__version__ = "0.1.0"
