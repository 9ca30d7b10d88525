"""Exact truncated vertex-algebra models and energy-bound certification."""

from .errors import (ConfigError, ModelBugError, SpecError, TruncationError,
                     VoacertError)
from .graded_fock import (Automorphism, BasisState, GradedBasis, Model,
                          ModelSpec, StateVector, build_model,
                          enumerate_basis, heisenberg_spec, lattice_spec,
                          virasoro_spec)
from .mode_engine import (Residual, apply_mode, borcherds_residual,
                          commutator_residual, sample_residuals,
                          skewsymmetry_residual, state_product,
                          translation_residual)
from .bound_certifier import (BoundReport, BootstrapVerdict,
                              bootstrap_analyze, certify_orbifold_chain,
                              certify_pair_bound, certify_primary_bound,
                              certify_product_lemma, certify_v1_bound,
                              certify_virasoro_bound,
                              certify_zero_mode_product, fit_exponents,
                              fit_recursion, measure_sector_growth,
                              orbifold_average, trace_domination_check)
from .norm_lab import (NormTable, cstar_gap, damped_norm, graded_norm,
                       graded_norm_certified, norm_table)
from .unitary_structure import (GramFamily, adjoint_residual, family_of,
                                kac_moody_residual, star)

__version__ = "0.1.0"
