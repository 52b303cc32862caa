"""Exact-arithmetic verification of generalized Clebsch-Gordan decompositions
for the finite families of the (q-)Askey scheme.

Everything is computed over arbitrary-precision rationals: polynomial values,
contiguity relations, algebra representations on truncated lowest-weight
modules, coproduct images on tensor modules, CG block matrices and their
orthogonality weights. Every identity is certified exactly, with the first
counterexample reported when one fails.
"""

from .algebras import (AlgebraKind, AlgebraTag, CasimirCheck, GradedOperator,
                       Generators, ModuleSpec, build_generators, casimir,
                       check_relations, phi)
from .cgverify import (CGBlock, DegenerateKernelError, Run, WeightData,
                       WeightSolutionError, cg_block, lowest_weight_oracle,
                       orthogonality_weights, random_instance,
                       tensor_lowering_eigenvalue, verify_lowering,
                       verify_raising, verify_weight_grading)
from .coproduct import (CoassocResult, CoproductCoeffs, Delta, algebraic_form,
                        build_delta, check_algebraic_form, check_homomorphism,
                        check_twist_qracah_specialization, coproduct_coeffs,
                        krawtchouk_coassoc)
from .exactmath import (InvalidParameterError, Scalar, SingularParameterError,
                        as_scalar, binomial, format_scalar, hyper_terminating,
                        parse_scalar, pochhammer, q_binomial, q_hyper_terminating,
                        q_pochhammer)
from .families import (ContiguityData, FamilyInstance, FamilyKind,
                       check_contiguity, check_three_term_dual_hahn, contiguity,
                       labels, limit_hahn_to_krawtchouk, limit_racah_to_dual_hahn,
                       make_instance, poly_value)
from .report import TOOL_VERSION, CheckResult, Report, Witness

__version__ = TOOL_VERSION
