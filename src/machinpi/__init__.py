"""Two-term Machin-like formulas for pi with arbitrarily small arguments.

Exact generation (nested square-root tower plus a Gaussian-integer
solve), exact verification, arbitrary-precision pi computation, and
convergence benchmarking.
"""

__version__ = "0.1.0"

from .analysis import (
    ConvergenceReport,
    compare_methods,
    measure_convergence,
    validated_pi_reference,
)
from .exact import GaussianInt
from .machin import (
    MachinFormula,
    VerificationResult,
    check_relation_pair,
    solve_second_term,
    solve_second_term_direct,
    solve_u2,
    verify_formula,
)
from .radicals import RadicalState, U1Selection, eval_radicals, select_u1
from .realnum import FixedReal
from .records import FormulaRecord, build_record, check_record, load_record, write_record
from .series import (
    SeriesResult,
    arctan_conjugate,
    arctan_euler,
    arctan_gregory,
    digits_per_term,
    pi_digits_from_formula,
    pi_digits_from_radicals,
    pi_from_formula,
    pi_from_radicals,
)

__all__ = [
    "ConvergenceReport",
    "FixedReal",
    "FormulaRecord",
    "GaussianInt",
    "MachinFormula",
    "RadicalState",
    "SeriesResult",
    "U1Selection",
    "VerificationResult",
    "arctan_conjugate",
    "arctan_euler",
    "arctan_gregory",
    "build_record",
    "check_record",
    "check_relation_pair",
    "compare_methods",
    "digits_per_term",
    "eval_radicals",
    "load_record",
    "measure_convergence",
    "pi_digits_from_formula",
    "pi_digits_from_radicals",
    "pi_from_formula",
    "pi_from_radicals",
    "select_u1",
    "solve_second_term",
    "solve_second_term_direct",
    "solve_u2",
    "validated_pi_reference",
    "verify_formula",
    "write_record",
]
