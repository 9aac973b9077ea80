"""Numerical engine for worst-case expectations under a volatility band.

Prices cylinder payoffs through the band's nonlinear heat equation, samples
the mutually singular measure family by Monte Carlo, extracts the pathwise
martingale decomposition (value, hedge, monitor) of a solved field, and
verifies the associated norm inequalities empirically.
"""

__version__ = "0.1.0"

from .errors import ConfigError, GExpectError, NumericalError
from .nonlinearity import (MollifiedNonlinearity, VolBand, eval_g,
                           eval_g_scalar, legendre, mollify, sandwich_check,
                           sym_floor)
from .payoff import Expr, PayoffSpec, const, coord, parse_expr, x1, x2, x3
from .pde import (IntervalField, SpaceTimeGrid, ValueField,
                  conditional_expectation, derivatives, g_expectation,
                  refine_study, solve_interval)
from .montecarlo import (ControlFamily, ControlProcess, DualResult,
                         PathBundle, conditional_supremum, derive_seed,
                         dual_value, lp_norm, qv_identity_check,
                         read_family, simulate, write_family)
from .representation import (Decomposition, extract, gmartingale_gap,
                             is_symmetric, monotonicity, residual,
                             residual_rms)
from .inequalities import (H_BUILTINS, HProcess, InequalityReport,
                           apriori_check, bdg_check, difference_check,
                           doob_check, format_table, mollify_check,
                           tower_check)

__all__ = [
    "ConfigError", "GExpectError", "NumericalError",
    "MollifiedNonlinearity", "VolBand", "eval_g", "eval_g_scalar",
    "legendre", "mollify", "sandwich_check", "sym_floor",
    "Expr", "PayoffSpec", "const", "coord", "parse_expr", "x1", "x2", "x3",
    "IntervalField", "SpaceTimeGrid", "ValueField",
    "conditional_expectation", "derivatives", "g_expectation",
    "refine_study", "solve_interval",
    "ControlFamily", "ControlProcess", "DualResult", "PathBundle",
    "conditional_supremum", "derive_seed", "dual_value", "lp_norm",
    "qv_identity_check", "read_family", "simulate", "write_family",
    "Decomposition", "extract", "gmartingale_gap", "is_symmetric",
    "monotonicity", "residual", "residual_rms",
    "H_BUILTINS", "HProcess", "InequalityReport", "apriori_check",
    "bdg_check", "difference_check", "doob_check", "format_table",
    "mollify_check", "tower_check",
    "__version__",
]
