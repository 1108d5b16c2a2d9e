"""Exact engine for q-analogs of tableau and permutation containment.

The package pairs brute-force enumeration oracles at small sizes with
closed-form polynomial and rational formulas at larger sizes: permutation and
tableau statistics (descents, maj), the row-insertion correspondence, j-set
and j2-set criteria, exact containment identities, and rational convergence
checks for the associated limit values.

The public names below are loaded lazily (PEP 562): ``import qtab`` loads no
submodule, and ``qtab.X`` or ``from qtab import X`` imports the module that
defines X on first use, so a process pays only for the modules it reads.
"""

import importlib

# home module -> the names it exports at package level
_EXPORTS = {
    "bivar": "BivarPoly q_integer qbinomial qfactorial",
    "blocks": "BinaryWord PhiImage ZeroOneMatrix matrix_of phi phi_inverse shuffle",
    "bounds": "BoundReport Eq8Report check_bound eq8_check",
    "containment": """IdentityReport contains enum_inv_containing enum_pair_containing
        enum_perm_containing enum_tab_containing pair_contains tab_contains verify_majgen
        verify_majgen1 verify_permcont1 verify_permcont2 verify_permtotab verify_permtotab_pair""",
    "jcriteria": """JProfile delta delta_bar is_j2_set is_j_set j2_extend_ok j2_series
        j_extend_ok j_profile psi psi2""",
    "jsets": "j2_count j2_set j_set",
    "limits": """ConvergenceReport a_ratio contraction m2_1_lhs m2_1_rhs m3_1_lhs m3_1_rhs
        m3_lhs m3_rhs qlim1_lhs qlim1_rhs t_ratio xi_partial xi_product_with_tail""",
    "permutation": "Permutation involutions permutations standardize",
    "polynomial": "format_decimal",
    "rsk": "rs rs_inverse rs_involution rs_involution_inverse",
    "stats": """a_poly a_poly_enum a_value q_factorial_value t_count t_poly
        t_poly_enum t_value""",
    "tableau": """Partition SkewShape Tableau conjecture_probe enumerate_syt f_poly f_poly_enum
        f_poly_hook partitions skew_syt_count syt_count""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
