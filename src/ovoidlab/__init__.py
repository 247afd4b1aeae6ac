"""ovoidlab: a finite-geometry workbench for PG(3,q) with q = 2^n.

Builds the projective space, the symplectic quadrangle W(q), ovoids,
Singer-cycle ovoidal fibrations and dual grids, and exhaustively checks
the combinatorial and GF(2)-coding statements they satisfy at desk scale
(q = 4, 8, optionally 16).
"""

from .errors import OvoidlabError
from .gfield import ExtFieldCtx, FieldCtx, mult_matrix
from .projspace import GeometryTables, build_geometry
from .symplectic import (DualGrid, SymplecticForm, enumerate_dual_grids,
                         is_isotropic_line, perp_line, polarity_from_ovoid,
                         standard_form)
from .ovoids import (LineClass, Ovoid, classify_line, elliptic_quadric,
                     fit_quadric, is_ovoid, tangent_lines, tits_ovoid)
from .fibration import (Fibration, SingerContext, Spread,
                        common_tangent_spread, fibrate_ovoid,
                        find_regular_spread_in_complex, is_regular_spread,
                        k_stabilizer, singer_context, t_orbit_fibration)
from .gf2code import (BitMat, char_vector, code_C, code_D, in_span,
                      radical_codim_check, span_rank, t_orbit_sum)
from .verify import (VerificationReport, verify_lemma5, verify_main_theorem,
                     verify_proposition1, verify_radical_and_corollary3,
                     verify_segre)

__version__ = "0.1.0"

__all__ = [
    "OvoidlabError", "FieldCtx", "ExtFieldCtx", "mult_matrix",
    "GeometryTables", "build_geometry",
    "SymplecticForm", "DualGrid", "standard_form", "is_isotropic_line",
    "perp_line", "enumerate_dual_grids", "polarity_from_ovoid",
    "Ovoid", "LineClass", "elliptic_quadric", "tits_ovoid", "is_ovoid",
    "classify_line", "tangent_lines", "fit_quadric",
    "SingerContext", "Fibration", "Spread", "singer_context",
    "t_orbit_fibration", "common_tangent_spread", "is_regular_spread",
    "k_stabilizer", "fibrate_ovoid", "find_regular_spread_in_complex",
    "BitMat", "char_vector", "span_rank", "in_span",
    "code_C", "code_D", "radical_codim_check", "t_orbit_sum",
    "VerificationReport", "verify_proposition1", "verify_lemma5",
    "verify_main_theorem", "verify_radical_and_corollary3", "verify_segre",
    "__version__",
]
