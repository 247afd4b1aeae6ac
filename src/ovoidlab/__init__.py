"""ovoidlab: a finite-geometry workbench for PG(3,q) with q = 2^n.

Builds the projective space, the symplectic quadrangle W(q), ovoids,
Singer-cycle ovoidal fibrations and dual grids, and exhaustively checks
the combinatorial and GF(2)-coding statements they satisfy at desk scale
(q = 4, 8, optionally 16).

The names below are loaded from their submodule on first use, so that a
command imports only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# the re-exported names of each submodule
_EXPORTS = {
    "errors": ["OvoidlabError"],
    "gfield": ["FieldCtx", "ExtFieldCtx", "mult_matrix"],
    "projspace": ["GeometryTables", "build_geometry"],
    "symplectic": ["SymplecticForm", "DualGrid", "perp_line",
                   "enumerate_dual_grids", "polarity_from_ovoid"],
    "ovoids": ["Ovoid", "elliptic_quadric", "tits_ovoid", "is_ovoid",
               "tangent_lines", "fit_quadric"],
    "fibration": ["SingerContext", "Fibration", "Spread", "singer_context",
                  "t_orbit_fibration", "common_tangent_spread",
                  "is_regular_spread", "find_regular_spread_in_complex"],
    "gf2code": ["BitMat", "span_rank", "in_span", "code_C", "code_D",
                "radical_codim_check", "t_orbit_sum"],
    "verify": ["VerificationReport", "verify_proposition1", "verify_lemma5",
               "verify_main_theorem", "verify_radical_and_corollary3",
               "verify_segre"],
}
_SOURCE = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
