"""Integral currents mod p at desk scale.

Simplicial chains mod p with flat norms and Plateau solvers, classification
certificates for one dimensional area minimizing cones mod p, weighted
geodesic networks and the rotationally symmetric singular surface built from
them, and the open book / Whitney / monotonicity diagnostics used to probe
regularity numerically.

``import modp`` loads no submodule: each public name is imported with its
submodule on first access (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# the public names, by the submodule that defines them
_EXPORTS = {
    "books": ("ConeModP", "OpenBook", "VarifoldSample", "ball_volume", "coherence_angle",
              "density_ratio", "dist_to_book", "excess", "retract_to_book", "sample_cone"),
    "complexes": ("IntegerChain", "ModPClass", "SimplicialComplex", "boundary",
                  "is_cycle_modp", "mass", "reduce_modp", "representative_modp"),
    "cones": ("EuclideanWeight", "NetworkArc", "RayConfiguration", "StructureReport",
              "WeightedNetwork", "barycenter_certificate", "check_structure",
              "fermat_point_grid", "segment_swap_certificate",
              "solve_network", "tree_multiplicities"),
    "flatnorm": ("FlatDecomposition", "PlateauSolution", "brute_force_flat_oracle",
                 "flat_distance_modp", "flat_norm_modp", "mass_in_region", "plateau_modp",
                 "restrict_to_region"),
    "monotonicity": ("MonotonicityReport", "cone_comparison_check", "density_profile",
                     "perp_components", "weighted_monotonicity_check"),
    "taylor": ("RevolvedCurrent", "WeightedMetric", "build_taylor_example", "decay_scan",
               "geodesic_shoot", "tangent_book_at", "weighted_length"),
    "whitney": ("WhitneyCube", "WhitneyDecomposition", "WhitneyDomain", "build_decomposition",
                "global_selection", "is_below", "rho_and_region", "whitney_domain"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_ORIGIN])


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
