"""Exact naive and canonical heights of rational points under plane
polynomial automorphisms, with orbit point counting and the blow-up
intersection calculus.

Submodules load on first use: `import planeheights` runs only this file,
and the first access to an exported name (`planeheights.hplus`, or
`from planeheights import hplus`) imports the submodule that defines it
and binds the name here, so later accesses are plain attribute reads.
`planeheights.<submodule>` resolves the same way."""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_SUBMODULE_OF = {
    name: module
    for module, names in (
        ("automorphism", (
            "InfinityPoint", "PlaneAutomorphism", "compose_maps", "conjugate", "degree_sequence",
            "dynamical_degree", "from_description", "henon", "identity", "indeterminacy_at_infinity",
            "inverse", "is_regular", "load_map_file", "pair", "triangular",
        )),
        ("canonical", (
            "RecursionClassification", "HeightEngine", "HeightEstimate", "PeriodicityVerdict",
            "functional_equation_residual", "classify_quadratic_recursion", "hcanonical", "hminus",
            "hplus", "is_periodic", "make_engine",
        )),
        ("errors", (
            "DegreeUndefinedError", "MapValidationError", "OutOfRangeError", "PeriodicPointError",
            "PlaneHeightsError", "PolyParseError", "ResourceCapError", "UndecidedPeriodicityError",
        )),
        ("heights", ("growth_constant", "naive_height", "naive_height_affine", "normalize")),
        ("orbit", (
            "NEG_INFINITY", "CountingEnclosure", "OrbitHeightTracker", "OrbitRecord",
            "build_orbit_record", "count_below", "count_exponential", "counting_enclosure",
            "hpm_from_h", "min_orbit_height_bounds", "orbit_height",
        )),
        ("picard", (
            "DivisorClass", "closed_form_pullbacks", "effective_excess", "intersection_matrix",
            "solve_pullbacks",
        )),
        ("ratpoly", ("BivarPoly", "Rat", "parse_poly", "parse_rat")),
    )
    for name in names
}
_SUBMODULES = frozenset(_SUBMODULE_OF.values())

__all__ = list(_SUBMODULE_OF)


def __getattr__(name):
    # only called for a name not yet in this module's globals
    if name in _SUBMODULES:  # the import binds it in this module's globals
        return _import_module(f"{__name__}.{name}")
    if name not in _SUBMODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_SUBMODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})

