"""The package namespace: every exported name resolves, on first use, to the
object its submodule defines."""

import importlib
import subprocess
import sys

import pytest

import planeheights
from test_cli import _child_env

# each submodule's exports, as the package re-exported them when it imported
# every submodule eagerly
EXPORTS = {
    "automorphism": (
        "InfinityPoint", "PlaneAutomorphism", "compose_maps", "conjugate", "degree_sequence",
        "dynamical_degree", "from_description", "henon", "identity", "indeterminacy_at_infinity",
        "inverse", "is_regular", "load_map_file", "pair", "triangular",
    ),
    "canonical": (
        "RecursionClassification", "HeightEngine", "HeightEstimate", "PeriodicityVerdict",
        "functional_equation_residual", "classify_quadratic_recursion", "hcanonical", "hminus",
        "hplus", "is_periodic", "make_engine",
    ),
    "errors": (
        "DegreeUndefinedError", "MapValidationError", "OutOfRangeError", "PeriodicPointError",
        "PlaneHeightsError", "PolyParseError", "ResourceCapError", "UndecidedPeriodicityError",
    ),
    "heights": ("growth_constant", "naive_height", "naive_height_affine", "normalize"),
    "orbit": (
        "NEG_INFINITY", "CountingEnclosure", "OrbitHeightTracker", "OrbitRecord", "build_orbit_record",
        "count_below", "count_exponential", "counting_enclosure", "hpm_from_h",
        "min_orbit_height_bounds", "orbit_height",
    ),
    "picard": ("DivisorClass", "closed_form_pullbacks", "effective_excess", "intersection_matrix",
               "solve_pullbacks"),
    "ratpoly": ("BivarPoly", "Rat", "parse_poly", "parse_rat"),
}
OWNER = {name: module for module, names in EXPORTS.items() for name in names}


def test_the_export_list_is_the_58_names():
    assert len(OWNER) == 58
    assert sorted(planeheights.__all__) == sorted(OWNER)
    assert planeheights.__version__ == "0.1.0"


@pytest.mark.parametrize("name", sorted(OWNER))
def test_every_export_is_the_defining_modules_object(name):
    module = importlib.import_module(f"planeheights.{OWNER[name]}")
    assert getattr(planeheights, name) is getattr(module, name)
    assert vars(planeheights)[name] is getattr(module, name)  # bound after the first access


def test_star_import_binds_every_export():
    namespace = {}
    exec("from planeheights import *", namespace)
    for name, module in OWNER.items():
        assert namespace[name] is getattr(importlib.import_module(f"planeheights.{module}"), name)


def test_dir_lists_every_export_and_submodule():
    listed = set(dir(planeheights))
    assert set(OWNER) <= listed
    assert set(EXPORTS) <= listed


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        planeheights.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from planeheights import no_such_name", {})


def test_bare_import_loads_no_submodule_until_one_is_used():
    # a fresh process: this one has long since loaded every submodule, so only
    # there does `planeheights.<submodule>` resolve through the package's __getattr__
    code = (
        "import sys, planeheights\n"
        "print(sorted(m for m in sys.modules if m.startswith('planeheights')))\n"
        "print(*(getattr(planeheights, name).__name__ for name in sys.argv[1:]))\n"
        "print(planeheights.hplus is sys.modules['planeheights.canonical'].hplus)\n"
        "print(all(getattr(planeheights, name) is sys.modules[f'planeheights.{name}'] for name in sys.argv[1:]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, *EXPORTS], capture_output=True, text=True,
                          env=_child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['planeheights']",
        " ".join(f"planeheights.{name}" for name in EXPORTS),
        "True",
        "True",
    ]


def test_no_command_loads_dataclasses_or_inspect():
    # a fresh process, as pytest itself imports both; cli, orbit and picard
    # between them import every module any command loads
    code = (
        "import sys, planeheights.cli, planeheights.orbit, planeheights.picard\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env(),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
