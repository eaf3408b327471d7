"""Exact-arithmetic workbench for sum-product and additive-energy estimates.

The core modules count: additive energies and their moments (``energy``),
collinear triples on Cartesian grids (``incidence``), eigenvalue
certificates for the difference-multiplicity matrices (``spectral``), and
coset geometry of multiplicative subgroups of prime fields (``subgroups``).  ``harness`` bundles the named checks, curated
corpora, and report serialization behind the ``sumprodlab`` CLI.

Everything countable is counted in exact integer or rational arithmetic;
floating point appears only where an eigenvalue or an exponential sum is
itself the object under study, always with an exact cross-check alongside.
"""

__version__ = "0.1.0"  # before the subpackages: harness.report reads it

from . import (energy, errors, families, ground, harness, incidence, setops,
               spectral, subgroups)
from .errors import LabError
from .families import generate_from_string, parse_family
from .setops import GSet, gset_modp, gset_rational, read_gset, write_gset

__all__ = [
    "energy", "errors", "families", "ground", "harness", "incidence",
    "setops", "spectral", "subgroups",
    "LabError", "GSet", "gset_modp", "gset_rational", "read_gset",
    "write_gset", "generate_from_string", "parse_family",
    "__version__",
]
