"""Arithmetic of F_q[t] aimed at Wieferich and Wilson prime phenomena.

The package provides finite fields and their towers (gf), polynomials
with fast modular arithmetic (poly), prime enumeration (irr), full and
partial factorization (factor), the Carlitz quantities [n], L_n, D_n
and their perturbations (carlitz), three arithmetic derivatives
(deriv), the equivalent congruence conditions defining Wieferich and
Wilson primes (congruence), degree surveys and reports (survey), the
recorded examples (recorded), and a command line front end (cli).
canonical_json lives here, where every command that prints JSON has
already loaded it.
"""

import json

from .errors import FqwilsonError
from .gf import (
    Field,
    FieldElement,
    default_modulus,
    make_extension,
    make_prime_field,
    parse_field,
)
from .irr import PrimeContext, count_irreducibles, is_irreducible, iter_monic_irreducibles
from .poly import Poly, format_poly, parse_poly

__version__ = "0.1.0"


def canonical_json(obj) -> str:
    """The one JSON shape used everywhere bytes must be reproducible."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


__all__ = [
    "Field",
    "FieldElement",
    "FqwilsonError",
    "Poly",
    "PrimeContext",
    "__version__",
    "canonical_json",
    "count_irreducibles",
    "default_modulus",
    "format_poly",
    "is_irreducible",
    "iter_monic_irreducibles",
    "make_extension",
    "make_prime_field",
    "parse_field",
    "parse_poly",
]
