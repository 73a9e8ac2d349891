"""Difference families, cyclic 2-designs and group divisible designs over
GF(2^n) for odd n, with exhaustive desk-scale verifiers.

The construction side builds, for every odd n >= 3, a family of
7-element base blocks (3-dimensional GF(2)-subspaces minus zero) whose
quotient list covers every unit except 1 exactly 7 times; developing it
multiplicatively yields a cyclic 2-(2^n - 1, 7, 7) design whose blocks
are all subspaces in this sense.  For n = 3 (mod 6), removing the
subfield block gives a relative family and a cyclic simple group
divisible design over the Desarguesian 3-spread.

The verification side re-derives every claimed property by brute force:
multiplicity profiles, exhaustive pair coverage, orbit/stabilizer
structure, spread partitions and trace-based solvability certificates.

Everything here works on arrays.  The paper's scalar definitions (the
block and hexagon of one seed, its quotient list, the quadratic solver
and the per-t certificate) are in `qdf.reference`, which this package
does not import: the tests compare the arrays against it, and the demos
use it to follow the paper.
"""

from .errors import (
    AllZeroCoefficientsError,
    DegenerateTError,
    EvenDegreeError,
    ForbiddenSeedError,
    MalformedFamilyError,
    NotADivisorError,
    QdfError,
    ReduciblePolynomialError,
    WrongResidueError,
    ZeroInverseError,
)
from .gf2n import GF2n, is_irreducible, smallest_irreducible
from .blocks import block_slots, hexagon_reps, hexagon_rows
from .family import (
    DifferenceFamily,
    CertificateTable,
    MultiplicityProfile,
    MATCHED_PAIRS,
    build_family,
    certificate_table,
    full_family,
    multiplicity_profile,
)
from .design import (
    Design,
    Orbit,
    VerificationReport,
    check_qanalog,
    check_simple,
    develop,
    pair_coverage_counts,
    verify_2design,
)
from .gdd import (
    build_relative_family,
    desarguesian_spread,
    verify_gdd,
    verify_relative,
)

__version__ = "0.1.0"

__all__ = [
    "GF2n",
    "is_irreducible",
    "smallest_irreducible",
    "block_slots",
    "hexagon_reps",
    "hexagon_rows",
    "DifferenceFamily",
    "MultiplicityProfile",
    "CertificateTable",
    "MATCHED_PAIRS",
    "multiplicity_profile",
    "certificate_table",
    "build_family",
    "full_family",
    "Design",
    "Orbit",
    "VerificationReport",
    "develop",
    "verify_2design",
    "check_qanalog",
    "check_simple",
    "pair_coverage_counts",
    "build_relative_family",
    "desarguesian_spread",
    "verify_relative",
    "verify_gdd",
    "QdfError",
    "EvenDegreeError",
    "ReduciblePolynomialError",
    "ZeroInverseError",
    "NotADivisorError",
    "AllZeroCoefficientsError",
    "ForbiddenSeedError",
    "DegenerateTError",
    "WrongResidueError",
    "MalformedFamilyError",
]
