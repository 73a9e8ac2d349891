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
from .gf2n import GF2n, QuadraticOutcome, is_irreducible, make_field, smallest_irreducible
from .blocks import (
    Block,
    Hexagon,
    StabilizerReport,
    block_of,
    block_slots,
    hexagon_of,
    hexagon_partition,
    hexagon_reps,
    hexagon_rows,
    is_subspace_block,
    same_orbit,
    stabilizer_of,
)
from .family import (
    DifferenceFamily,
    CertificateTable,
    EquationCertificate,
    MultiplicityProfile,
    MATCHED_PAIRS,
    QUADRATIC_PAIRS,
    SINGLE_SOLUTION_PAIRS,
    build_family,
    certificate_table,
    delta,
    delta_table,
    equation_certificate,
    full_family,
    multiplicity_profile,
    pair_equation,
    pair_solution_count,
    predicted_multiplicity,
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
    Spread,
    build_relative_family,
    desarguesian_spread,
    develop_and_verify_gdd,
    verify_gdd,
    verify_relative,
)

__version__ = "0.1.0"

__all__ = [
    "GF2n",
    "make_field",
    "QuadraticOutcome",
    "is_irreducible",
    "smallest_irreducible",
    "Block",
    "Hexagon",
    "StabilizerReport",
    "block_of",
    "block_slots",
    "hexagon_of",
    "hexagon_partition",
    "hexagon_reps",
    "hexagon_rows",
    "is_subspace_block",
    "stabilizer_of",
    "same_orbit",
    "DifferenceFamily",
    "MultiplicityProfile",
    "EquationCertificate",
    "CertificateTable",
    "MATCHED_PAIRS",
    "QUADRATIC_PAIRS",
    "SINGLE_SOLUTION_PAIRS",
    "delta",
    "delta_table",
    "multiplicity_profile",
    "equation_certificate",
    "certificate_table",
    "pair_equation",
    "pair_solution_count",
    "predicted_multiplicity",
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
    "Spread",
    "build_relative_family",
    "desarguesian_spread",
    "verify_relative",
    "develop_and_verify_gdd",
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
