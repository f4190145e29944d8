"""Exact arithmetic for the metaplectic double cover of GL2 over p-adic fields.

The package computes, entirely in rational arithmetic, the explicit
cocycle defining the cover at odd residue characteristic, the quadratic
Hilbert symbol it is built from, the finite torsor of genuine central
characters, the Weil-index calculus of normalized Gauss sums, and the
finite branching combinatorics (multiplicities, packet products, sign
chains, nilpotent-orbit invariants) that the cover's representation
theory reduces to.  `kubota_meta.suites` exposes the seeded verification
suites behind the ``kubota-meta`` CLI.
"""

from .branching import (
    NilpotentSl2,
    TauTwistModel,
    complementary_support,
    epsilon_sign_chain,
    is_waldspurger_conjugate,
    multiplicity,
    orbit_invariant,
    packet_product,
    whittaker_datum_eval,
)
from .characters import (
    GenuineZCharacter,
    chi_a_eval,
    conjugate_char,
    count_agreeing_extensions,
    f_image_classes,
    index_FEsq,
    omega_of,
)
from .errors import *  # noqa: F401,F403  (only exception classes live there)
from .hilbert import hilbert, hilbert_via_norm, pairing_table
from .kubota import (
    Mat2,
    MetaElement,
    beta,
    check_cocycle,
    commutator_pairing,
    is_split_on_GL2F,
    meta_inv,
    meta_mul,
    p_part,
)
from .local_field import (
    FieldElement,
    LocalField,
    ResidueElement,
    SquareClass,
    class_key,
    embed_base,
    format_element,
    is_square,
    make_field,
    norm,
    square_class,
    square_class_reps,
    trace,
    unit_part,
    valuation,
)
from .parsing import parse_element, parse_field_spec, parse_matrix
from .rng import SplitMix64, derive_seed
from .suites import CheckResult, Report, RunConfig, run_suite, selftest_reports
from .weil import (
    AdditiveChar,
    RootOfUnity,
    central_sign,
    chi_psi_eval,
    gauss_sum,
    psi_eval,
    standard_char,
    weil_index,
)

__version__ = "0.1.0"
