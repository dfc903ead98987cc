"""Exact verification of symplectic residue identities for Higgs-bundle
section data on the projective line.

Everything is computed over the Gaussian rationals with canonical-form
rational functions, so every identity check is an exact equality.  The
arithmetic kernels are pure Python (``higgsres._kernels``);
``KERNEL_BACKEND`` names them in benchmark output.
"""

from .curve import MarkedCurve, curve_validate
from .errors import (
    EquivarianceBroken,
    HiggsresError,
    Infeasible,
    IrregularSection,
    NotInAlgebra,
    NotInvertible,
    ParseError,
    RegularityViolation,
    ShapeError,
    ValidationError,
    ZeroDenominator,
)
from .field import (
    GaussRat,
    Jet2,
    RatFunc,
    format_gauss,
    parse_gauss,
    parse_ratfunc,
)
from .hamiltonian import (
    HamiltonianRep,
    SymplecticSpace,
    XVector,
    builtin_rep,
    rep_validate,
)
from .lie import (
    CoadjointElement,
    LoopAlgebraElement,
    LoopGroupElement,
    MatrixLieAlgebra,
    bracket,
    elementary,
    pairing,
    torus,
)
from .moduli import (
    HiggsPoint,
    ambient_higgs_tangent,
    HiggsTangent,
    YPoint,
    YTangent,
    cartan_check,
    higgs_from_y,
    identity_check,
    liouville_lambda,
    make_higgs_point,
    make_higgs_tangent,
    make_y_point,
    make_y_tangent,
    pullback_omega,
    pushforward_tangent,
    symplectic_omega,
)
from .residues import (
    INFINITY,
    OneForm,
    P1Point,
    localize,
    residue,
    residue_sum,
)
from .scenario import Scenario, load_scenario, parse_scenario
from .solver import (
    CocycleRecipe,
    GdotRecipe,
    SeedStream,
    SolverBounds,
    build_higgs_field_space,
    build_higgs_tangent_space,
    build_section_space,
    build_tangent_space,
    sample_affine,
    sample_vector,
)

__version__ = "0.1.0"

KERNEL_BACKEND = "pure"
