"""orthoforms: exact arithmetic behind free algebras of orthogonal modular forms.

The pipeline: even lattices and their discriminant data (lattice), root
detection and rescaled irreducible types with modified Coxeter numbers
(roots), the q^0 layer of Borcherds products with Weyl vectors and weights
(weyl), exact truncated Fourier expansions with Jacobian determinants
(series), and the re-derivation of the 26-pair classification (classify).
"""

from .lattice import (
    DegenerateLatticeError,
    DiscriminantGroup,
    Lattice,
    NotPositiveDefiniteError,
    builtin_lattice,
    builtin_names,
    discriminant_group,
    lattice_from_json,
    rescale,
    short_vectors,
)
from .roots import (
    DualRoot,
    IrreducibleComponent,
    RootDatum,
    SubcaseRequiredError,
    UnrecognizedRootSystemError,
    build_dual_set,
    coxeter_number,
    decompose,
    detect_roots,
    modified_coxeter,
    modified_coxeter_value,
    realize,
    sum_rule_constant,
)
from .weyl import (
    QZeroData,
    SumRuleReport,
    WeylVector,
    character_data,
    character_data_from_map,
    quadratic_weyl_constant,
    qzero_from_dual_sets,
    solve_weight,
    weyl_vector,
)
from .series import (
    Monomial,
    SeriesOverflowError,
    TruncatedSeries,
    WeightedSeries,
    ZeroSeriesError,
    expand_product,
    jacobian,
    log_derivative_residual,
    monomial,
    one,
    series_from_json,
    series_to_json,
    syzygy_sum,
    zero,
)
from .classify import (
    CandidateSystem,
    ClassificationRecord,
    ClassificationReport,
    enumerate_candidates,
    full_table,
    ledger_arithmetic_checks,
    resolve,
)

__version__ = "0.1.0"
