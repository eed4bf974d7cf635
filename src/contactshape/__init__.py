"""Contact shape reconstruction for capacitive robot skin.

Given per-taxel capacitance changes (or displacement fields directly),
the package reconstructs the contact pressure or force distribution on
the skin surface through an elastic model of the soft cover layer, and
can re-sample the reconstruction onto arbitrary virtual sensor layouts.
"""

from .boussinesq import (
    bc_approx_coefficients,
    bc_effective_block,
    bc_point_displacement,
    bc_resolved_block,
    bc_resolved_zz,
    psi,
    require_incompressible,
    spread_radius,
)
from .assembly import (
    InfluenceMatrix,
    InverseOperator,
    apply_forward,
    apply_inverse,
    assemble,
    load_inverse,
    load_matrix,
    precompute_inverse,
    save_inverse,
    save_matrix,
)
from .errors import (
    ContactShapeError,
    InvalidArgumentError,
    InvalidReadingError,
    NumericalFailureError,
    OracleFailureError,
    ResourceLimitError,
    SingularPointError,
    UnsupportedModelError,
)
from .grid import (
    FieldVector,
    Grid,
    build_regular_grid,
    grid_from_taxel_layout,
    load_grid,
    read_field,
    save_grid,
    write_field,
)
from .love import (
    love_displacement,
    love_effective_column,
    love_effective_zz,
    love_potential_oracle,
)
from .pipeline import (
    BenchmarkResult,
    IndenterSpec,
    ModelComparison,
    SolveReport,
    benchmark,
    compare_models,
    forward_solve,
    reconstruct,
    resample,
    synth_contact,
)
from .sensor import (
    ElastomerParams,
    TaxelReading,
    delta_c_from_thickness,
    load_readings,
    reading_to_displacement,
    readings_to_displacements,
    save_readings,
    thickness_from_reading,
)
from .fme import (
    InequalitySystem,
    fme_eliminate,
    fme_eliminate_all,
    fme_feasible,
    fme_worst_case_count,
)
from .solvers import NnlsResult, nnls_solve

__version__ = "0.1.0"
