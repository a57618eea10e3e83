"""txlaw: spectral-law engine and Monte Carlo harness for products T X.

Computes the deterministic-equivalent Stieltjes transforms of the singular
spectrum of T X - z for a fixed matrix T (through the spectrum of T T^dag)
and a random X with independent entries, inverts them to densities, locates
support edges with regularity diagnostics, derives the rotation-invariant
limiting eigenvalue density of T X and its radial CDF, and validates all of
it against sampled ensembles at desk scale.
"""

__version__ = "0.1.0"

from .errors import (
    BracketingError,
    DomainError,
    InputError,
    SolverError,
    TableTooCoarseError,
    TxlawError,
)
from .sigma import (
    ModelParams,
    SigmaSpectrum,
    load_sigma_file,
    normalize,
    normalize_spectrum,
    sigma_from_singular_values,
    sigma_harmonic_mean,
)
from .master import (
    CubicFactorization,
    MasterSolution,
    cubic_factorize,
    density_batch,
    m2_from_m1,
    master_f,
    master_f_all,
    solve_master,
    solve_master_batch,
    sqrt_upper,
    verify_stieltjes,
)
from .support import (
    CriticalPointSet,
    EdgeInfo,
    RegularityReport,
    SupportProfile,
    ZeroEdgeInfo,
    check_bulk_regularity,
    check_edge_regularity,
    critical_points,
    edge_exponent_fit,
    find_edges,
    support_indicator,
    zero_edge_scale,
)
from .density import (
    DensityTable,
    QuantileTable,
    RadialProfile,
    compute_radial_profile,
    log_potential,
    quantiles,
    tabulate_density,
    write_density_csv,
    write_quantiles_csv,
    write_radial_csv,
)
from .linalg import (
    arrowhead_derivative_eigvals,
    arrowhead_eigvals,
    companion_roots,
    general_eigenvalues,
    operator_norm_estimate,
    qr_haar,
    svd,
    symmetric_eigen,
)
from .montecarlo import (
    EnsembleConfig,
    RunResult,
    averaged_law_profile,
    bump,
    bump_laplacian_l1,
    count_trivial_zeros,
    entrywise_law_check,
    extreme_singular_stats,
    local_circular_error,
    radial_esd_cdf,
    rigidity_profile,
    run_ensemble,
    sample_run,
    successful,
)
