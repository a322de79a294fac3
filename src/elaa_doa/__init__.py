"""Single-snapshot DOA estimation and localization with sparse ELAAs."""

from .errors import (
    AmbiguousDealias,
    BehindArray,
    EstimationError,
    IllConditioned,
    NonFiniteSnapshot,
    ParallelBearings,
    ScenarioError,
    UnderResolved,
)
from .geometry import (
    SPEED_OF_LIGHT,
    ArrayConfig,
    FieldRegions,
    LocalGeometry,
    Target,
    element_positions,
    field_regions,
    local_geometry,
    reference_positions,
)
from .harness import (
    MetricsRow,
    derive_trial_seed,
    hit_rate,
    match_errors,
    render_metrics_csv,
    rmse,
    run_monte_carlo,
    write_metrics_csv,
)
from .nf_localizer import (
    Association,
    BearingLine,
    LocalizationResult,
    associate,
    bearing_line,
    intersect_bearings,
    local_doas,
    localize,
    triangulate,
)
from .scenarios import (
    KNOWN_ALGORITHMS,
    ScenarioSpec,
    builtin_scenarios,
    dump_scenario,
    load_scenario,
    paper_array,
    parse_scenario,
)
from .signal_model import (
    Snapshot,
    SteeringModel,
    SteeringVector,
    array_factor,
    load_snapshot,
    save_snapshot,
    select_model,
    snapshot,
    split_ulas,
    steering,
    steering_exact,
    steering_farfield,
    steering_nearfield,
)
from .ss_esprit import (
    CandidateSet,
    EspritDiagnostics,
    SelectionPairs,
    ShiftPair,
    angles_from_eigenvalues,
    dealias,
    estimate_doa_esprit,
    pair_eigenvalues,
    selection_pairs,
    solve_psi,
)
from .ss_music import (
    Spectrum,
    default_grid,
    estimate_doa_music,
    fuse,
    hankel_steering_matrix,
    peak_pick,
    pseudospectrum,
    write_spectrum_csv,
)
from .subspace import (
    SubspacePair,
    default_pencil,
    estimate_source_count,
    hankel,
    split_subspaces,
    stacked_subspace,
)

__version__ = "0.1.0"
