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
    Unpaired,
)
from .geometry import ArrayConfig, Target
from .harness import run_monte_carlo
from .nf_localizer import localize
from .scenarios import ScenarioSpec, builtin_scenarios, load_scenario
from .signal_model import snapshot
from .ss_esprit import estimate_doa_esprit
from .ss_music import estimate_doa_music

__version__ = "0.1.0"
