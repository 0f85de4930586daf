from .als import (
    DEFAULT_GRID,
    DESK_LIMIT,
    RESTART_LIMIT,
    SWEEP_LIMIT,
    FactorSet,
    RestartRecord,
    SearchConfig,
    SearchResult,
    als_block_solve,
    als_objective,
    als_sweep,
    brent_residual,
    factor_set_from_tensor,
    rationalize,
    search,
    snap_models,
)
from .kernels import BACKEND
