"""Circle-RoPE: circular image-token index projection for rotary embeddings."""

from .geometry import (
    AutoRadius,
    CipConfig,
    CipStages,
    FixedRadius,
    GridSpec,
    PlaneBasis,
    build_plane_basis,
    centralize,
    cip_transform,
    compute_radius,
    dual_frame_fusion,
    grid_coords,
    grid_index_angles,
    map_to_circle,
    mix_angles,
    rotate_to_plane,
    spatial_origin_angles,
)
from .harness import LayerSchedule, ScheduleStrategy, Variant, make_schedule, run_experiment
from .metrics import DistanceMatrix, distance_matrix, ptd, ptd_of
from .rope import RotaryParams, apply_rotary, logit, rotation_angles
from .schemes import (
    ImageSegment,
    IndexedSequence,
    TextSegment,
    assign,
    assign_circle,
    assign_hard,
    assign_spatial,
    assign_unordered,
    parse_layout,
)

__version__ = "0.1.0"
