"""topoasm: online synthesis of ICM circuits into topological assemblies."""

from .engine import (
    Assembly,
    StepRecord,
    SynthesisConfig,
    SynthesisFailure,
    synthesize,
)
from .geom import Box3, GeometrySet, LayoutConfig, Point3, global_bounding_box, plumbing_volume
from .icm import (
    ICMCircuit,
    ICMError,
    parse_icm,
    recycle_wires,
)
from .pool import PoolConfig
from .sched import SchedulerPolicy, required_round_size

__version__ = "0.1.0"

__all__ = [
    "Assembly",
    "Box3",
    "GeometrySet",
    "ICMCircuit",
    "ICMError",
    "LayoutConfig",
    "Point3",
    "PoolConfig",
    "SchedulerPolicy",
    "StepRecord",
    "SynthesisConfig",
    "SynthesisFailure",
    "global_bounding_box",
    "parse_icm",
    "plumbing_volume",
    "recycle_wires",
    "required_round_size",
    "synthesize",
]
