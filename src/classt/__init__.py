"""Exact-arithmetic toolkit for class T surface singularities, their
weighted-projective compactified smoothings, and the birational geometry
of the boundary curve."""

from .arith import (
    UniPoly,
    hj_evaluate,
    hj_expand,
    mod_inverse,
    multiplicity_profile,
    squarefree_decomposition,
)
from .birational import (
    BlowupModel,
    WPoint,
    blowup_at_R2,
    evaluate_pi_chart,
    project_pi,
    roundtrip_check,
    target_plane,
)
from .compactify import (
    CompactificationModel,
    CurveAtInfinity,
    RootConfig,
    TopologyInvariants,
    WeightEnumeration,
    WeightPair,
    build_cyclic,
    build_rdp,
    enumerate_weights,
    minimal_resolution,
    smoothness_status,
    topology,
)
from .errors import BadInput, ClassTError, ConditionViolated
from .quotients import (
    CyclicTDescriptor,
    HJChain,
    QuotientSingularity,
    RDPData,
    detect_class_T,
    hj_resolution,
    normalize,
    rdp_data,
)
from .tianyau import TianYauReport, check_hypotheses, orbifold_adjunction_residual
from .wps import (
    HypersurfaceClass,
    WeightedProjectiveSpace,
    adjunction_class,
    hypersurface_intersection,
    well_formed_reduction,
)

__version__ = "0.1.0"

__all__ = [
    "ClassTError",
    "BadInput",
    "ConditionViolated",
    "UniPoly",
    "hj_evaluate",
    "hj_expand",
    "mod_inverse",
    "multiplicity_profile",
    "squarefree_decomposition",
    "QuotientSingularity",
    "HJChain",
    "CyclicTDescriptor",
    "RDPData",
    "normalize",
    "hj_resolution",
    "detect_class_T",
    "rdp_data",
    "WeightedProjectiveSpace",
    "HypersurfaceClass",
    "hypersurface_intersection",
    "adjunction_class",
    "well_formed_reduction",
    "RootConfig",
    "CurveAtInfinity",
    "TopologyInvariants",
    "CompactificationModel",
    "WeightPair",
    "WeightEnumeration",
    "enumerate_weights",
    "build_cyclic",
    "build_rdp",
    "smoothness_status",
    "topology",
    "minimal_resolution",
    "TianYauReport",
    "check_hypotheses",
    "orbifold_adjunction_residual",
    "WPoint",
    "BlowupModel",
    "target_plane",
    "project_pi",
    "blowup_at_R2",
    "evaluate_pi_chart",
    "roundtrip_check",
]
