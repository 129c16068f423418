"""Binary MDS array codes with bandwidth-efficient node repair."""

from .codes import Code, CodeGrid, encode, mds_decode, random_info
from .core import (
    ArraycodeError,
    Coord,
    CorruptionError,
    OracleMismatch,
    ParameterError,
    ParityGroupId,
    PlanError,
    UnrecoverableError,
    mod_index,
)

__version__ = "0.1.0"

__all__ = [
    "Code",
    "CodeGrid",
    "Coord",
    "ParityGroupId",
    "encode",
    "mds_decode",
    "random_info",
    "mod_index",
    "ArraycodeError",
    "ParameterError",
    "UnrecoverableError",
    "CorruptionError",
    "PlanError",
    "OracleMismatch",
    "__version__",
]
