"""Binary MDS array codes with bandwidth-efficient node repair."""

from .codes import Code, CodeGrid, encode, mds_decode, parity_check_equations, random_info
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
    parity_group_members,
    xor_blocks,
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
    "parity_check_equations",
    "mod_index",
    "parity_group_members",
    "xor_blocks",
    "ArraycodeError",
    "ParameterError",
    "UnrecoverableError",
    "CorruptionError",
    "PlanError",
    "OracleMismatch",
    "__version__",
]
