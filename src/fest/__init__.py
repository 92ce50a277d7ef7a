"""Dynamic string collections over self-adjusting trees.

Strings support splits, concatenations, single-symbol edits, lazy substring
reversal and symbol mapping, substring equality and longest-common-prefix
queries (correct with high probability via rolling-hash fingerprints), plus
circular interpretation and queries on infinite unrollings.
"""

from .circular import INFINITE, OmegaLength
from .compare import Order
from .errors import DomainError, FestError, HandleError, RangeError, \
    UsageError
from .fingerprint import DEFAULT_MODULUS, FingerprintContext
from .forest import CIRCULAR, LINEAR, DynString, Forest, ForestStats

__all__ = [
    "CIRCULAR",
    "DEFAULT_MODULUS",
    "DomainError",
    "DynString",
    "FestError",
    "FingerprintContext",
    "Forest",
    "ForestStats",
    "HandleError",
    "INFINITE",
    "LINEAR",
    "OmegaLength",
    "Order",
    "RangeError",
    "UsageError",
]
