"""Circular-string support: turns and the INFINITE marker.

A circular string is stored in canonical order, so positions, point edits
and in-range queries are the linear ones.  A range with i > j wraps through
the seam: it is [i..n] followed by [1..j].  The operations that keep symbol
order work on those two stored pieces (`Forest._pieces`); only `extract`
and `reverse` of a wrapped range turn the string (`rotate_to_front`), and
`reverse` turns it back.  The public `rotate` moves nothing: the canonical
string is rotation-invariant.  `INFINITE` is the length `Forest.lcp_omega`
gives when two unrollings coincide.
"""

from __future__ import annotations

import enum

from . import splaycore as sc


class OmegaLength(enum.Enum):
    """Marker for an unbounded common-prefix length."""

    INFINITE = "INFINITE"


INFINITE = OmegaLength.INFINITE


def rotate_to_front(forest, s, i: int) -> None:
    """Turn s so that position i > 1 comes first: a split and a swapped join.

    If the join raises, the pieces are joined back as they were, which
    fixes no node, so s is either turned or untouched.
    """
    ctx = forest.ctx
    left, right = sc.split(s.tree, i - 1, ctx, forest.stats)
    try:
        s.tree.root = sc.join(right, left, ctx, forest.stats)
    except BaseException:
        # `left` is rooted at its last node, so this join walks no spine.
        s.tree.root = sc.join(left, right, ctx, forest.stats)
        raise
