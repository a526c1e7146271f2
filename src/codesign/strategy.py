"""The fusion strategies: which branches of a re-parameterizable block stay
active at inference, and their names.

A leaf module: the command-line parser reads the strategy names from here
before any command runs, so it imports nothing but ``enum`` and
``codesign.errors``.  ``codesign.profiles`` and everything after it take
the strategies from here too.
"""

from __future__ import annotations

from enum import Enum

from .errors import UnknownStrategyName


class FusionStrategy(Enum):
    """Which branches of a re-parameterizable block stay active at inference.

    Every block keeps its 3x3 convolution; the identity shortcut and the 1x1
    convolution can each be retained or folded away.  Declaration order is
    the canonical tie-break order used by the planner.
    """

    CONV3 = "conv3"
    CONV3_SKIP = "conv3+skip"
    CONV3_CONV1 = "conv3+conv1"
    CONV3_SKIP_CONV1 = "conv3+skip+conv1"

    # Members are singletons that compare by identity, so they hash by it
    # too, skipping the Python-level Enum.__hash__ call of each per-layer
    # table lookup: an in-process 224-layer ``plan`` took 16.7-17.6 ms with
    # it and 17.2-18.4 ms without (6 of 6 alternating runs, CPython 3.11.7).
    # No output iterates a set of strategies, so none depends on the hashes.
    __hash__ = object.__hash__


STRATEGY_RANK = {s: i for i, s in enumerate(FusionStrategy)}
_BY_NAME = {s.value: s for s in FusionStrategy}

# The structure with every branch retained; used as the canonical measure
# for cut fractions and as the zero-penalty reference in penalty tables.
FULL_STRUCTURE = FusionStrategy.CONV3_SKIP_CONV1


def parse_strategy(name: str, where: str = "strategy") -> FusionStrategy:
    try:
        return _BY_NAME[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise UnknownStrategyName(f"{where}: {name!r}") from None
