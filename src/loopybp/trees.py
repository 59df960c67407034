"""Self-avoiding-walk trees rooted at a node, counted rather than built."""

from __future__ import annotations

from dataclasses import dataclass

from .models import _MAX_WALKS, EnumerationLimitError, PairwiseMRF


@dataclass(frozen=True)
class SawTree:
    """Shape of the self-avoiding-walk tree of Weitz ("Counting independent
    sets up to the tree threshold", STOC 2006) rooted at a node: ``size``
    walks out of it, the empty walk included, and ``depth`` steps in the
    longest. ``len`` is the size."""

    size: int
    depth: int

    def __len__(self) -> int:
        return self.size


def saw_tree(model: PairwiseMRF, root: int) -> SawTree:
    """Size and depth of the tree of all self-avoiding walks out of root.

    Each walk visits pairwise distinct labels, so the tree is finite with
    depth below the node count. Raises EnumerationLimitError past
    ``_MAX_WALKS`` walks, or on a walk deeper than the interpreter's
    recursion limit.
    """
    if not 0 <= root < model.num_nodes:
        raise ValueError(f"root {root} out of range")
    on_walk = [False] * model.num_nodes  # the nodes of the current walk
    size = depth = 0

    def grow(c, level):
        nonlocal size, depth
        size += 1
        if size > _MAX_WALKS:
            raise EnumerationLimitError(
                f"more than {_MAX_WALKS} self-avoiding walks out of "
                f"node {root}")
        if level > depth:
            depth = level
        on_walk[c] = True
        for u in model.neighbors(c):
            if not on_walk[u]:
                grow(u, level + 1)
        on_walk[c] = False

    try:
        grow(root, 0)
    except RecursionError:
        raise EnumerationLimitError(f"a self-avoiding walk out of node "
                                    f"{root} is too long to follow") from None
    return SawTree(size, depth)
