"""Self-avoiding-walk trees rooted at a node."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .models import PairwiseMRF


@dataclass
class TreeNode:
    label: int           # node id in the original model
    parent: Optional[int]  # index into ComputationTree.nodes
    depth: int
    children: list = field(default_factory=list)


class ComputationTree:
    """Rooted tree whose nodes carry labels back into the original model.

    Potentials are not copied; the tree-edge between a node and its parent
    refers to the original edge between their labels. Children are stored in
    ascending label order. Index 0 is the root.
    """

    def __init__(self, model: PairwiseMRF, root_label: int):
        if not 0 <= root_label < model.num_nodes:
            raise ValueError(f"root {root_label} out of range")
        self.model = model
        self.nodes = [TreeNode(root_label, None, 0)]

    def add_child(self, parent_index: int, label: int) -> int:
        idx = len(self.nodes)
        self.nodes.append(TreeNode(label, parent_index,
                                   self.nodes[parent_index].depth + 1))
        self.nodes[parent_index].children.append(idx)
        return idx

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def depth(self) -> int:
        return max(node.depth for node in self.nodes)


def saw_tree(model: PairwiseMRF, root: int) -> ComputationTree:
    """All self-avoiding walks out of root, as a tree.

    Each root-to-node path visits pairwise distinct labels, so the tree is
    finite with depth below the node count.
    """
    tree = ComputationTree(model, root)

    def grow(idx, visited):
        label = tree.nodes[idx].label
        for u in model.neighbors(label):
            if u in visited:
                continue
            child = tree.add_child(idx, u)
            grow(child, visited | {u})

    grow(0, {root})
    return tree
