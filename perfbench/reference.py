"""The benchmark's yardstick: a plain sequential external binary search tree.

Its code belongs to the benchmark, so no change to cbst can move its speed.
It does the same kind of work as cbst's trees (a descent through routers to
a leaf, a router allocated per insert, one unlinked per delete) on the same
operations, so a change in the host's speed moves it as it moves them. The
benchmark reads every rate and set-up time against it.
"""

from __future__ import annotations

import random

_INF = float("inf")


class _Node:
    __slots__ = ("key", "left", "right")

    def __init__(self, key, left=None, right=None):
        self.key = key
        self.left = left
        self.right = right


class RefTree:
    """A set of keys in an external BST: keys live in the leaves, and a
    router sends keys below its own to the left. Not thread-safe."""

    def __init__(self):
        self.root = _Node(_INF, _Node(_INF), _Node(_INF))

    def _leaf(self, key):
        grandparent, parent, node = None, self.root, self.root.left
        while node.left is not None:
            grandparent, parent = parent, node
            node = node.left if key < node.key else node.right
        return grandparent, parent, node

    def search(self, key) -> bool:
        node = self.root.left
        while node.left is not None:
            node = node.left if key < node.key else node.right
        return node.key == key

    def insert(self, key) -> bool:
        _, parent, leaf = self._leaf(key)
        if leaf.key == key:
            return False
        new = _Node(key)
        if key < leaf.key:
            router = _Node(leaf.key, new, leaf)
        else:
            router = _Node(key, leaf, new)
        if parent.left is leaf:
            parent.left = router
        else:
            parent.right = router
        return True

    def delete(self, key) -> bool:
        grandparent, parent, leaf = self._leaf(key)
        if leaf.key != key:
            return False
        sibling = parent.right if parent.left is leaf else parent.left
        if grandparent.left is parent:
            grandparent.left = sibling
        else:
            grandparent.right = sibling
        return True

    def keys(self) -> list:
        """In-order leaf keys of a tree made by build()."""
        out, stack = [], [self.root]
        while stack:
            node = stack.pop()
            if node.left is None:
                if node.key != _INF:
                    out.append(node.key)
            else:
                stack += (node.right, node.left)
        return out


def clone(root) -> RefTree:
    """A reference tree with the shape and keys of another external BST with
    the same routing rule, given its root; its nodes need only key, left and
    right. The copy's descents are as long as the original's."""
    tree = RefTree()
    tree.root = _Node(root.key)
    stack = [(root, tree.root)]
    while stack:
        src, dst = stack.pop()
        if src.left is not None:
            dst.left = _Node(src.left.key)
            dst.right = _Node(src.right.key)
            stack += ((src.left, dst.left), (src.right, dst.right))
    return tree


def build(key_range: int, seed: str) -> RefTree:
    """Uniform keys inserted until half the range is held, as cbst's
    prefill does, from the benchmark's own random stream."""
    tree = RefTree()
    rng = random.Random(seed)
    size = 0
    while size < key_range // 2:
        size += tree.insert(rng.randrange(key_range))
    return tree


def self_check(tree: RefTree, key_range: int) -> str | None:
    """Check search, delete and insert against the tree's own key list;
    returns a failure message, or None. Leaves the tree as it found it."""
    held = tree.keys()
    if held != sorted(set(held)) or len(held) != key_range // 2:
        return f"reference tree holds {len(held)} keys, not {key_range // 2} sorted distinct ones"
    present = set(held)
    if any(tree.search(k) != (k in present) for k in range(key_range)):
        return "reference tree search disagrees with its key list"
    gone = held[::2]
    if not all(map(tree.delete, gone)) or any(map(tree.search, gone)):
        return "reference tree delete failed"
    if not all(map(tree.insert, gone)) or tree.keys() != held:
        return "reference tree insert failed"
    return None
