"""External binary search trees under six locking disciplines.

All variants share one data layout: keys live only in leaves, and every
internal node is a binary router with exactly two children. A search for k
goes left when k < node.key and right otherwise, so ties route right and a
router's key equals the smallest key reachable in its right subtree.

Every tree is born with three immortal nodes: a root router keyed with the
positive sentinel, a negative-sentinel leaf on its left and a
positive-sentinel leaf on its right. Application keys are confined strictly
between the sentinels, so a descent always ends in a leaf and the root is
never replaced.

Writers never modify a node's key. An insert builds a fresh router above the
reached leaf and swings one child pointer; a delete swings the grandparent's
child pointer to the removed leaf's sibling. Because readers only follow
child pointers, searches run without any synchronisation in every variant
except the coarse one. ``search`` is a bare descent that allocates nothing;
only the public ``find()`` builds a ``Snapshot``.

Every lock-based variant (fn, fe, fem, tn) writes an update as one pass,
``_insert`` or ``_delete``, in two phases. The snapshot phase is the
unsynchronised descent. The control phase locks the snapshot's nodes,
validates them and either commits and returns the operation's result, or
releases what it took and returns ``_RETRY``. ``TreeBase.insert`` and
``TreeBase.delete`` are the only retry loops: they rerun the pass until it
returns a result and count one retry per failed pass.

Variant summary::

    name    locks                          validation after locking
    ----    ----                           ----
    seq     none (single thread only)      none
    coarse  one tree-wide mutex            none
    fn      node locks on ppred/pred/curr  child links re-checked
    fe      node locks on pred/curr/sib.   fresh root-to-leaf re-traversal
    fem     node locks plus a node mark    mark checks plus link re-checks
            on pred/curr
    tn      node locks on ppred/pred       version stamps from the descent

Every node of a lock-based variant carries one bare ``threading.Lock``,
taken only with ``acquire(False)``, so no thread ever blocks on a node. The
per-variant state beside it is a plain slot on a ``Node`` subclass: fem's
``MarkedNode.marked`` and tn's ``StampedNode.version``, each written only
by the holder of that node's lock. Seq and coarse nodes carry no lock.

Nodes unlinked by a delete are never recycled in place: fn and fem leave
pred and curr locked (fem also leaves them marked), and tn leaves the
retired pred locked with its version frozen, so a stale operation that
still points at them fails its lock or validation step and retries from the
root. fe releases them; its re-traversal never finds them again. The
unlinked nodes themselves stay readable for as long as any in-flight
traversal can reach them; reclamation is left to reference counting,
recorded here as ``RECLAMATION_POLICY``.
"""

from __future__ import annotations

import threading
import time
from typing import NamedTuple

from .core import NEG_SENTINEL, POS_SENTINEL, check_key

RECLAMATION_POLICY = "refcount"

# What a failed pass returns in place of a result.
_RETRY = object()


def _abort(*locks):
    """Release ``locks`` in the order given and fail the pass."""
    for lock in locks:
        lock.release()
    return _RETRY


def _unmark_abort(*nodes):
    """fem rollback: clear each node's mark strictly before releasing its
    lock, in the order given."""
    for node in nodes:
        node.marked = False
        node.lock.release()
    return _RETRY


def _link(parent, right, child):
    """Point ``parent``'s right or left child pointer at ``child``."""
    if right:
        parent.right = child
    else:
        parent.left = child


def _link_settled_sibling(ppred, pright, pred, right):
    """Point ppred's child pointer at pred's other child, once no insert
    holds that child's lock (the fem delete).

    The lock test must come before the link re-read, otherwise a release
    between the two reads could hand back a sibling that was already
    replaced. An insert that locks the sibling after the test fails its
    validation on pred's mark, so the test and the store need not be atomic.
    """
    sibling = pred.left if right else pred.right
    while sibling.lock.locked() or (pred.left if right else pred.right) is not sibling:
        time.sleep(0)
        sibling = pred.left if right else pred.right
    _link(ppred, pright, sibling)


def _link_locked_sibling(ppred, pright, pred, right):
    """Point ppred's child pointer at pred's other child while holding that
    child's lock (the fe delete). An fe insert validates only by descending
    again, so without the lock it could validate between a test of the
    sibling and the store, and then commit under a detached pred."""
    while True:
        sibling = pred.left if right else pred.right
        if sibling.lock.acquire(False):
            if (pred.left if right else pred.right) is sibling:
                break
            sibling.lock.release()
        time.sleep(0)
    _link(ppred, pright, sibling)
    sibling.lock.release()


class Node:
    """One tree node. Leaves have both children None; key never changes.

    ``lock`` is a bare ``threading.Lock`` in the lock-based variants and
    None in seq and coarse.
    """

    __slots__ = ("key", "left", "right", "lock")

    def __init__(self, key, left=None, right=None, lock=None):
        self.key = key
        self.left = left
        self.right = right
        self.lock = lock

    def is_leaf(self) -> bool:
        return self.left is None

    def __repr__(self):
        kind = "leaf" if self.left is None else "router"
        return f"<{kind} {self.key}>"


class MarkedNode(Node):
    """An fem node: ``marked`` is set only while ``lock`` is held. A
    rollback clears it before the release and a delete never releases, so a
    node seen marked while its lock is free, or by the lock's holder, is
    retired for good."""

    __slots__ = ("marked",)

    # Node.__init__ is spelled out here and in StampedNode, not called: an
    # insert builds two nodes inside its control phase, and the extra call
    # costs about 50 ns per node (super() about 180 ns; CPython 3.11, x86-64).
    def __init__(self, key, left=None, right=None, lock=None):
        self.key = key
        self.left = left
        self.right = right
        self.lock = lock
        self.marked = False


class StampedNode(Node):
    """A tn node: ``version`` counts the commits made under ``lock``. Only
    the lock holder writes it, so bumping it needs no further guard."""

    __slots__ = ("version",)

    def __init__(self, key, left=None, right=None, lock=None):
        self.key = key
        self.left = left
        self.right = right
        self.lock = lock
        self.version = 0


class Snapshot(NamedTuple):
    """The positions a descent for some key passed through.

    ppred is the grandparent of the reached leaf (None when the leaf hangs
    directly off the root), pright/right record which child pointer was
    followed out of ppred/pred, and curr is the leaf where the descent
    stopped.
    """

    ppred: Node | None
    pright: bool
    pred: Node
    right: bool
    curr: Node


def _no_lock():
    return None


class TreeBase:
    """Shared structure, descent, retry loops and bookkeeping for all variants."""

    variant = "base"
    _fresh_lock = staticmethod(_no_lock)
    _node = Node

    def __init__(self):
        mk = self._fresh_lock
        node = self._node
        self._neg_leaf = node(NEG_SENTINEL, None, None, mk())
        self._pos_leaf = node(POS_SENTINEL, None, None, mk())
        self.root = node(POS_SENTINEL, self._neg_leaf, self._pos_leaf, mk())
        self._retries = 0
        self._retry_mu = threading.Lock()

    # -- descent ---------------------------------------------------------

    def _find(self, key):
        """Unlocked descent to ``key``'s leaf; ``Snapshot``'s fields as a tuple."""
        ppred = None
        pright = False
        pred = None
        right = False
        curr = self.root
        left = curr.left
        while left is not None:
            ppred = pred
            pright = right
            pred = curr
            if key < curr.key:
                right = False
                curr = left
            else:
                right = True
                curr = curr.right
            left = curr.left
        return ppred, pright, pred, right, curr

    def find(self, key: int) -> Snapshot:
        """Public descent: validates the key, returns the full snapshot."""
        check_key(key)
        return Snapshot(*self._find(key))

    def search(self, key: int) -> bool:
        """Optimistic membership test; never acquires a lock."""
        check_key(key)
        node = self.root
        # Reading node.left twice per level is safe: a router's children are
        # never None, and a leaf's never change.
        while node.left is not None:
            node = node.left if key < node.key else node.right
        return node.key == key

    # -- updates ----------------------------------------------------------

    def insert(self, key: int) -> bool:
        """Add ``key``; True when it was absent. Reruns ``_insert`` until
        a pass returns a result."""
        check_key(key)
        while (result := self._insert(key)) is _RETRY:
            self._count_retry()
        return result

    def delete(self, key: int) -> bool:
        """Remove ``key``; True when it was present. Reruns ``_delete``
        until a pass returns a result."""
        check_key(key)
        while (result := self._delete(key)) is _RETRY:
            self._count_retry()
        return result

    def _router_above(self, key, curr):
        """Build the router that replaces leaf ``curr`` when inserting key.

        The router's key is the larger of the two, so the smaller key hangs
        on the left and a search for either key routes correctly.
        """
        mk = self._fresh_lock
        node = self._node
        if key < curr.key:
            return node(curr.key, node(key, None, None, mk()), curr, mk())
        return node(key, curr, node(key, None, None, mk()), mk())

    def _count_retry(self):
        with self._retry_mu:
            self._retries += 1

    def retry_count(self) -> int:
        """Total failed validation/lock passes since construction."""
        return self._retries

    # -- quiescent inspection ---------------------------------------------

    def collect_leaf_keys(self) -> list[int]:
        """In-order leaf keys, sentinels excluded. Quiescent trees only."""
        out = []
        stack = []
        node = self.root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            if node.left is None:
                key = node.key
                if NEG_SENTINEL < key < POS_SENTINEL:
                    out.append(key)
            node = node.right
        return out

    def __repr__(self):
        return f"<{type(self).__name__} variant={self.variant!r}>"


class SeqTree(TreeBase):
    """Unsynchronised baseline; correct only under a single thread.

    It never retries, so it overrides the retry loops with direct bodies.
    """

    variant = "seq"

    def insert(self, key: int) -> bool:
        check_key(key)
        _, _, pred, right, curr = self._find(key)
        if curr.key == key:
            return False
        _link(pred, right, self._router_above(key, curr))
        return True

    def delete(self, key: int) -> bool:
        check_key(key)
        ppred, pright, pred, right, curr = self._find(key)
        if curr.key != key:
            return False
        _link(ppred, pright, pred.left if right else pred.right)
        return True


class CoarseTree(SeqTree):
    """One tree-wide mutex around every operation, searches included."""

    variant = "coarse"

    def __init__(self):
        super().__init__()
        self._big = threading.Lock()

    def search(self, key: int) -> bool:
        with self._big:
            return SeqTree.search(self, key)

    def insert(self, key: int) -> bool:
        with self._big:
            return SeqTree.insert(self, key)

    def delete(self, key: int) -> bool:
        with self._big:
            return SeqTree.delete(self, key)


class FnTree(TreeBase):
    """Per-node locks on every snapshot node.

    insert locks pred then curr; delete locks ppred, pred, then curr, always
    top-down so lock chains run toward the leaves and cannot cycle. With all
    touched nodes held, validation is a pair of child-link re-checks, and the
    sibling can be read directly because nothing can move it while pred's
    lock is held. Unlinked nodes stay locked forever, so a lockable node is
    always still reachable.
    """

    variant = "fn"
    _fresh_lock = staticmethod(threading.Lock)

    def _insert(self, key):
        _, _, pred, right, curr = self._find(key)
        if curr.key == key:
            return False
        plock = pred.lock
        if not plock.acquire(False):
            return _abort()
        clock = curr.lock
        if not clock.acquire(False):
            return _abort(plock)
        if (pred.right if right else pred.left) is not curr:
            return _abort(clock, plock)
        _link(pred, right, self._router_above(key, curr))
        clock.release()
        plock.release()
        return True

    def _delete(self, key):
        ppred, pright, pred, right, curr = self._find(key)
        if curr.key != key:
            return False
        glock = ppred.lock
        if not glock.acquire(False):
            return _abort()
        plock = pred.lock
        if not plock.acquire(False):
            return _abort(glock)
        clock = curr.lock
        if not clock.acquire(False):
            return _abort(plock, glock)
        if (
            (ppred.right if pright else ppred.left) is not pred
            or (pred.right if right else pred.left) is not curr
        ):
            return _abort(clock, plock, glock)
        _link(ppred, pright, pred.left if right else pred.right)
        glock.release()
        # pred and curr leave the tree still locked, so any operation
        # still pointing at them fails its acquire and retries.
        return True


class FeTree(TreeBase):
    """Per-node locks on the edges above the reached leaf, no marks.

    Like fem, insert locks only the leaf and delete locks parent plus leaf,
    then locks the sibling for the splice itself. Without marks a retired
    node that stays locked would look the same as a busy one, so after
    locking, an operation validates by descending again from the root and
    comparing the fresh snapshot node-for-node with the locked one; any
    splice that moved the locked path produces a mismatch because retired
    nodes never reappear on a fresh descent. Locks are released on success.
    """

    variant = "fe"
    _fresh_lock = staticmethod(threading.Lock)

    def _insert(self, key):
        _, _, pred, right, curr = self._find(key)
        if curr.key == key:
            return False
        clock = curr.lock
        if not clock.acquire(False):
            return _abort()
        _, _, fpred, _, fcurr = self._find(key)
        if fpred is not pred or fcurr is not curr:
            return _abort(clock)
        _link(pred, right, self._router_above(key, curr))
        clock.release()
        return True

    def _delete(self, key):
        ppred, pright, pred, right, curr = self._find(key)
        if curr.key != key:
            return False
        plock = pred.lock
        if not plock.acquire(False):
            return _abort()
        clock = curr.lock
        if not clock.acquire(False):
            return _abort(plock)
        fppred, _, fpred, _, fcurr = self._find(key)
        if fppred is not ppred or fpred is not pred or fcurr is not curr:
            return _abort(clock, plock)
        _link_locked_sibling(ppred, pright, pred, right)
        clock.release()
        plock.release()
        return True


class FemTree(TreeBase):
    """Per-node locks plus a per-node mark on the edges above the reached
    leaf.

    insert owns the edge above the reached leaf by locking the leaf itself;
    delete owns the two edges above the removed leaf by locking parent and
    leaf and setting ``marked`` on each right after its acquire. The mark is
    what lets a later operation tell a retired node from a merely busy one
    without re-descending: rollback paths unmark strictly before they
    release, and successful deletes never release at all, so a visibly
    marked node is permanently out of the tree.
    """

    variant = "fem"
    _fresh_lock = staticmethod(threading.Lock)
    _node = MarkedNode

    def _insert(self, key):
        _, _, pred, right, curr = self._find(key)
        if curr.key == key:
            return False
        clock = curr.lock
        if not clock.acquire(False):
            return _abort()
        if pred.marked or (pred.right if right else pred.left) is not curr:
            return _abort(clock)
        _link(pred, right, self._router_above(key, curr))
        clock.release()
        return True

    def _delete(self, key):
        ppred, pright, pred, right, curr = self._find(key)
        if curr.key != key:
            return False
        if pred.marked or not pred.lock.acquire(False):
            return _abort()
        pred.marked = True
        if ppred.marked or (ppred.right if pright else ppred.left) is not pred:
            return _unmark_abort(pred)
        if not curr.lock.acquire(False):
            return _unmark_abort(pred)
        curr.marked = True
        if (pred.right if right else pred.left) is not curr:
            return _unmark_abort(curr, pred)
        _link_settled_sibling(ppred, pright, pred, right)
        # pred and curr stay locked and marked forever: the marks make
        # their retirement visible, and the held locks make every later
        # acquire on them fail.
        return True


class TnTree(TreeBase):
    """Per-node locks with version-stamp validation.

    The descent samples each node's version before reading its child
    pointer. insert then locks pred and commits only if pred's version still
    equals that stamp; delete locks ppred then pred the same way, top-down.
    A commit stores the link, then bumps the locked node's version, then
    releases, so an unchanged stamp under a held lock means no write
    committed on that node since its pointer was read, which pins the whole
    locked path. An aborted pass wrote nothing and releases without a bump.
    The retired pred is never released, so stale acquires on it fail; leaves
    are never locked.
    """

    variant = "tn"
    _fresh_lock = staticmethod(threading.Lock)
    _node = StampedNode

    def _find_stamped(self, key):
        """``_find``'s tuple plus (pred_stamp, ppred_stamp). Each stamp was
        sampled before that node's child pointer was read, so an unchanged
        stamp under a held lock proves the pointer is still current."""
        ppred = None
        pright = False
        gstamp = 0
        pred = None
        right = False
        pstamp = 0
        curr = self.root
        cstamp = curr.version
        left = curr.left
        while left is not None:
            ppred = pred
            pright = right
            gstamp = pstamp
            pred = curr
            pstamp = cstamp
            if key < curr.key:
                right = False
                curr = left
            else:
                right = True
                curr = curr.right
            cstamp = curr.version
            left = curr.left
        return ppred, pright, pred, right, curr, pstamp, gstamp

    def _insert(self, key):
        _, _, pred, right, curr, pstamp, _ = self._find_stamped(key)
        if curr.key == key:
            return False
        plock = pred.lock
        if not plock.acquire(False):
            return _abort()
        if pred.version != pstamp:
            return _abort(plock)
        _link(pred, right, self._router_above(key, curr))
        pred.version += 1
        plock.release()
        return True

    def _delete(self, key):
        ppred, pright, pred, right, curr, pstamp, gstamp = self._find_stamped(key)
        if curr.key != key:
            return False
        glock = ppred.lock
        if not glock.acquire(False):
            return _abort()
        if ppred.version != gstamp:
            return _abort(glock)
        plock = pred.lock
        if not plock.acquire(False):
            return _abort(glock)
        if pred.version != pstamp:
            return _abort(plock, glock)
        _link(ppred, pright, pred.left if right else pred.right)
        ppred.version += 1
        glock.release()
        # pred's lock is never released and its version never moves again:
        # the retired node stays locked so any operation that still points
        # at it fails and retries.
        return True


_VARIANTS: dict[str, type[TreeBase]] = {
    "seq": SeqTree,
    "coarse": CoarseTree,
    "fn": FnTree,
    "fe": FeTree,
    "fem": FemTree,
    "tn": TnTree,
}

VARIANT_NAMES = tuple(_VARIANTS)
CONCURRENT_VARIANTS = tuple(n for n in _VARIANTS if n != "seq")


def new_tree(variant: str) -> TreeBase:
    """Construct an empty tree of the named variant."""
    try:
        cls = _VARIANTS[variant.lower()]
    except (KeyError, AttributeError):
        raise ValueError(
            f"unknown variant {variant!r}; expected one of {', '.join(_VARIANTS)}"
        ) from None
    return cls()
