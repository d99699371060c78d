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

An update runs as passes of two phases. The retry loops ``TreeBase.insert``
and ``TreeBase.delete`` run the snapshot phase, the unsynchronised descent,
inline; a key already present (insert) or absent (delete) ends the
operation there. Each variant supplies only the control phase, ``_insert``
or ``_delete``: it locks the descent's nodes, validates them and either
commits and returns the result, or releases what it took and returns
``_RETRY``. tn's descent also samples stamps, so ``TnTree`` has its own
copies of the two loops. A loop counts one retry per failed pass and
descends again. After a failed pass the thread calls
:data:`~cbst.core.pause`, handing the GIL to a lock holder that is waiting
for it instead of spinning through futile passes until the switch interval
ends, so a retry counts a real conflict, not GIL preemption.

Every pass pays only what its protocol needs. The public operations test
the key inline and call :func:`~cbst.core.check_key` only to raise its
error. Each ``_insert`` builds its router and leaf from its own node
classes, named directly, and fe's re-traversal is a loop of the same shape
as the retry loops' descent.

Variant summary::

    name    locks                          validation after locking
    ----    ----                           ----
    seq     none (single thread only)      none
    coarse  one tree-wide mutex, tried     none
            like a node lock
    fn      node locks on ppred/pred/curr  child links re-checked
    fe      node locks on pred/curr/sib.   fresh root-to-leaf re-traversal
    fem     node locks plus a node mark    mark checks plus link re-checks
            on pred/curr
    tn      node locks on ppred/pred       version stamps from the descent

Each variant's nodes hold only the state its protocol touches. seq and
coarse build every node as a plain ``Node``: a key and two child pointers.
fn and fe build ``LockedNode``s, which add one bare ``threading.Lock``, and
fem's ``MarkedNode`` adds the ``marked`` flag to that. tn locks and stamps
only routers, so its routers are ``StampedNode``s (a lock and a ``version``)
and its leaves, sentinels included, are plain ``Node``s. A mark or a version
is written only by the holder of its node's lock. Every node lock is taken
only with ``acquire(False)``; coarse's tree mutex and the retry counter's
mutex are taken the same way, with a pause after each miss, so no thread
ever blocks on a lock.

A benchmark prefill does not insert its keys one at a time.
``TreeBase._load`` hangs under the root of an empty tree, before the tree is
shared, the subtree those inserts would build, allocated in preorder so that
a descent reads memory laid out along its path. It takes no lock and moves
no version, so tn's prefilled routers start at version 0 rather than at the
number of commits the inserts would have made on them.

Nodes unlinked by a delete are never recycled in place: fn and fem leave
pred and curr locked (fem also leaves them marked), and tn leaves the
retired pred locked with its version frozen, so a stale operation that
still points at them fails its lock or validation step and retries from the
root. fe releases them; its re-traversal never finds them again. The
unlinked nodes themselves stay readable for as long as any in-flight
traversal can reach them; reclamation is left to reference counting.
"""

from __future__ import annotations

import threading
from array import array
from typing import NamedTuple

from .core import NEG_SENTINEL, POS_SENTINEL, check_key, pause

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
        pause()
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
        pause()
    _link(ppred, pright, sibling)
    sibling.lock.release()


class Node:
    """One tree node. Leaves have both children None; key never changes.

    It carries no lock: seq and coarse build every node from it, and tn
    builds its leaves from it.
    """

    __slots__ = ("key", "left", "right")

    def __init__(self, key, left=None, right=None):
        self.key = key
        self.left = left
        self.right = right

    def is_leaf(self) -> bool:
        return self.left is None

    def __repr__(self):
        kind = "leaf" if self.left is None else "router"
        return f"<{kind} {self.key}>"


class LockedNode(Node):
    """An fn or fe node: ``lock`` is its own bare ``threading.Lock``."""

    __slots__ = ("lock",)

    # Node.__init__ is spelled out here and in each subclass, not called: an
    # insert builds two nodes inside its control phase, and the extra call
    # costs about 50 ns per node (super() about 180 ns; CPython 3.11, x86-64).
    def __init__(self, key, left=None, right=None):
        self.key = key
        self.left = left
        self.right = right
        self.lock = threading.Lock()


class MarkedNode(LockedNode):
    """An fem node: ``marked`` is set only while ``lock`` is held. A
    rollback clears it before the release and a delete never releases, so a
    node seen marked while its lock is free, or by the lock's holder, is
    retired for good."""

    __slots__ = ("marked",)

    def __init__(self, key, left=None, right=None):
        self.key = key
        self.left = left
        self.right = right
        self.lock = threading.Lock()
        self.marked = False


class StampedNode(LockedNode):
    """A tn router: ``version`` counts the commits made under ``lock``. Only
    the lock holder writes it, so bumping it needs no further guard."""

    __slots__ = ("version",)

    def __init__(self, key, left=None, right=None):
        self.key = key
        self.left = left
        self.right = right
        self.lock = threading.Lock()
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


class TreeBase:
    """Shared structure, descent, retry loops and bookkeeping for all variants."""

    variant = "base"
    # The node classes of the sentinel frame and of ``_load``; each
    # ``_insert`` names its own node classes directly.
    _router = Node
    _leaf = Node

    def __init__(self):
        leaf = self._leaf
        self._neg_leaf = leaf(NEG_SENTINEL)
        self._pos_leaf = leaf(POS_SENTINEL)
        self.root = self._router(POS_SENTINEL, self._neg_leaf, self._pos_leaf)
        self._retries = 0
        self._retry_mu = threading.Lock()

    # -- descent ---------------------------------------------------------

    def find(self, key: int) -> Snapshot:
        """Unlocked descent to ``key``'s leaf; validates the key and returns
        the full snapshot.

        Reading curr.left twice per level is safe: a router's children are
        never None, and a leaf's never change. Keys never change either, so
        the sides taken out of ppred and pred follow from their keys.
        """
        check_key(key)
        ppred = None
        pred = None
        curr = self.root
        while curr.left is not None:
            ppred = pred
            pred = curr
            curr = curr.left if key < curr.key else curr.right
        return Snapshot(
            ppred, ppred is not None and key >= ppred.key, pred, key >= pred.key, curr
        )

    def search(self, key: int) -> bool:
        """Optimistic membership test; never acquires a lock."""
        if type(key) is not int or not NEG_SENTINEL < key < POS_SENTINEL:
            check_key(key)
        node = self.root
        # Reading node.left twice per level is safe: a router's children are
        # never None, and a leaf's never change.
        while node.left is not None:
            node = node.left if key < node.key else node.right
        return node.key == key

    # -- updates ----------------------------------------------------------

    def insert(self, key: int) -> bool:
        """Add ``key``; True when it was absent. Each pass descends, then
        runs ``_insert`` unless the key is there; a failed pass pauses."""
        if type(key) is not int or not NEG_SENTINEL < key < POS_SENTINEL:
            check_key(key)
        while True:
            curr = self.root
            while curr.left is not None:
                pred = curr
                curr = curr.left if key < curr.key else curr.right
            if curr.key == key:
                return False
            if (result := self._insert(key, pred, curr)) is not _RETRY:
                return result
            self._count_retry()
            pause()

    def delete(self, key: int) -> bool:
        """Remove ``key``; True when it was present. Each pass descends, then
        runs ``_delete`` if the key is there; a failed pass pauses."""
        if type(key) is not int or not NEG_SENTINEL < key < POS_SENTINEL:
            check_key(key)
        while True:
            pred = None
            curr = self.root
            while curr.left is not None:
                ppred = pred
                pred = curr
                curr = curr.left if key < curr.key else curr.right
            if curr.key != key:
                return False
            if (result := self._delete(key, ppred, pred, curr)) is not _RETRY:
                return result
            self._count_retry()
            pause()

    def _count_retry(self):
        mu = self._retry_mu
        while not mu.acquire(False):
            pause()
        self._retries += 1
        mu.release()

    def retry_count(self) -> int:
        """Total failed validation/lock passes since construction."""
        return self._retries

    # -- bulk load --------------------------------------------------------

    def _load(self, keys: list[int]) -> None:
        """Build in this empty, unshared tree the tree that inserting the
        distinct application keys ``keys``, at least one, in order would
        build.

        An insert of a new key k always ends at the leaf of k's predecessor
        (the negative sentinel for the smallest key), whose key is below k,
        so it adds router k with that leaf on its left and leaf k on its
        right. The routers are therefore the search tree of the keys in
        insertion order: the Cartesian tree of the sorted keys with each
        key's position in ``keys`` as its priority, built here by the usual
        stack pass. A router's empty left slot holds its predecessor's leaf
        and its empty right slot its own leaf.

        The nodes are allocated in preorder, each leaf when its slot is
        reached, so that a descent reads memory laid out along its path.
        Nothing is locked and no version moves: the tree is not shared yet.
        """
        root = self.root
        if root.left is not self._neg_leaf:
            raise ValueError("only an empty tree can be loaded")
        # Children by priority; -1 marks a slot that holds a leaf. Arrays,
        # not lists, so no int object per child outlives the stack pass.
        left = array("q", [-1]) * len(keys)
        right = array("q", [-1]) * len(keys)
        stack = []
        for rank in sorted(range(len(keys)), key=keys.__getitem__):
            last = -1
            while stack and stack[-1] > rank:
                last = stack.pop()
            left[rank] = last
            if stack:
                right[stack[-1]] = rank
            stack.append(rank)
        # Iterative preorder from the first key's router. Each spine of left
        # children is allocated on the way down; its lowest left slot takes
        # the leaf of the key where the spine hangs (the negative sentinel
        # under the root), and every right slot waits on ``todo``.
        router, leaf = self._router, self._leaf
        node = root.left = router(keys[0])
        rank = 0
        low = None
        todo = []
        while True:
            while True:
                todo.append((node, right[rank]))
                rank = left[rank]
                if rank < 0:
                    node.left = self._neg_leaf if low is None else leaf(low)
                    break
                child = router(keys[rank])
                node.left = child
                node = child
            while todo:
                parent, rank = todo.pop()
                if rank >= 0:
                    break
                parent.right = leaf(parent.key)
            else:
                return
            low = parent.key
            node = parent.right = router(keys[rank])

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

    Its control phases link without locking or validating, so no pass fails.
    """

    variant = "seq"

    def _insert(self, key, pred, curr):
        # The new router takes the larger of the two keys, so the smaller
        # one hangs on its left and a search for either routes correctly.
        if key < curr.key:
            router = Node(curr.key, Node(key), curr)
        else:
            router = Node(key, curr, Node(key))
        _link(pred, key >= pred.key, router)
        return True

    def _delete(self, key, ppred, pred, curr):
        _link(ppred, key >= ppred.key, pred.left if key >= pred.key else pred.right)
        return True


class CoarseTree(SeqTree):
    """One tree-wide mutex around every operation, searches included.

    The mutex is taken like a node lock: tried with ``acquire(False)``, with
    a :data:`~cbst.core.pause` after each miss. A blocking acquire would park
    the waiter in the kernel until the holder's release wakes it, and the
    woken thread must then win the GIL back from the other CPU, so two
    threads convoy on the mutex. A busy mutex is a wait, not a failed pass,
    so coarse never counts a retry.
    """

    variant = "coarse"

    def __init__(self):
        super().__init__()
        self._big = threading.Lock()

    def search(self, key: int) -> bool:
        big = self._big
        while not big.acquire(False):
            pause()
        try:
            return SeqTree.search(self, key)
        finally:
            big.release()

    def insert(self, key: int) -> bool:
        big = self._big
        while not big.acquire(False):
            pause()
        try:
            return TreeBase.insert(self, key)
        finally:
            big.release()

    def delete(self, key: int) -> bool:
        big = self._big
        while not big.acquire(False):
            pause()
        try:
            return TreeBase.delete(self, key)
        finally:
            big.release()


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
    _router = _leaf = LockedNode

    def _insert(self, key, pred, curr):
        plock = pred.lock
        if not plock.acquire(False):
            return _abort()
        clock = curr.lock
        if not clock.acquire(False):
            return _abort(plock)
        right = key >= pred.key
        if (pred.right if right else pred.left) is not curr:
            return _abort(clock, plock)
        if key < curr.key:
            router = LockedNode(curr.key, LockedNode(key), curr)
        else:
            router = LockedNode(key, curr, LockedNode(key))
        _link(pred, right, router)
        clock.release()
        plock.release()
        return True

    def _delete(self, key, ppred, pred, curr):
        glock = ppred.lock
        if not glock.acquire(False):
            return _abort()
        plock = pred.lock
        if not plock.acquire(False):
            return _abort(glock)
        clock = curr.lock
        if not clock.acquire(False):
            return _abort(plock, glock)
        pright = key >= ppred.key
        right = key >= pred.key
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
    _router = _leaf = LockedNode

    def _insert(self, key, pred, curr):
        clock = curr.lock
        if not clock.acquire(False):
            return _abort()
        fcurr = self.root
        while fcurr.left is not None:
            fpred = fcurr
            fcurr = fcurr.left if key < fcurr.key else fcurr.right
        if fpred is not pred or fcurr is not curr:
            return _abort(clock)
        if key < curr.key:
            router = LockedNode(curr.key, LockedNode(key), curr)
        else:
            router = LockedNode(key, curr, LockedNode(key))
        _link(pred, key >= pred.key, router)
        clock.release()
        return True

    def _delete(self, key, ppred, pred, curr):
        plock = pred.lock
        if not plock.acquire(False):
            return _abort()
        clock = curr.lock
        if not clock.acquire(False):
            return _abort(plock)
        fpred = None
        fcurr = self.root
        while fcurr.left is not None:
            fppred = fpred
            fpred = fcurr
            fcurr = fcurr.left if key < fcurr.key else fcurr.right
        if fppred is not ppred or fpred is not pred or fcurr is not curr:
            return _abort(clock, plock)
        _link_locked_sibling(ppred, key >= ppred.key, pred, key >= pred.key)
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
    _router = _leaf = MarkedNode

    def _insert(self, key, pred, curr):
        clock = curr.lock
        if not clock.acquire(False):
            return _abort()
        right = key >= pred.key
        if pred.marked or (pred.right if right else pred.left) is not curr:
            return _abort(clock)
        if key < curr.key:
            router = MarkedNode(curr.key, MarkedNode(key), curr)
        else:
            router = MarkedNode(key, curr, MarkedNode(key))
        _link(pred, right, router)
        clock.release()
        return True

    def _delete(self, key, ppred, pred, curr):
        if pred.marked or not pred.lock.acquire(False):
            return _abort()
        pred.marked = True
        pright = key >= ppred.key
        if ppred.marked or (ppred.right if pright else ppred.left) is not pred:
            return _unmark_abort(pred)
        if not curr.lock.acquire(False):
            return _unmark_abort(pred)
        curr.marked = True
        right = key >= pred.key
        if (pred.right if right else pred.left) is not curr:
            return _unmark_abort(curr, pred)
        _link_settled_sibling(ppred, pright, pred, right)
        # pred and curr stay locked and marked forever: the marks make
        # their retirement visible, and the held locks make every later
        # acquire on them fail.
        return True


class TnTree(TreeBase):
    """Per-node locks with version-stamp validation.

    tn runs its own copies of the two retry loops. Their descent samples
    each router's version after the leaf test, which reads no mutable state,
    and before reading the child pointer it follows; no leaf's version is
    ever read. insert's control phase then locks pred and commits only if
    pred's version still equals that stamp; delete's locks ppred then pred
    the same way, top-down.
    A commit stores the link, then bumps the locked node's version, then
    releases, so an unchanged stamp under a held lock means no write
    committed on that node since its pointer was read, which pins the whole
    locked path. An aborted pass wrote nothing and releases without a bump.
    The retired pred is never released, so stale acquires on it fail.
    Leaves are never locked or stamped, so they are plain ``Node``s.
    """

    variant = "tn"
    _router = StampedNode

    def insert(self, key: int) -> bool:
        if type(key) is not int or not NEG_SENTINEL < key < POS_SENTINEL:
            check_key(key)
        while True:
            curr = self.root
            while curr.left is not None:
                pred = curr
                pstamp = curr.version
                curr = curr.left if key < curr.key else curr.right
            if curr.key == key:
                return False
            if (result := self._insert(key, pred, pstamp, curr)) is not _RETRY:
                return result
            self._count_retry()
            pause()

    def delete(self, key: int) -> bool:
        if type(key) is not int or not NEG_SENTINEL < key < POS_SENTINEL:
            check_key(key)
        while True:
            pred = None
            pstamp = 0
            curr = self.root
            while curr.left is not None:
                ppred = pred
                gstamp = pstamp
                pred = curr
                pstamp = curr.version
                curr = curr.left if key < curr.key else curr.right
            if curr.key != key:
                return False
            if (result := self._delete(key, ppred, gstamp, pred, pstamp, curr)) is not _RETRY:
                return result
            self._count_retry()
            pause()

    def _insert(self, key, pred, pstamp, curr):
        plock = pred.lock
        if not plock.acquire(False):
            return _abort()
        if pred.version != pstamp:
            return _abort(plock)
        if key < curr.key:
            router = StampedNode(curr.key, Node(key), curr)
        else:
            router = StampedNode(key, curr, Node(key))
        _link(pred, key >= pred.key, router)
        pred.version += 1
        plock.release()
        return True

    def _delete(self, key, ppred, gstamp, pred, pstamp, curr):
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
        _link(ppred, key >= ppred.key, pred.left if key >= pred.key else pred.right)
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
