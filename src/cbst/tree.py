"""External binary search trees under six locking disciplines.

All variants share one data layout: keys live only in leaves, and every
internal node is a binary router with exactly two children. A search for k
goes left when k < node.key and right otherwise, so ties route right and a
router's key equals the smallest key reachable in its right subtree.

Every tree is born with three immortal nodes: a root router keyed with the
positive sentinel, a negative-sentinel leaf on its left and a
positive-sentinel leaf on its right. Application keys are confined strictly
between the sentinels, so a descent always ends in a leaf and the root is
never replaced. Its first step would always go left, after a compare with
the multi-digit ``POS_SENTINEL``, so every descent (``search``, ``find``, the
retry loops and fe's re-traversals) takes that step without the compare: it
reads ``self.root`` once and starts at ``root.left``, with the root as pred.

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
error. Each ``_insert`` builds its router and leaf with its own node
builders, named directly, and fe's re-traversal is a loop of the same shape
as the retry loops' descent.

Variant summary::

    name    locks                          validation after locking
    ----    ----                           ----
    seq     none (single thread only)      none
    coarse  one tree-wide mutex, tried     none
            like a node lock
    fn      node locks on ppred/pred       pred->curr link re-checked
    fe      node locks on pred/curr/sib.   fresh root-to-leaf re-traversal
    fem     node locks on pred/curr, and   insert: pred's mark and the
            a mark on delete's pred        pred->curr link; delete: ppred's
                                           mark and the pred->curr link
    tn      node locks on ppred/pred       pred's version stamp from the
                                           descent, bumped by insert commits

Each variant's nodes hold only the state its protocol touches. seq and
coarse build every node as a plain ``Node``: a key and two child pointers.
fe builds ``LockedNode``s, which add one bare ``threading.Lock``, and fem's
``MarkedNode`` adds the ``marked`` flag to that. fn and tn lock only routers,
so their leaves, sentinels included, are plain ``Node``s; fn's routers are
``LockedNode``s and tn's ``StampedNode``s (a lock and a ``version``). A mark
or a version is written only by the holder of its node's lock. No node class
has an ``__init__``: each has one builder (``new_node``, ``new_locked_node``,
``new_marked_node``, ``new_stamped_node``) that calls ``object.__new__`` and
sets every slot, which is cheaper than a class call. All four take ``(key,
left=None, right=None, lock=None)``; ``new_node`` ignores the lock. Every
node lock, and coarse's tree mutex, is taken only with ``acquire(False)`` and
a pause after each miss, so no thread ever blocks on a lock. Retries are
counted per thread, so counting takes no lock.

A benchmark prefill does not insert its keys one at a time.
``TreeBase._load`` hangs under the root of an empty tree, before the tree is
shared, the subtree those inserts would build, allocated in preorder so that
a descent reads memory laid out along its path. A bare lock falls in the
same 64-byte pymalloc size class as a ``Node`` and a ``LockedNode`` (CPython
3.11), so a lock made by each node's builder would take every other block
and spread the locked nodes over up to twice the pages that seq's take.
The load therefore makes all the locks it needs first, in one batch, and
calls every builder with the lock drawn for it: the batch's next lock for a
locked node, None for a plain one. Nodes built by an insert still get their
locks from their builders, so they alternate with them. The load takes no
lock and moves no version, so tn's prefilled routers start at version 0
rather than at the number of commits the inserts would have made on them.

Nodes unlinked by a delete are never recycled in place: fn leaves the
retired pred locked, fem leaves pred marked and locked, and curr locked, and
tn leaves the retired pred locked with its version frozen, so a stale
operation that still points at them fails its lock or validation step and
retries from the root. fe releases them; its re-traversal never finds them
again. The unlinked nodes themselves stay readable for as long as any
in-flight traversal can reach them; reclamation is left to reference
counting.
"""

from __future__ import annotations

import threading
from array import array
from itertools import repeat, starmap
from typing import NamedTuple

from .core import NEG_SENTINEL, POS_SENTINEL, check_key, pause

# What a failed pass returns in place of a result.
_RETRY = object()


def _abort(*locks):
    """Release ``locks`` in the order given and fail the pass."""
    for lock in locks:
        lock.release()
    return _RETRY


def _unmark_abort(pred):
    """fem rollback: clear pred's mark strictly before releasing its lock."""
    pred.marked = False
    pred.lock.release()
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

    It carries no lock: seq and coarse build every node as one, and fn and
    tn build their leaves as one. Like every node class it has no ``__init__``;
    its builder ``new_node`` makes it.
    """

    __slots__ = ("key", "left", "right")

    def is_leaf(self) -> bool:
        return self.left is None

    def __repr__(self):
        kind = "leaf" if self.left is None else "router"
        return f"<{kind} {self.key}>"


class LockedNode(Node):
    """An fe node or an fn router; ``lock`` is a bare ``threading.Lock``."""

    __slots__ = ("lock",)


class MarkedNode(LockedNode):
    """An fem node: ``marked`` is set only while ``lock`` is held, and only
    on a router, by the delete that holds it as pred. A rollback clears it
    before the release and a delete never releases, so a node seen marked
    while its lock is free, or by the lock's holder, is retired for good."""

    __slots__ = ("marked",)


class StampedNode(LockedNode):
    """A tn router: ``version`` counts the commits made under ``lock``. Only
    the lock holder writes it, so bumping it needs no further guard."""

    __slots__ = ("version",)


# One builder per node class, each the only way to make its nodes. A class
# call runs type.__call__ and then __init__ in a frame of its own: with
# timeit on CPython 3.11 (x86-64 Xeon) a Node took 185 ns that way and 151 ns
# from its builder, a MarkedNode 292 and 253 ns, and an insert builds two
# nodes inside its control phase. Each builder sets every slot itself
# rather than call another builder, which would cost one more call per node:
# a locked node gets a free lock, made here unless the caller hands one over
# (``TreeBase._load`` does), a mark starts False and a version 0.
_new = object.__new__


def new_node(key, left=None, right=None, lock=None):
    """A ``Node``; it has no lock slot, so ``lock`` is ignored."""
    node = _new(Node)
    node.key = key
    node.left = left
    node.right = right
    return node


def new_locked_node(key, left=None, right=None, lock=None):
    """A ``LockedNode`` holding ``lock``, or a new lock."""
    node = _new(LockedNode)
    node.key = key
    node.left = left
    node.right = right
    node.lock = threading.Lock() if lock is None else lock
    return node


def new_marked_node(key, left=None, right=None, lock=None):
    """An unmarked ``MarkedNode`` holding ``lock``, or a new lock."""
    node = _new(MarkedNode)
    node.key = key
    node.left = left
    node.right = right
    node.lock = threading.Lock() if lock is None else lock
    node.marked = False
    return node


def new_stamped_node(key, left=None, right=None, lock=None):
    """A ``StampedNode`` at version 0 holding ``lock``, or a new lock."""
    node = _new(StampedNode)
    node.key = key
    node.left = left
    node.right = right
    node.lock = threading.Lock() if lock is None else lock
    node.version = 0
    return node


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
    # The node builders of the sentinel frame and of ``_load``; each
    # ``_insert`` names its own builders directly.
    _router = staticmethod(new_node)
    _leaf = staticmethod(new_node)

    def __init__(self):
        leaf = self._leaf
        self._neg_leaf = leaf(NEG_SENTINEL)
        self._pos_leaf = leaf(POS_SENTINEL)
        self.root = self._router(POS_SENTINEL, self._neg_leaf, self._pos_leaf)
        self._retries = {}  # thread ident -> its failed passes

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
        pred = self.root
        curr = pred.left
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
        node = self.root.left
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
            pred = self.root
            curr = pred.left
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
            # A descent that takes no step reached the negative sentinel, so
            # the pass ends before it reads ppred.
            pred = self.root
            curr = pred.left
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
        """Count a failed pass in this thread's own entry: exact, no lock."""
        retries = self._retries
        me = threading.get_ident()
        retries[me] = retries.get(me, 0) + 1

    def retry_count(self) -> int:
        """Total failed validation/lock passes since construction."""
        # copy() is one C call, so no thread can resize the dict mid-sum.
        return sum(self._retries.copy().values())

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
        The locks come first, in one batch, and every builder call is handed
        the lock drawn for it, None for a plain ``Node``: a lock shares the
        nodes' pymalloc size class, so locks made between them would take
        every other block (see the module docstring). Nothing is locked and
        no version moves: the tree is not shared yet.
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
        # One router and one leaf per key. The sentinel frame came from the
        # same builders, so it shows which of them take a lock. A locked node
        # is handed the batch's next lock by a C-level pop, a plain one None.
        router, leaf = self._router, self._leaf
        rlocked = hasattr(root, "lock")
        llocked = hasattr(self._neg_leaf, "lock")
        count = (rlocked + llocked) * len(keys)
        locks = list(starmap(threading.Lock, repeat((), count)))
        rlock = locks.pop if rlocked else repeat(None).__next__
        llock = locks.pop if llocked else repeat(None).__next__
        # Iterative preorder from the first key's router. Each spine of left
        # children is allocated on the way down; its lowest left slot takes
        # the leaf of the key where the spine hangs (the negative sentinel
        # under the root), and every right slot waits on ``todo``.
        root.left = node = router(keys[0], None, None, rlock())
        rank = 0
        low = None
        todo = []
        while True:
            while True:
                todo.append((node, right[rank]))
                rank = left[rank]
                if rank < 0:
                    node.left = self._neg_leaf if low is None else leaf(low, None, None, llock())
                    break
                child = router(keys[rank], None, None, rlock())
                node.left = child
                node = child
            while todo:
                parent, rank = todo.pop()
                if rank >= 0:
                    break
                parent.right = leaf(parent.key, None, None, llock())
            else:
                return
            low = parent.key
            parent.right = node = router(keys[rank], None, None, rlock())

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
            router = new_node(curr.key, new_node(key), curr)
        else:
            router = new_node(key, curr, new_node(key))
        _link(pred, key >= pred.key, router)
        return True

    def _delete(self, key, ppred, pred, curr):
        _link(ppred, key >= ppred.key, pred.left if key >= pred.key else pred.right)
        return True


def _serialised(op):
    """``op`` run under coarse's tree mutex, tried like a node lock."""

    def serialised(self, key):
        big = self._big
        while not big.acquire(False):
            pause()
        try:
            return op(self, key)
        finally:
            big.release()

    return serialised


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

    search = _serialised(TreeBase.search)
    insert = _serialised(TreeBase.insert)
    delete = _serialised(TreeBase.delete)


class FnTree(TreeBase):
    """Per-node locks on the routers above the reached leaf.

    insert locks pred; delete locks ppred, then pred, top-down so lock
    chains run toward the leaves and cannot cycle. Each then re-checks only
    the link from pred to curr. Only routers are locked, so they are
    ``LockedNode``s and the leaves, sentinels included, plain ``Node``s.

    Why that suffices:

    * A router leaves the tree only as some delete's pred, and that delete
      never releases it. So a router whose acquire succeeds is reachable,
      and it stays reachable while it is held.
    * The edge into a router changes only when its parent is retired, or
      the router itself. So holding ppred and pred pins ppred->pred: the
      link the descent read is still there, and no re-check is needed.
    * Every change to the edge into a leaf holds the leaf's parent's lock:
      an insert holds pred over curr, and a delete holds pred while it
      splices pred's other child up and retires curr. So holding pred pins
      pred->curr once re-checked, and a lock on curr would guard nothing.
    """

    variant = "fn"
    _router = staticmethod(new_locked_node)

    def _insert(self, key, pred, curr):
        plock = pred.lock
        if not plock.acquire(False):
            return _abort()
        right = key >= pred.key
        if (pred.right if right else pred.left) is not curr:
            return _abort(plock)
        if key < curr.key:
            router = new_locked_node(curr.key, new_node(key), curr)
        else:
            router = new_locked_node(key, curr, new_node(key))
        _link(pred, right, router)
        plock.release()
        return True

    def _delete(self, key, ppred, pred, curr):
        glock = ppred.lock
        if not glock.acquire(False):
            return _abort()
        plock = pred.lock
        if not plock.acquire(False):
            return _abort(glock)
        right = key >= pred.key
        if (pred.right if right else pred.left) is not curr:
            return _abort(plock, glock)
        _link(ppred, key >= ppred.key, pred.left if right else pred.right)
        glock.release()
        # pred leaves the tree still locked, so any operation still
        # pointing at it fails its acquire and retries.
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
    _router = _leaf = staticmethod(new_locked_node)

    def _insert(self, key, pred, curr):
        clock = curr.lock
        if not clock.acquire(False):
            return _abort()
        fpred = self.root
        fcurr = fpred.left
        while fcurr.left is not None:
            fpred = fcurr
            fcurr = fcurr.left if key < fcurr.key else fcurr.right
        if fpred is not pred or fcurr is not curr:
            return _abort(clock)
        if key < curr.key:
            router = new_locked_node(curr.key, new_locked_node(key), curr)
        else:
            router = new_locked_node(key, curr, new_locked_node(key))
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
        # The loop takes no step when the tree was emptied since the descent.
        fppred = None
        fpred = self.root
        fcurr = fpred.left
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
    """Per-node locks on the edges above the reached leaf, plus a mark on
    the router a delete retires.

    insert owns the edge above the reached leaf by locking the leaf itself,
    then checks that pred is unmarked and still links to curr. delete locks
    pred and sets ``marked`` on it right after the acquire, checks that
    ppred is unmarked, then locks curr and re-checks the pred->curr link.
    The mark is what lets a later operation tell a retired router from a
    merely busy one without re-descending: a rollback unmarks strictly before
    it releases, and a successful delete never releases pred, so a visibly
    marked router is permanently out of the tree.

    Why that suffices:

    * A router leaves the tree only as some delete's pred, and that delete
      never releases it. So a router whose acquire succeeds is reachable,
      and it stays reachable while it is held. A marked router is always
      held, so its acquire fails, and a test of the mark before it would
      only repeat it.
    * The edge into a router changes only when that router or its parent is
      retired. Holding pred rules out the first. A delete that retires ppred
      marks it first, and then waits for ppred's other child, pred, to be
      free before it splices that child up. So if ppred is unmarked once
      pred is held, ppred->pred stays until this delete releases pred or
      commits, and no re-check of that link is needed.
    * Inserts change only the edges into leaves, and every change to the
      edge into a leaf holds that leaf's lock or retires its parent. So
      holding pred and curr pins pred->curr once re-checked.
    * A leaf is never pred or ppred, so no code reads a leaf's mark, and
      delete does not mark curr.
    """

    variant = "fem"
    # The leaves stay MarkedNodes although their mark is never read. Built
    # as LockedNodes they saved 8 bytes a key, but fem's benchmark rate on
    # 2-thread updates fell (median 0.677 to 0.643 of the reference, lower
    # in 4 of 4 pairs) and a single-thread loop ran 3.3 % slower (2 vCPUs,
    # CPython 3.11). The likely cause, unverified, is that such leaves share
    # pymalloc's 64-byte size class with the locks.
    _router = _leaf = staticmethod(new_marked_node)

    def _insert(self, key, pred, curr):
        clock = curr.lock
        if not clock.acquire(False):
            return _abort()
        right = key >= pred.key
        if pred.marked or (pred.right if right else pred.left) is not curr:
            return _abort(clock)
        if key < curr.key:
            router = new_marked_node(curr.key, new_marked_node(key), curr)
        else:
            router = new_marked_node(key, curr, new_marked_node(key))
        _link(pred, right, router)
        clock.release()
        return True

    def _delete(self, key, ppred, pred, curr):
        if not pred.lock.acquire(False):
            return _abort()
        pred.marked = True
        clock = curr.lock
        if ppred.marked or not clock.acquire(False):
            return _unmark_abort(pred)
        right = key >= pred.key
        if (pred.right if right else pred.left) is not curr:
            clock.release()
            return _unmark_abort(pred)
        _link_settled_sibling(ppred, key >= ppred.key, pred, right)
        # pred stays marked and locked forever, and curr locked: the mark
        # makes pred's retirement visible, and the held locks make every
        # later acquire on either fail.
        return True


class TnTree(TreeBase):
    """Per-node locks with version-stamp validation.

    tn runs its own copies of the two retry loops. Their descent samples
    each router's version after the leaf test, which reads no mutable state,
    and before reading the child pointer it follows; no leaf's version is
    ever read. insert's control phase then locks pred and commits only if
    pred's version still equals that stamp; delete's locks ppred then pred,
    top-down, and compares pred's version alone. An insert commit stores the
    link, then bumps pred's version, then releases, so an unchanged stamp
    under a held lock means no insert committed under pred since its pointer
    was read. An aborted pass wrote nothing and releases without a bump. The
    retired pred is never released and its version never moves again.
    Leaves are never locked or stamped, so they are plain ``Node``s.

    Why that suffices:

    * A router leaves the tree only as some delete's pred, and that delete
      never releases it. So a router whose acquire succeeds is reachable,
      and it stays reachable while it is held.
    * The edge into a router changes only when that router or its parent is
      retired, and both stay locked for good. So holding ppred and pred pins
      ppred->pred, and neither ppred's stamp nor a bump of ppred's version
      would guard anything. An insert that commits under ppred changes only
      the edge into a leaf, on the side away from pred.
    * The edge into a leaf changes through an insert under its parent, which
      moves the parent's version, or through a delete that retires the
      parent. So holding pred with its stamp unchanged pins pred->curr.
    """

    variant = "tn"
    _router = staticmethod(new_stamped_node)

    def insert(self, key: int) -> bool:
        if type(key) is not int or not NEG_SENTINEL < key < POS_SENTINEL:
            check_key(key)
        while True:
            pred = self.root
            pstamp = pred.version
            curr = pred.left
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
            # As in TreeBase.delete, a descent that takes no step ends the
            # pass before ppred and pstamp are read.
            pred = self.root
            curr = pred.left
            while curr.left is not None:
                ppred = pred
                pred = curr
                pstamp = curr.version
                curr = curr.left if key < curr.key else curr.right
            if curr.key != key:
                return False
            if (result := self._delete(key, ppred, pred, pstamp, curr)) is not _RETRY:
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
            router = new_stamped_node(curr.key, new_node(key), curr)
        else:
            router = new_stamped_node(key, curr, new_node(key))
        _link(pred, key >= pred.key, router)
        pred.version += 1
        plock.release()
        return True

    def _delete(self, key, ppred, pred, pstamp, curr):
        glock = ppred.lock
        if not glock.acquire(False):
            return _abort()
        plock = pred.lock
        if not plock.acquire(False):
            return _abort(glock)
        if pred.version != pstamp:
            return _abort(plock, glock)
        _link(ppred, key >= ppred.key, pred.left if key >= pred.key else pred.right)
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
