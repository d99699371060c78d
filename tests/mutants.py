"""One-line protocol mutants of the trees' control phases.

A mutant is a subclass of a tree whose ``_insert`` or ``_delete`` is its
base's own method with one snippet of its source replaced, so it drops one
lock, check, store or release and keeps everything else. A step inside a
function of ``cbst.tree`` that a control phase calls is dropped the same
way in that function, rebuilt by ``rebuilt``. Each is one row of ``STEPS``
or ``ROLLBACKS``, the necessity audit that ``test_schedule.py`` decides;
``test_stress_mutants.py`` builds the mutants that its seeded random
controlled runs must catch from five of those rows, by name.
"""

import inspect
import textwrap

import cbst.tree
from cbst.tree import FemTree, FeTree, FnTree, TnTree
from schedule import GRID_A, GRID_B


def rebuilt(name, function, snippet, replacement):
    """``function``, a method or a function of ``cbst.tree``, rebuilt from
    its source with ``snippet`` replaced, for the mutant ``name``.

    It is compiled with ``cbst.tree``'s module dict as its globals, so it
    sees every patch made there, as the real one does. ``snippet`` must
    occur exactly once, so an edit of the function that moves it fails here,
    naming the mutant, instead of testing a different mutation. The result
    keeps its source in ``rebuilt_source``, so it can be rebuilt in turn and
    compiled into its generator twin.
    """
    source = getattr(function, "rebuilt_source", None)
    if source is None:
        source = textwrap.dedent(inspect.getsource(function))
    found = source.count(snippet)
    assert found == 1, f"{name}: {snippet!r} occurs {found} times in {function.__qualname__}"
    source = source.replace(snippet, replacement)
    namespace = {}
    exec(source, vars(cbst.tree), namespace)
    function = namespace[function.__name__]
    function.rebuilt_source = source
    return function


def mutant(name, base, method, snippet, replacement):
    """A subclass of ``base`` named ``name`` whose ``method`` is base's own,
    rebuilt with ``snippet`` replaced."""
    return type(name, (base,), {method: rebuilt(name, getattr(base, method), snippet,
                                                replacement)})


# The necessity audit: one row per step left in a control phase of fn, fe,
# fem and tn, (name, base, method, snippet, replacement, grid). Each mutant
# drops that one step, a dropped lock becoming a fresh private one, and must
# be caught at bound 1 on its grid, the first of A and B that catches it.
# The delete's lock or mark check on ppred needs grid B, where a delete's
# ppred can be a router that another delete retires. The steps since
# dropped, fn's leaf locks and ppred->pred re-check, fem's leaf mark, its
# ppred->pred re-check and its mark test before pred's acquire, and tn's
# ppred stamp compare and bump, passed grids A and B at bound 2 and grid C
# at bound 1. ``method`` names a method of ``base`` or, for a step inside a
# function of ``cbst.tree`` that base's control phase calls, that function,
# which the run patches into the module.
STEPS = [
    ("FnInsertWithoutPredLock", FnTree, "_insert", "plock = pred.lock",
     "plock = threading.Lock()", GRID_A),
    ("FnInsertWithoutLinkCheck", FnTree, "_insert",
     "(pred.right if right else pred.left) is not curr", "False", GRID_A),
    ("FnDeleteWithoutPpredLock", FnTree, "_delete", "glock = ppred.lock",
     "glock = threading.Lock()", GRID_B),
    ("FnDeleteWithoutPredLock", FnTree, "_delete", "plock = pred.lock",
     "plock = threading.Lock()", GRID_A),
    ("FnDeleteWithoutLinkCheck", FnTree, "_delete",
     "(pred.right if right else pred.left) is not curr", "False", GRID_A),
    ("FeInsertWithoutLeafLock", FeTree, "_insert", "clock = curr.lock",
     "clock = threading.Lock()", GRID_A),
    # Commits under the leaf's lock whatever the re-traversal found.
    ("FeInsertWithoutRetraversal", FeTree, "_insert",
     "fpred is not pred or fcurr is not curr", "False", GRID_A),
    ("FeDeleteWithoutPredLock", FeTree, "_delete", "plock = pred.lock",
     "plock = threading.Lock()", GRID_A),
    ("FeDeleteWithoutLeafLock", FeTree, "_delete", "clock = curr.lock",
     "clock = threading.Lock()", GRID_A),
    ("FeDeleteWithoutRetraversal", FeTree, "_delete",
     "fppred is not ppred or fpred is not pred or fcurr is not curr", "False", GRID_A),
    # Splices pred's other child into ppred without locking it.
    ("FeDeleteWithoutSiblingLock", FeTree, "_delete",
     "_link_locked_sibling(ppred, key >= ppred.key, pred, key >= pred.key)",
     "_link(ppred, key >= ppred.key, pred.left if key >= pred.key else pred.right)",
     GRID_A),
    # Splices the sibling up under its lock and never releases it, so a later
    # update that needs the sibling waits for good. The release occurs twice
    # in the function, so the snippet takes the line before it too.
    ("FeDeleteKeepsSiblingLocked", FeTree, "_link_locked_sibling",
     "_link(ppred, pright, sibling)\n    sibling.lock.release()",
     "_link(ppred, pright, sibling)", GRID_A),
    ("FemInsertWithoutLeafLock", FemTree, "_insert", "clock = curr.lock",
     "clock = threading.Lock()", GRID_A),
    ("FemInsertWithoutMarkCheck", FemTree, "_insert", "pred.lock is _RETIRED or ", "",
     GRID_A),
    ("FemInsertWithoutLinkCheck", FemTree, "_insert",
     "(pred.right if right else pred.left) is not curr", "False", GRID_A),
    # Both checks at once: commits under the leaf's lock without looking at
    # pred's mark or link.
    ("FemInsertWithoutMarkAndLinkCheck", FemTree, "_insert",
     "pred.lock is _RETIRED or (pred.right if right else pred.left) is not curr", "False",
     GRID_A),
    ("FemDeleteWithoutPredLock", FemTree, "_delete", "plock = pred.lock",
     "plock = threading.Lock()", GRID_A),
    ("FemDeleteWithoutPredMark", FemTree, "_delete", "pred.lock = _RETIRED", "pass",
     GRID_A),
    # Marks pred only after the splice, so an insert can lock the sibling
    # leaf after the wait's test and still find pred unmarked.
    ("FemDeleteMarksAfterSplice", FemTree, "_delete",
     "pred.lock = _RETIRED\n    _link_settled_sibling(ppred, key >= ppred.key, pred, right)",
     "_link_settled_sibling(ppred, key >= ppred.key, pred, right)\n    pred.lock = _RETIRED",
     GRID_A),
    ("FemDeleteWithoutPpredMarkCheck", FemTree, "_delete", "ppred.lock is _RETIRED or ", "",
     GRID_B),
    ("FemDeleteWithoutLeafLock", FemTree, "_delete", "clock = curr.lock",
     "clock = threading.Lock()", GRID_A),
    ("FemDeleteWithoutLinkCheck", FemTree, "_delete",
     "(pred.right if right else pred.left) is not curr", "False", GRID_A),
    ("FemDeleteWithoutSiblingWait", FemTree, "_delete",
     "_link_settled_sibling(ppred, key >= ppred.key, pred, right)",
     "_link(ppred, key >= ppred.key, pred.left if right else pred.right)", GRID_A),
    # Reads pred's stamp but skips the unlocked link check after it, so an
    # insert that committed under pred between the descent's read of pred's
    # child and the stamp goes unseen.
    ("TnInsertWithoutLinkRecheck", TnTree, "_insert",
     "(pred.right if right else pred.left) is not curr", "False", GRID_A),
    ("TnInsertWithoutPredLock", TnTree, "_insert", "plock = pred.lock",
     "plock = threading.Lock()", GRID_A),
    # Commits under pred's lock without comparing its version with the
    # descent's stamp.
    ("TnInsertWithoutStampCompare", TnTree, "_insert", "pred.version != pstamp", "False",
     GRID_A),
    # Commits without bumping pred's version, so a stale stamp still matches.
    ("TnInsertWithoutVersionBump", TnTree, "_insert", "pred.version += 1", "pass", GRID_A),
    ("TnDeleteWithoutLinkRecheck", TnTree, "_delete",
     "(pred.right if right else pred.left) is not curr", "False", GRID_A),
    ("TnDeleteWithoutPpredLock", TnTree, "_delete", "glock = ppred.lock",
     "glock = threading.Lock()", GRID_B),
    ("TnDeleteWithoutPredLock", TnTree, "_delete", "plock = pred.lock",
     "plock = threading.Lock()", GRID_A),
    ("TnDeleteWithoutStampCompare", TnTree, "_delete", "pred.version != pstamp", "False",
     GRID_A),
]

# Rollbacks that drop one release and so keep a lock of a failed pass held.
# Each is caught on grid A: by ``check_structure`` when the run ends with the
# leaked lock on a reachable node, or as a hang when a later operation waits
# on it first.
ROLLBACKS = [
    ("FnInsertKeepsPredOnMovedLink", FnTree, "_insert", "_abort(plock)", "_abort()", GRID_A),
    ("FnDeleteKeepsPpredOnBusyPred", FnTree, "_delete", "_abort(glock)", "_abort()", GRID_A),
    ("FnDeleteKeepsPredOnMovedLink", FnTree, "_delete", "_abort(plock, glock)",
     "_abort(glock)", GRID_A),
    ("FnDeleteKeepsPpredOnMovedLink", FnTree, "_delete", "_abort(plock, glock)",
     "_abort(plock)", GRID_A),
    ("FeInsertKeepsLeafOnMovedPath", FeTree, "_insert", "_abort(clock)", "_abort()", GRID_A),
    ("FeDeleteKeepsPredOnBusyLeaf", FeTree, "_delete", "_abort(plock)", "_abort()", GRID_A),
    ("FeDeleteKeepsLeafOnMovedPath", FeTree, "_delete", "_abort(clock, plock)",
     "_abort(plock)", GRID_A),
    ("FeDeleteKeepsPredOnMovedPath", FeTree, "_delete", "_abort(clock, plock)",
     "_abort(clock)", GRID_A),
    ("FemInsertKeepsLeafOnStalePred", FemTree, "_insert", "_abort(clock)", "_abort()",
     GRID_A),
    ("FemDeleteKeepsPredOnMarkedPpredOrBusyLeaf", FemTree, "_delete", "_abort(plock)",
     "_abort()", GRID_A),
    ("FemDeleteKeepsLeafOnMovedLink", FemTree, "_delete", "_abort(clock, plock)",
     "_abort(plock)", GRID_A),
    ("FemDeleteKeepsPredOnMovedLink", FemTree, "_delete", "_abort(clock, plock)",
     "_abort(clock)", GRID_A),
    ("TnInsertKeepsPredOnMovedStamp", TnTree, "_insert", "_abort(plock)", "_abort()", GRID_A),
    ("TnDeleteKeepsPpredOnBusyPred", TnTree, "_delete", "_abort(glock)", "_abort()", GRID_A),
    ("TnDeleteKeepsPredOnMovedStamp", TnTree, "_delete", "_abort(plock, glock)",
     "_abort(glock)", GRID_A),
    ("TnDeleteKeepsPpredOnMovedStamp", TnTree, "_delete", "_abort(plock, glock)",
     "_abort(plock)", GRID_A),
]

# Every audit row, by its mutant's name.
ROWS = {row[0]: row for row in STEPS + ROLLBACKS}
