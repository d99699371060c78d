"""Record a concurrent run, then put every checker through its paces:
linearizability on real and doctored histories and against final contents,
and structure checks on healthy and corrupted trees.
"""

import sys

from cbst import (
    History,
    StressConfig,
    check_linearizable,
    check_structure,
    count_overlapping,
    run_stress,
)
from cbst.tree import new_tree


def main():
    print("== recorded stress run ==")
    config = StressConfig(variant="fem", threads=4, key_range=12,
                          insert_pct=40, delete_pct=30, search_pct=30,
                          seed=7, ops_per_thread=2000)
    history, tree = run_stress(config)
    print(f"{len(history)} operations across {config.threads} threads:")
    for line in history.to_lines()[:6]:
        print("   ", line)
    print("    ...")
    print("linearizable to the final contents:",
          check_linearizable(history, tree.collect_leaf_keys()))
    # Real threads run in turn when no CPU is free for the ones waiting for
    # the interpreter lock, so a run may overlap nothing.
    print(f"operations that overlap another thread's: {count_overlapping(history)} "
          f"of {len(history)} (0 means the run tested no race)")
    print("structure ok:", check_structure(tree).ok)

    print("\n== doctored history ==")
    # an insert completes, then a later search misses the key anyway; one
    # operation per line: thread, op, key, result, invoke and respond stamps
    lines = [
        "0 INSERT 5 true 1000 2000",
        "1 SEARCH 5 false 3000 4000",
    ]
    bad = History.from_lines(lines)
    for line in lines:
        print("   ", line)
    print("linearizable:", check_linearizable(bad))

    print("\n== corrupted tree ==")
    t = new_tree("seq")
    for key in (10, 20, 30):
        t.insert(key)
    # swap a router's children so leaf order breaks
    router = t.root.left
    router.left, router.right = router.right, router.left
    report = check_structure(t)
    print("structure ok:", report.ok)
    for violation in report.violations:
        print("   ", violation)

    print("\n== orphaned key ==")
    t2 = new_tree("seq")
    t2.insert(42)
    empty = History([])
    print("final contents", t2.collect_leaf_keys(), "with no recorded ops:")
    print("linearizable to the final contents:",
          check_linearizable(empty, t2.collect_leaf_keys()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
