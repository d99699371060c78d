"""Test-only references: :func:`apply_op`, which runs one operation on a
tree or a ``SeqOracle``, and a brute-force linearizability oracle that the
differential tests compare ``cbst.verify.check_linearizable`` against."""

from cbst.core import OpKind
from cbst.verify import History


def apply_op(target, op, key):
    """Run ``op`` on ``key`` against ``target``, a tree or a ``SeqOracle``,
    and return its result."""
    if op is OpKind.INSERT:
        return target.insert(key)
    if op is OpKind.DELETE:
        return target.delete(key)
    return target.search(key)


def brute_force_linearizable(history: History) -> bool:
    """Reference decision procedure: enumerate every real-time-respecting
    total order and replay each one wholesale from the empty set.

    No memoization and no incremental pruning, so it shares no machinery
    with ``check_linearizable``; exponential, use only on tiny
    histories.
    """
    ops = history.operations()
    n = len(ops)

    def replay(order: list[int]) -> bool:
        members = set()
        for i in order:
            op = ops[i]
            present = op.key in members
            if op.op is OpKind.SEARCH:
                if op.result != present:
                    return False
            elif op.op is OpKind.INSERT:
                if op.result == present:
                    return False
                if op.result:
                    members.add(op.key)
            else:
                if op.result != present:
                    return False
                if op.result:
                    members.discard(op.key)
        return True

    def orders(remaining: set, prefix: list) -> bool:
        if not remaining:
            return replay(prefix)
        for i in sorted(remaining):
            if any(ops[j].respond_ts < ops[i].invoke_ts for j in remaining if j != i):
                continue
            remaining.discard(i)
            prefix.append(i)
            if orders(remaining, prefix):
                remaining.add(i)
                prefix.pop()
                return True
            prefix.pop()
            remaining.add(i)
        return False

    return orders(set(range(n)), [])
