"""Test-only references: :func:`apply_op`, which runs one operation on a
tree or a ``SeqOracle``; a brute-force linearizability oracle that the
differential tests compare ``cbst.verify.check_linearizable`` against, on
:func:`random_history`'s histories; and :func:`region_ok`, the published
constraint block that ``cbst.model.validate`` is compared against."""

from cbst.core import OpKind
from cbst.verify import History, Operation


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


def random_history(rng, max_ops):
    """Synthetic well-formed history with random overlap and random results:
    1-3 threads and at most ``max_ops`` operations on keys 0 and 1."""
    n_threads = rng.randint(1, 3)
    n_ops = rng.randint(1, max_ops)
    owners = [rng.randrange(n_threads) for _ in range(n_ops)]
    kinds = [rng.choice((OpKind.SEARCH, OpKind.INSERT, OpKind.DELETE)) for _ in range(n_ops)]
    keys = [rng.randrange(2) for _ in range(n_ops)]
    results = [rng.random() < 0.5 for _ in range(n_ops)]

    ops = []
    open_op: dict[int, tuple[int, int]] = {}  # tid -> (op index, invoke tick)
    todo = list(range(n_ops))
    tick = 0
    while todo or open_op:
        # Randomly either open the next op on a free thread or close one.
        closable = list(open_op)
        startable = [i for i in todo if owners[i] not in open_op]
        if closable and (not startable or rng.random() < 0.5):
            tid = rng.choice(closable)
            i, invoke = open_op.pop(tid)
            ops.append(Operation(tid, kinds[i], keys[i], results[i], invoke, tick))
        else:
            i = rng.choice(startable)
            todo.remove(i)
            open_op[owners[i]] = (i, tick)
        tick += 1
    # History takes each thread's operations together, in invocation order.
    ops.sort(key=lambda o: o.thread_id)
    return History(ops)


def region_ok(P, c, alpha, beta, wp, ws, wc, h):
    """Literal transcription of the published constraint block."""
    if not (P >= 1 and 0 <= c <= 1 and wp > 0 and ws > 0 and wc >= 0 and h > 1):
        return False
    if not (1.0 / ws <= beta <= 1.0):
        return False
    if not 0 <= alpha <= 1:
        return False
    if wc > 0 and alpha > ws * beta / wc:
        return False
    return True
