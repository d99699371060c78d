"""One-line protocol mutants of the trees' control phases.

A mutant is a subclass of a tree whose ``_insert`` or ``_delete`` is its
base's own method with one snippet of its source replaced, so it drops one
lock, check, store or release and keeps everything else. ``test_schedule.py``
builds its necessity audit from them, and ``test_stress_mutants.py`` the
mutants its recorded runs must catch.
"""

import inspect
import textwrap

import cbst.tree


def mutant(name, base, method, snippet, replacement):
    """A subclass of ``base`` named ``name`` whose ``method`` is base's own,
    rebuilt from its source with ``snippet`` replaced.

    The method is compiled with ``cbst.tree``'s module dict as its globals,
    so it sees every patch made there, as the real one does. ``snippet``
    must occur exactly once, so an edit of the method that moves it fails
    here, naming the mutant, instead of testing a different mutation.
    """
    source = textwrap.dedent(inspect.getsource(getattr(base, method)))
    found = source.count(snippet)
    assert found == 1, f"{name}: {snippet!r} occurs {found} times in {base.__name__}.{method}"
    namespace = {}
    exec(source.replace(snippet, replacement), vars(cbst.tree), namespace)
    return type(name, (base,), {method: namespace[method]})
