"""Keep every derandomized property on the same examples whatever the source says.

Hypothesis mixes literals it collects from the project's own modules into
its draws, so an edit to any file under src/ or tests/ could move a
derandomized test onto new inputs. The project contributes no such
constants here: only the test's own strategy and seed choose its examples.
"""

from hypothesis.internal.conjecture import providers
from hypothesis.internal.constants_ast import Constants

if not callable(getattr(providers, "_get_local_constants", None)):
    raise RuntimeError(
        "hypothesis.internal.conjecture.providers._get_local_constants is gone, so "
        "the project's literals can no longer be kept out of generated examples; "
        "update tests/conftest.py for this Hypothesis version"
    )


def _no_local_constants() -> Constants:
    return Constants()


providers._get_local_constants = _no_local_constants
