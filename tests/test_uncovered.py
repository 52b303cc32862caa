import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import uncovered  # noqa: E402

SOURCE = '''\
import os
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction


@staticmethod
def f(x):
    """Docstring."""
    global y
    if x:
        return g(
            x)
    try:
        pass
    except ValueError:
        raise
    return None
'''


def test_a_trace_that_saw_nothing_leaves_every_statement_that_compiles_to_code():
    # not the docstring (10), the global declaration (11) or what only a
    # type checker reads (5); a decorated def is named at its def line
    assert uncovered.unexecuted(SOURCE, set()) == [1, 2, 4, 9, 12, 13, 15, 16, 18, 19]


def test_a_statement_ran_where_the_trace_saw_any_of_its_own_lines():
    # the return spans 13-14 and is seen at 14 only; the def is seen at its
    # decorator; the if, the try and the except clause are seen at their
    # headers, so only the raise inside the handler never ran
    executed = {1, 2, 4, 8, 12, 14, 15, 16, 19}
    assert uncovered.unexecuted(SOURCE, executed) == [18]


def test_a_header_that_ran_does_not_cover_its_body():
    assert uncovered.unexecuted(SOURCE, {1, 2, 4, 9, 12, 15, 19}) == [13, 16, 18]
