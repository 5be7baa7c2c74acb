import functools

import numpy as np
import pytest

from ttp2 import ordering
from ttp2.schedule import Schedule

# The most kernel evaluations one `polish` may make before its test fails.
# The most any `polish` in tests/ makes is 353 (n = 122), and all of tests/
# make about 75,000, so a search that ends has 28x headroom.
POLISH_EVALUATIONS = 10_000

# The 8-team reference schedule (signed 1-based opponents, teams x days).
GOLDEN_N8 = np.array(
    [
        [-3, -4, 3, 4, -5, 6, 5, -6, 2, -7, -8, 7, 8, -2],
        [-4, -3, 4, 3, -6, -5, 6, 5, -1, -8, 7, 8, -7, 1],
        [1, 2, -1, -2, 7, 8, -7, -8, 4, -5, -6, 5, 6, -4],
        [2, 1, -2, -1, 8, -7, -8, 7, -3, -6, 5, 6, -5, 3],
        [7, 8, -7, -8, 1, 2, -1, -2, 6, 3, -4, -3, 4, -6],
        [8, 7, -8, -7, 2, -1, -2, 1, -5, 4, 3, -4, -3, 5],
        [-5, -6, 5, 6, -3, 4, 3, -4, 8, 1, -2, -1, 2, -8],
        [-6, -5, 6, 5, -4, -3, 4, 3, -7, 2, 1, -2, -1, 7],
    ],
    dtype=np.int64,
)


@pytest.fixture(autouse=True)
def bounded_polish(monkeypatch):
    """Fail a test by name where a `polish` does not end, rather than hang
    the suite: count the evaluations of the evaluators bound to each search
    buffer, one buffer per `polish`, and raise past POLISH_EVALUATIONS."""
    seen = {"buf": None, "count": 0}

    def counted(kernel):
        @functools.wraps(kernel)
        def wrapper(blocks, buf):
            evaluate = kernel(blocks, buf)

            def evaluation(*args):
                if buf is not seen["buf"]:
                    seen.update(buf=buf, count=0)
                seen["count"] += 1
                if seen["count"] > POLISH_EVALUATIONS:
                    raise AssertionError(f"a polish made more than {POLISH_EVALUATIONS} kernel evaluations")
                return evaluate(*args)

            return evaluation

        return wrapper

    for name in ("_swap_deltas", "_flip_deltas", "_window_deltas"):
        monkeypatch.setattr(ordering, name, counted(getattr(ordering, name)))


@pytest.fixture
def golden_n8() -> Schedule:
    return Schedule(GOLDEN_N8)


def enumerate_perfect_matchings(teams):
    """All perfect matchings of a team list, as tuples of sorted pairs."""
    teams = tuple(teams)
    if not teams:
        yield ()
        return
    first = teams[0]
    for idx in range(1, len(teams)):
        rest = teams[1:idx] + teams[idx + 1 :]
        for sub in enumerate_perfect_matchings(rest):
            yield ((first, teams[idx]),) + sub
