"""Definition-level references the benchmark checks outputs against.

Nothing here imports facthappy: the step map is the plain division
loop, and orbits are walked with a visited map, so a wrong answer from
the package cannot be reproduced by its own reference.
"""

from __future__ import annotations

import math

INTERVAL_END = math.factorial(10) - 1

# Tallies over [1, 10! - 1], keyed by attractor text. e = 2..5 are the
# acceptance suite's DENSITY_COUNTS; e = 6 is tally(6, INTERVAL_END)
# (about 15 s).
DENSITY_COUNTS = {
    2: {"1": 2220945, "4": 244026, "5": 1163828},
    3: {"1": 3421678, "16": 31856, "17": 175265},
    4: {"1": 3556797, "658": 29574, "659": 42428},
    5: {"1": 179930, "34": 1545589, "35": 38188, "308": 120298,
        "309": 200223, "1058": 357868, "1059": 139821,
        "(2114;3401)": 1046882},
    6: {"1": 295, "8258": 147850, "8259": 63347, "(67;794;731)": 3417307},
}

# Smallest-run sweeps of acceptance criterion 6 as (e, m_max, cap) and
# the oracle-confirmed starts, as (m_lo, m_hi, start) rows. e = 3 and
# e = 5 differ from the paper's reference rows; these are the values the
# uncached oracle of the acceptance suite confirms.
RUN_SWEEPS = ((2, 11, 10 ** 4), (3, 41, 10 ** 4), (4, 602, 10 ** 4),
              (5, 10, 800_000))
RUN_ROWS = {
    2: ((1, 2, 2), (3, 4, 6), (5, 11, 112)),
    3: ((1, 14, 2), (15, 22, 18), (23, 31, 63), (32, 41, 95)),
    4: ((1, 602, 2),),
    5: ((1, 9, 2), (10, 10, 700273)),
}

# The nine bundled nice offsets, keyed by (e, p), as in the acceptance
# suite and the CLI's built-in table.
NICE_OFFSETS = {
    (2, 1): 20, (2, 4): 2841, (2, 5): 45,
    (3, 1): 2, (3, 16): 50127, (3, 17): 4506,
    (4, 1): 6, (4, 658): 65763, (4, 659): 31743,
}


def run_starts(e: int) -> dict[int, int]:
    """Oracle-confirmed {m: start} for the sweep of exponent e."""
    return {m: start for lo, hi, start in RUN_ROWS[e]
            for m in range(lo, hi + 1)}


def step(n: int, e: int) -> int:
    """Sum of e-th powers of the factoradic digits of n."""
    total = 0
    radix = 2
    while n:
        n, digit = divmod(n, radix)
        total += digit ** e
        radix += 1
    return total


def orbit(n: int, e: int) -> tuple[int, tuple[int, ...]]:
    """(steps to the attractor, attractor members from the least one).

    Repeats the step until a value recurs; the first recurring value
    starts the cycle, and its first visit is the step count.
    """
    seen: dict[int, int] = {}
    path: list[int] = []
    v = n
    while v not in seen:
        seen[v] = len(path)
        path.append(v)
        v = step(v, e)
    cycle = path[seen[v]:]
    k = cycle.index(min(cycle))
    return seen[v], tuple(cycle[k:] + cycle[:k])


def text(members: tuple[int, ...]) -> str:
    """Attractor label: "5" for a fixed point, "(2114;3401)" for a cycle."""
    if len(members) == 1:
        return str(members[0])
    return "(" + ";".join(map(str, members)) + ")"


def tally(e: int, upper: int) -> dict[str, int]:
    """{attractor text: count} over [1, upper], walking each orbit until a
    value whose attractor is already known, or a repeat.

    Only values up to the largest step image of [1, upper] are
    remembered, which bounds the memory; a larger value is walked again
    whenever it is reached.
    """
    width = 0
    while math.factorial(width + 1) <= upper:
        width += 1
    limit = sum(i ** e for i in range(1, width + 1))
    known: dict[int, tuple[int, ...]] = {}
    counts: dict[str, int] = {}
    for n in range(1, upper + 1):
        path: list[int] = []
        seen: dict[int, int] = {}
        v = n
        while v not in known and v not in seen:
            seen[v] = len(path)
            path.append(v)
            v = step(v, e)
        if v in known:
            members = known[v]
        else:
            cycle = path[seen[v]:]
            k = cycle.index(min(cycle))
            members = tuple(cycle[k:] + cycle[:k])
        for u in path:
            if u <= limit:
                known[u] = members
        counts[text(members)] = counts.get(text(members), 0) + 1
    return counts


def first_passage(n: int, e: int, target: int, cap: int = 1000) -> int | None:
    """Least q with step^q(n) == target, or None within cap steps."""
    for q in range(cap + 1):
        if n == target:
            return q
        n = step(n, e)
    return None


def value(digits) -> int:
    """Integer value of little-endian factoradic digits."""
    total = 0
    fact = 1
    for i, digit in enumerate(digits, start=1):
        fact *= i
        total += digit * fact
    return total


def digits_text(n: int) -> str:
    """Big-endian factoradic text of n, "0!" for zero."""
    out = []
    radix = 2
    while n:
        n, digit = divmod(n, radix)
        out.append(str(digit))
        radix += 1
    return ".".join(reversed(out)) + "!" if out else "0!"
