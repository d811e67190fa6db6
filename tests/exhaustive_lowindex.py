"""fpgroups.low_index_subgroups on the genus-2 surface group
<a, b, c, d | [a, b][c, d]>: subgroup counts by index against the
Frobenius-Mednykh formula (oracles.surface_subgroup_counts) at index
<= N (default 5), and tables, their order and the search's node count
against the rescanning enumerator (oracles.low_index_by_rescans) at
index <= M (default 4).

    PYTHONPATH=src python tests/exhaustive_lowindex.py [N [M]]

Exits non-zero on any mismatch.  Not collected by pytest: index <= 5
has 156,597 subgroups; tier 1 runs index <= 4 against the formula and
index <= 3 against the oracle.
"""

import sys
import time

from kll.fpgroups import BudgetExceeded, Presentation, low_index_subgroups
from oracles import low_index_by_rescans, surface_subgroup_counts

GENUS2 = Presentation.from_strings(["a", "b", "c", "d"], ["abABcdCD"])


def count_mismatch(max_index):
    """(counts by index, the formula's counts)."""
    subs = low_index_subgroups(GENUS2, max_index)
    got = [0] * max_index
    for t in subs:
        got[t.index - 1] += 1
    return got, surface_subgroup_counts(2, max_index)


def oracle_mismatch(max_index):
    """None, or what differs from the rescanning enumerator."""
    want, nodes = low_index_by_rescans(GENUS2.rank(), GENUS2.relators, max_index)
    try:
        got = low_index_subgroups(GENUS2, max_index, node_budget=nodes)
    except BudgetExceeded:
        return f"the search visits more than the oracle's {nodes} nodes"
    if [t.action for t in got] != want:
        return "tables or their order differ"
    try:
        low_index_subgroups(GENUS2, max_index, node_budget=nodes - 1)
    except BudgetExceeded as exc:
        if exc.reached == nodes:
            return None
    return f"the search visits fewer than the oracle's {nodes} nodes"


def main(count_index, oracle_index):
    t0 = time.time()
    got, want = count_mismatch(count_index)
    print(f"index <= {count_index}: {sum(got)} subgroups, by index {got}, "
          f"formula {want} ({time.time() - t0:.1f} s)")
    t0 = time.time()
    bad = oracle_mismatch(oracle_index)
    print(f"index <= {oracle_index} against the rescanning enumerator: "
          f"{bad or 'same tables, order and nodes'} ({time.time() - t0:.1f} s)")
    if got != want or bad:
        raise SystemExit("mismatch")


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:]]
    main(*(args + [5, 4][len(args):]))
