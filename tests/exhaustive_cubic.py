"""The girth and b1 = 2 subgraph lemmas on every connected cubic
multigraph with at most MAX vertices (default 14), up to isomorphism.

    PYTHONPATH=src python tests/exhaustive_cubic.py [MAX]

Exits non-zero unless the class counts are those of OEIS A005967 and
both lemma bounds hold on every graph.  Not collected by pytest: at
V <= 14 it checks 24,171 graphs.
"""

import sys
import time

from kll.trivalent import b1_two_subgraph, generate_connected_trivalent, short_cycle

A005967 = {2: 2, 4: 5, 6: 17, 8: 71, 10: 388, 12: 2592, 14: 21096}


def main(max_vertices):
    t0 = time.time()
    gen = generate_connected_trivalent(max_vertices)
    counts = {v: len(graphs) for v, graphs in gen.items()}
    expected = {v: k for v, k in A005967.items() if v <= max_vertices}
    if counts != expected:
        raise SystemExit(f"class counts {counts}, expected {expected}")
    generated = time.time() - t0
    for v, graphs in gen.items():
        for g in graphs:
            if not (short_cycle(g).holds and b1_two_subgraph(g).holds):
                raise SystemExit(f"lemma bound fails on V={v} edges {g.edges}")
    print(f"{sum(counts.values())} graphs, counts {counts}: both bounds hold "
          f"(generation {generated:.1f} s, total {time.time() - t0:.1f} s)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 14)
