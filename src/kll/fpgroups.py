"""Finitely presented groups: mod-p homology rank, Reidemeister-Schreier
subgroup presentations, low-index subgroup enumeration by backtracking
coset-table completion, cyclic-cover towers, and the Golod-Shafarevich
margin computations.

Words are tuples of nonzero signed integers (+i for generator i-1,
negative for inverses).  The JSON convention writes words as strings
with capital letters for inverses: "aabAB" = a a b a^-1 b^-1.
"""

from dataclasses import dataclass
from fractions import Fraction

from .dyadic import Enclosure
from .linalg import rank_modp


class NotSurjective(ValueError):
    """Exponent vector does not generate Z."""


class RelatorNotKilled(ValueError):
    """A relator has nonzero image under the homomorphism."""


class BudgetExceeded(RuntimeError):
    """An enumeration outgrew one of its budgets: `budget` names the
    quantity capped, `limit` is the cap and `reached` how far the run got."""

    def __init__(self, budget, limit, reached):
        super().__init__(f"{budget} reached {reached}, over its budget {limit}")
        self.budget, self.limit, self.reached = budget, limit, reached


DEFAULT_MAX_INDEX = 12
DEFAULT_NODE_BUDGET = 10 ** 7


# ---------------------------------------------------------------------------
# Words

def parse_word(s, generators=None):
    """String with capitals-as-inverses -> signed integer tuple.

    Letters are resolved against the generator name list when given,
    else against position in the alphabet.
    """
    index = {}
    if generators is not None:
        for i, name in enumerate(generators, start=1):
            index[name] = i
    out = []
    for ch in s:
        low = ch.lower()
        if low in index:
            g = index[low]
        elif ch.isalpha():
            g = ord(low) - ord("a") + 1
        else:
            raise ValueError(f"bad word character {ch!r}")
        out.append(g if ch.islower() else -g)
    return free_reduce(tuple(out))


def word_to_string(w):
    out = []
    for x in w:
        if x > 0:
            out.append(chr(ord("a") + x - 1))
        else:
            out.append(chr(ord("A") - x - 1))
    return "".join(out)


def free_reduce(w):
    out = []
    for x in w:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def invert_word(w):
    return tuple(-x for x in reversed(w))


def _cyclic_canon(w):
    """Canonical representative of a relator up to rotation and inversion."""
    w = free_reduce(w)
    # cyclically reduce
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    if not w:
        return ()
    best = None
    for cand in (w, invert_word(w)):
        for i in range(len(cand)):
            rot = cand[i:] + cand[:i]
            if best is None or rot < best:
                best = rot
    return best


@dataclass(frozen=True)
class Presentation:
    """<X | R> with freely reduced relators."""

    generators: tuple
    relators: tuple

    def __post_init__(self):
        rels = tuple(free_reduce(tuple(r)) for r in self.relators)
        object.__setattr__(self, "relators", rels)
        ng = len(self.generators)
        for r in rels:
            if any(abs(x) > ng or x == 0 for x in r):
                raise ValueError("relator uses an unknown generator")

    @classmethod
    def from_strings(cls, gens, rels):
        return cls(tuple(gens), tuple(parse_word(r, gens) for r in rels))

    @classmethod
    def from_json(cls, obj):
        return cls.from_strings(obj["gens"], obj["rels"])

    def to_json(self):
        return {"gens": list(self.generators),
                "rels": [word_to_string(r) for r in self.relators]}

    @classmethod
    def free(cls, rank):
        names = [chr(ord("a") + i) if rank <= 26 else f"x{i}" for i in range(rank)]
        return cls(tuple(names), ())

    def rank(self):
        return len(self.generators)

    def abelianized_matrix(self):
        """Rows = relators, columns = generator exponent sums."""
        rows = []
        for r in self.relators:
            row = [0] * len(self.generators)
            for x in r:
                row[abs(x) - 1] += 1 if x > 0 else -1
            rows.append(row)
        return rows

    def simplified(self):
        """Free reduction, trivial/duplicate relator removal, and
        elimination of generators forced trivial (single-generator
        relators) or redundant (two-letter relators on distinct
        generators).  Group-preserving cleanup only."""
        gens = list(self.generators)
        rels = [free_reduce(r) for r in self.relators]
        changed = True
        while changed:
            changed = False
            canon = []
            seen = set()
            for r in rels:
                c = _cyclic_canon(r)
                if c and c not in seen:
                    seen.add(c)
                    canon.append(c)
            rels = canon
            # generator forced trivial: relator of length 1
            single = next((r for r in rels if len(r) == 1), None)
            if single is not None:
                dead = abs(single[0])
                rels = [tuple(x for x in r if abs(x) != dead) for r in rels]
                rels = [free_reduce(r) for r in rels]
                gens, rels = _renumber_without(gens, rels, dead)
                changed = True
                continue
            # two-letter relator on distinct generators: substitute away
            pair = next((r for r in rels if len(r) == 2 and abs(r[0]) != abs(r[1])), None)
            if pair is not None:
                # pair (u, v): v = u^-1 as group elements
                u, v = pair
                target = abs(v)
                repl = (-u,) if v > 0 else (u,)
                new_rels = []
                for r in rels:
                    if r == pair:
                        continue
                    out = []
                    for x in r:
                        if abs(x) == target:
                            out.extend(repl if x > 0 else invert_word(repl))
                        else:
                            out.append(x)
                    new_rels.append(free_reduce(tuple(out)))
                rels = new_rels
                gens, rels = _renumber_without(gens, rels, target)
                changed = True
        return Presentation(tuple(gens), tuple(rels))

    def __repr__(self):
        rels = ", ".join(word_to_string(r) for r in self.relators)
        return f"<{', '.join(self.generators)} | {rels}>"


def _renumber_without(gens, rels, dead):
    """Drop generator index `dead` (1-based) and renumber words."""
    new_gens = [g for i, g in enumerate(gens, start=1) if i != dead]

    def remap(x):
        a = abs(x)
        na = a - 1 if a > dead else a
        return na if x > 0 else -na

    new_rels = [tuple(remap(x) for x in r) for r in rels]
    return new_gens, new_rels


def d_p(pres, p):
    """dim H_1(<X|R>; F_p) = |X| - rank_p(abelianized relator matrix)."""
    rows = pres.abelianized_matrix()
    return pres.rank() - rank_modp(rows, pres.rank(), p)


# ---------------------------------------------------------------------------
# Coset tables

@dataclass(frozen=True)
class SubgroupTable:
    """Transitive action of the parent on cosets {0..index-1}; coset 0 is
    the subgroup.  action[g] is the permutation of the positive generator."""

    parent: Presentation
    action: tuple  # tuple per generator, each a tuple of images

    def __post_init__(self):
        n = self.index
        for perm in self.action:
            if sorted(perm) != list(range(n)):
                raise ValueError("generator action is not a permutation")
        if not self._transitive():
            raise ValueError("coset action is not transitive")
        for r in self.parent.relators:
            for c in range(n):
                if self.apply_word(c, r) != c:
                    raise ValueError("a relator acts nontrivially")

    @property
    def index(self):
        return len(self.action[0]) if self.action else 1

    def _transitive(self):
        n = self.index
        seen = {0}
        stack = [0]
        inv = [self._inverse_perm(g) for g in range(len(self.action))]
        while stack:
            c = stack.pop()
            for g in range(len(self.action)):
                for img in (self.action[g][c], inv[g][c]):
                    if img not in seen:
                        seen.add(img)
                        stack.append(img)
        return len(seen) == n

    def _inverse_perm(self, g):
        perm = self.action[g]
        out = [0] * len(perm)
        for i, v in enumerate(perm):
            out[v] = i
        return out

    def apply(self, coset, letter):
        g = abs(letter) - 1
        if letter > 0:
            return self.action[g][coset]
        return self._inverse_perm(g)[coset]

    def apply_word(self, coset, word):
        for x in word:
            coset = self.apply(coset, x)
        return coset

    def table_rows(self):
        """Row-major table [coset][g, g^-1 alternating] for canonical sorting."""
        n = self.index
        invs = [self._inverse_perm(g) for g in range(len(self.action))]
        return tuple(
            tuple(v for g in range(len(self.action))
                  for v in (self.action[g][c], invs[g][c]))
            for c in range(n))


def intersection_table(t1, t2):
    """Coset table of the intersection of the two subgroups.

    Cosets of the intersection are the orbit of (0, 0) under the
    product action; the index divides the product of the indices.
    """
    if t1.parent != t2.parent:
        raise ValueError("tables must share a parent presentation")
    pres = t1.parent
    start = (0, 0)
    index_of = {start: 0}
    order = [start]
    frontier = [start]
    ngens = pres.rank()
    while frontier:
        nxt = []
        for pair in frontier:
            for g in range(1, ngens + 1):
                for letter in (g, -g):
                    img = (t1.apply(pair[0], letter), t2.apply(pair[1], letter))
                    if img not in index_of:
                        index_of[img] = len(order)
                        order.append(img)
                        nxt.append(img)
        frontier = nxt
    action = tuple(
        tuple(index_of[(t1.apply(p[0], g), t2.apply(p[1], g))] for p in order)
        for g in range(1, ngens + 1))
    return SubgroupTable(pres, action)


def cyclic_quotient_table(pres, phi, index):
    """Coset table of the pullback of index*Z under the exponent map phi."""
    _check_phi(pres, phi)
    if index < 1:
        raise ValueError("index must be >= 1")
    action = tuple(
        tuple((c + phi[g]) % index for c in range(index))
        for g in range(pres.rank()))
    if index == 1:
        action = tuple((0,) for _ in range(pres.rank()))
    return SubgroupTable(pres, action)


def _check_phi(pres, phi):
    if len(phi) != pres.rank():
        raise ValueError("exponent vector length mismatch")
    from math import gcd
    g = 0
    for e in phi:
        g = gcd(g, e)
    if g != 1:
        raise NotSurjective("gcd of exponents is not 1")
    for r in pres.relators:
        total = sum(phi[abs(x) - 1] * (1 if x > 0 else -1) for x in r)
        if total != 0:
            raise RelatorNotKilled(f"relator {word_to_string(r)} maps to {total}")


# ---------------------------------------------------------------------------
# Reidemeister-Schreier

def reidemeister_schreier(sub, transversal="bfs"):
    """Presentation of the subgroup at coset 0 on Schreier generators.

    Generator count before reduction is index*|X| - index + 1 (one per
    non-tree (coset, generator) edge); relators are the rewritten
    conjugates of the parent relators, freely reduced, with trivial and
    cyclically-duplicate relators removed.
    """
    pres = sub.parent
    n = sub.index
    ngens = pres.rank()

    tree_edge = {}   # coset -> (from_coset, letter) tree edge used to reach it
    order = [0]
    seen = {0}
    frontier = [0]
    while frontier:
        c = frontier.pop(0 if transversal == "bfs" else -1)
        for g in range(1, ngens + 1):
            for letter in (g, -g):
                d = sub.apply(c, letter)
                if d not in seen:
                    seen.add(d)
                    tree_edge[d] = (c, letter)
                    order.append(d)
                    frontier.append(d)

    # Schreier generator index for each non-tree (coset, positive gen) edge
    is_tree = set()
    for d, (c, letter) in tree_edge.items():
        if letter > 0:
            is_tree.add((c, letter))
        else:
            is_tree.add((d, -letter))
    gen_index = {}
    names = []
    for c in range(n):
        for g in range(1, ngens + 1):
            if (c, g) not in is_tree:
                gen_index[(c, g)] = len(names) + 1
                names.append(f"{pres.generators[g - 1]}{c}" if n > 1
                             else pres.generators[g - 1])

    def rewrite(coset, word):
        out = []
        c = coset
        for x in word:
            if x > 0:
                key = (c, x)
                c2 = sub.apply(c, x)
                if key not in is_tree:
                    out.append(gen_index[key])
                c = c2
            else:
                c2 = sub.apply(c, x)
                key = (c2, -x)
                if key not in is_tree:
                    out.append(-gen_index[key])
                c = c2
        if c != coset:
            raise ArithmeticError("rewriting did not return to the base coset")
        return free_reduce(tuple(out))

    rels = []
    seen_rels = set()
    for r in pres.relators:
        for c in range(n):
            w = rewrite(c, r)
            canon = _cyclic_canon(w)
            if canon and canon not in seen_rels:
                seen_rels.add(canon)
                rels.append(w)
    return Presentation(tuple(names), tuple(rels))


# ---------------------------------------------------------------------------
# Low-index subgroup enumeration

def low_index_subgroups(pres, max_index, node_budget=None):
    """All subgroups of index <= max_index, as distinct coset tables in
    first-occurrence standard form (conjugates counted separately).

    Backtracking coset-table completion: branch on the first undefined
    slot, propagate relator-scan deductions to a fixpoint, and emit
    every completed table.  New cosets are only ever created at the
    branch slot, so completed tables are canonically numbered and each
    subgroup appears exactly once.
    """
    if node_budget is None:
        node_budget = DEFAULT_NODE_BUDGET
    if max_index > DEFAULT_MAX_INDEX:
        raise BudgetExceeded("max index", DEFAULT_MAX_INDEX, max_index)
    ngens = pres.rank()
    rels = [r for r in pres.relators if r]
    results = []
    nodes = 0

    fwd = [[None] for _ in range(ngens)]
    bwd = [[None] for _ in range(ngens)]

    def define(c, g, d):
        """Set c*g = d; returns False on clash."""
        if fwd[g][c] is not None:
            return fwd[g][c] == d
        if bwd[g][d] is not None:
            return bwd[g][d] == c
        fwd[g][c] = d
        bwd[g][d] = c
        undo.append((c, g, d))
        return True

    def scan_all():
        """Relator scans to fixpoint; False on contradiction."""
        changed = True
        while changed:
            changed = False
            for r in rels:
                for c in range(ncosets[0]):
                    st = _scan(r, c)
                    if st == "bad":
                        return False
                    if st == "deduced":
                        changed = True
        return True

    def _scan(r, c):
        m = len(r)
        f, i = c, 0
        while i < m:
            x = r[i]
            nxt = fwd[abs(x) - 1][f] if x > 0 else bwd[abs(x) - 1][f]
            if nxt is None:
                break
            f = nxt
            i += 1
        if i == m:
            return "ok" if f == c else "bad"
        e, j = c, m
        while j > i:
            x = r[j - 1]
            nxt = bwd[abs(x) - 1][e] if x > 0 else fwd[abs(x) - 1][e]
            if nxt is None:
                break
            e = nxt
            j -= 1
        if j == i:
            return "ok" if f == e else "bad"
        if j == i + 1:
            x = r[i]
            ok = define(f, abs(x) - 1, e) if x > 0 else define(e, abs(x) - 1, f)
            return "deduced" if ok else "bad"
        return "incomplete"

    ncosets = [1]
    undo = []

    def first_undefined():
        for c in range(ncosets[0]):
            for g in range(ngens):
                if fwd[g][c] is None:
                    return c, g, True
                if bwd[g][c] is None:
                    return c, g, False
        return None

    def dfs():
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceeded("coset-table nodes", node_budget, nodes)
        slot = first_undefined()
        if slot is None:
            action = tuple(tuple(fwd[g][c] for c in range(ncosets[0]))
                           for g in range(ngens))
            results.append(SubgroupTable(pres, action))
            return
        c, g, forward = slot
        candidates = list(range(ncosets[0]))
        if ncosets[0] < max_index:
            candidates.append(ncosets[0])
        for d in candidates:
            mark = len(undo)
            grew = False
            if d == ncosets[0]:
                for gg in range(ngens):
                    fwd[gg].append(None)
                    bwd[gg].append(None)
                ncosets[0] += 1
                grew = True
            ok = define(c, g, d) if forward else define(d, g, c)
            if ok and scan_all():
                dfs()
            while len(undo) > mark:
                cc, gg, dd = undo.pop()
                fwd[gg][cc] = None
                bwd[gg][dd] = None
            if grew:
                ncosets[0] -= 1
                for gg in range(ngens):
                    fwd[gg].pop()
                    bwd[gg].pop()

    dfs()
    results.sort(key=lambda t: (t.index, t.table_rows()))
    return results


# ---------------------------------------------------------------------------
# Cyclic towers

@dataclass
class TowerLevel:
    index: int
    dims: dict  # prime -> d_p of the subgroup
    presentation_rank: int


def cyclic_tower(pres, phi, depth, primes=(2,), transversal="bfs"):
    """d_p along the pullbacks of i*Z under phi, for i = 1..depth."""
    _check_phi(pres, phi)
    out = []
    for i in range(1, depth + 1):
        table = cyclic_quotient_table(pres, phi, i)
        sub = reidemeister_schreier(table, transversal=transversal)
        dims = {p: d_p(sub, p) for p in primes}
        out.append(TowerLevel(index=i, dims=dims, presentation_rank=sub.rank()))
    return out


# ---------------------------------------------------------------------------
# Golod-Shafarevich

@dataclass
class GSResult:
    holds: bool
    margin: Fraction

    def __bool__(self):
        return self.holds


def golod_shafarevich_check(d, num_relators, num_generators):
    """Is d^2/4 - |R| + |X| - d > 0?  Exact rational margin."""
    if min(d, num_relators, num_generators) < 0:
        raise ValueError("inputs must be nonnegative")
    margin = Fraction(d * d, 4) - num_relators + num_generators - d
    return GSResult(holds=margin > 0, margin=margin)


@dataclass
class ChainedGSResult:
    holds: bool
    margin_lo: Fraction
    margin_hi: Fraction
    decided: bool

    def __bool__(self):
        return self.holds


def gs_chained_threshold(d):
    """Sign of (d - 6 log2(d-1) - 12)^2 / 4 - 3d + 2, certified dyadically.

    This is the chained margin obtained from the presentation-deficit
    bound |R| - |X| <= 2d - 2 together with the drop d - 6log2(d-1) - 12
    from killing the meridians of a small b1=2 subgraph.
    """
    if d < 2:
        raise ValueError("d >= 2 required")
    log_enc = Enclosure.log2(d - 1)
    base = Enclosure(d) - 6 * log_enc - 12
    margin = base.square() * Fraction(1, 4) - 3 * d + 2
    if margin.definitely_positive():
        return ChainedGSResult(True, margin.lo, margin.hi, decided=True)
    if margin.definitely_nonpositive():
        return ChainedGSResult(False, margin.lo, margin.hi, decided=True)
    return ChainedGSResult(False, margin.lo, margin.hi, decided=False)


# ---------------------------------------------------------------------------
# Largeness conditions on finite data

@dataclass
class LargenessDatum:
    """One level of a triple H_i >= J_i >= K_i of finite index subgroups:
    indices of H and J in the ambient group, d(J_i/K_i), and whether
    H_i/J_i is abelian (an input flag; not computed here)."""

    index_h: int
    index_j: int
    d_quotient: int
    abelian: bool = True


@dataclass
class LargenessReport:
    abelian_ok: bool
    growth_values: list      # log2([H:J]) / [G:H] enclosure midpoints, exact where possible
    growth_increasing: bool
    sup_quotient: Fraction
    last_quotient: Fraction
    rank_condition_ok: bool

    def conditions_consistent(self):
        return self.abelian_ok and self.growth_increasing and self.rank_condition_ok


def largeness_conditions(data):
    """Consistency of the three largeness conditions on a finite prefix.

    (i) abelianity flags; (ii) log[H:J]/[G:H] increasing and eventually
    positive; (iii) d(J/K)/[G:J] bounded away from zero on the prefix
    (the last value must stay within half of the running maximum).
    Verdicts are about the prefix only, never the infinite tower.
    """
    if not data:
        raise ValueError("empty data list")
    abelian_ok = all(rec.abelian for rec in data)
    growth = []
    for rec in data:
        if rec.index_j % rec.index_h != 0:
            raise ValueError("index_j must be a multiple of index_h")
        ratio = rec.index_j // rec.index_h
        enc = Enclosure.log2(ratio) if ratio > 1 else Enclosure(0)
        growth.append((enc.lo + enc.hi) / 2 / rec.index_h)
    increasing = all(growth[i] < growth[i + 1] for i in range(len(growth) - 1))
    positive_tail = growth[-1] > 0
    quotients = [Fraction(rec.d_quotient, rec.index_j) for rec in data]
    sup_q = max(quotients)
    last_q = quotients[-1]
    rank_ok = last_q > 0 and 2 * last_q >= sup_q
    return LargenessReport(
        abelian_ok=abelian_ok,
        growth_values=growth,
        growth_increasing=increasing and positive_tail,
        sup_quotient=sup_q,
        last_quotient=last_q,
        rank_condition_ok=rank_ok)
