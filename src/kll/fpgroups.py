"""Finitely presented groups: mod-p homology rank, Reidemeister-Schreier
subgroup presentations, low-index subgroup enumeration by backtracking
coset-table completion, cyclic-cover towers, and the Golod-Shafarevich
margin computations; also `orbit`, the one breadth-first orbit routine
behind matrix closures, conjugacy classes, automorphism orbits and
coset actions.

Words are tuples of nonzero signed integers (+i for generator i-1,
negative for inverses).  The JSON convention writes words as strings
with capital letters for inverses: "aabAB" = a a b a^-1 b^-1.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .dyadic import log2_enclosure
from .linalg import rank_modp
from .polys import is_prime


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


def orbit(starts, moves, act, budget=None):
    """The points reached from `starts` under act(x, move), breadth
    first and yielded lazily in discovery order (a repeated start is
    skipped); with a `budget`, BudgetExceeded once it passes `budget`
    points."""
    seen, queue = set(), []
    for x in starts:
        if x not in seen:
            seen.add(x)
            queue.append(x)
            yield x
    for x in queue:  # grows as new points are found
        for m in moves:
            y = act(x, m)
            if y not in seen:
                seen.add(y)
                if budget is not None and len(seen) > budget:
                    raise BudgetExceeded("closure order", budget, len(seen))
                queue.append(y)
                yield y


# ---------------------------------------------------------------------------
# Words

def parse_word(s, generators="abcdefghijklmnopqrstuvwxyz"):
    """String with capitals-as-inverses -> signed integer tuple.

    A letter names a generator of the list, by default its position in
    the alphabet; a letter outside the list is a ValueError.
    """
    index = {name: i for i, name in enumerate(generators, start=1)}
    out = []
    for ch in s:
        g = index.get(ch.lower())
        if g is None:
            raise ValueError(f"word {s!r}: {ch!r} is not a generator")
        out.append(g if ch.islower() else -g)
    return free_reduce(tuple(out))


def word_to_string(w, generators="abcdefghijklmnopqrstuvwxyz"):
    """Signed integer tuple -> string with capitals-as-inverses, the
    inverse of `parse_word` over the same generator list.

    Generator i is written as its name, which must be one lowercase
    letter a-z; any other name is a ValueError.
    """
    out = []
    for x in w:
        name = generators[abs(x) - 1]
        if len(name) != 1 or not "a" <= name <= "z":
            raise ValueError(f"generator {name!r} is not a letter a-z")
        out.append(name if x > 0 else name.upper())
    return "".join(out)


def spell_word(w, generators):
    """A word in its presentation's own names, for messages and repr: as
    `word_to_string` when every name is one letter a-z, otherwise the
    names joined by `*` with `^-1` for inverses (b_0*a_1^-1)."""
    if all(len(g) == 1 and "a" <= g <= "z" for g in generators):
        return word_to_string(w, generators)
    return "*".join(generators[abs(x) - 1] + ("" if x > 0 else "^-1")
                    for x in w)


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
        if len(set(self.generators)) != ng:
            raise ValueError("duplicate generator names")
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
        """The `from_json` form; ValueError unless every generator named
        in a relator is one letter a-z."""
        return {"gens": list(self.generators),
                "rels": [word_to_string(r, self.generators) for r in self.relators]}

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
        rels = ", ".join(spell_word(r, self.generators) for r in self.relators)
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
    if not is_prime(p):
        raise ValueError(f"p = {p} is not a prime")
    rows = pres.abelianized_matrix()
    return pres.rank() - rank_modp(rows, pres.rank(), p)


# ---------------------------------------------------------------------------
# Coset tables

@dataclass(frozen=True)
class SubgroupTable:
    """Transitive action of the parent on cosets {0..index-1}; coset 0 is
    the subgroup.  action[g] is the permutation of the positive generator,
    inverse[g] that of its inverse, computed once at construction."""

    parent: Presentation
    action: tuple  # tuple per generator, each a tuple of images
    inverse: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        action = self.action
        if len(action) != self.parent.rank():
            raise ValueError("the action needs one permutation per generator")
        n = self.index
        if n < 1:
            raise ValueError("the action needs at least one coset")
        cosets = list(range(n))
        for perm in action:
            if sorted(perm) != cosets:
                raise ValueError("generator action is not a permutation")
        inverse = []
        for perm in action:
            inv = [0] * n
            for i, v in enumerate(perm):
                inv[v] = i
            inverse.append(tuple(inv))
        object.__setattr__(self, "inverse", tuple(inverse))
        # a permutation's inverse is one of its powers, so the
        # generators' permutations alone reach the whole orbit of coset 0
        seen, reached = {0}, [0]
        for c in reached:  # grows as new cosets are found
            for perm in action:
                d = perm[c]
                if d not in seen:
                    seen.add(d)
                    reached.append(d)
        if len(reached) != n:
            raise ValueError("coset action is not transitive")
        # letter x acts by by_letter[x]: action[x - 1] when x > 0, and
        # inverse[-x - 1] when x < 0, as a negative index counts back
        by_letter = (None, *action, *reversed(inverse))
        for r in self.parent.relators:
            perms = [by_letter[x] for x in r]
            for c in cosets:
                d = c
                for perm in perms:
                    d = perm[d]
                if d != c:
                    raise ValueError("a relator acts nontrivially")

    @property
    def index(self):
        return len(self.action[0]) if self.action else 1

    def _perm(self, letter):
        if letter > 0:
            return self.action[letter - 1]
        if letter < 0:
            return self.inverse[-letter - 1]
        raise ValueError("letter 0 names no generator")

    def apply(self, coset, letter):
        return self._perm(letter)[coset]


def intersection_table(t1, t2):
    """Coset table of the intersection of the two subgroups.

    Cosets of the intersection are the orbit of (0, 0) under the
    product action; the index divides the product of the indices.
    """
    if t1.parent != t2.parent:
        raise ValueError("tables must share a parent presentation")
    pres = t1.parent
    gens = range(1, pres.rank() + 1)

    def step(pair, letter):
        return t1.apply(pair[0], letter), t2.apply(pair[1], letter)

    cosets = list(orbit([(0, 0)], [x for g in gens for x in (g, -g)], step))
    index_of = {pair: k for k, pair in enumerate(cosets)}
    action = tuple(tuple(index_of[step(pair, g)] for pair in cosets)
                   for g in gens)
    return SubgroupTable(pres, action)


def cyclic_quotient_table(pres, phi, index):
    """Coset table of the pullback of index*Z under the exponent map phi."""
    _check_phi(pres, phi)
    if index < 1:
        raise ValueError("index must be >= 1")
    action = tuple(
        tuple((c + phi[g]) % index for c in range(index))
        for g in range(pres.rank()))
    return SubgroupTable(pres, action)


def _check_phi(pres, phi):
    if len(phi) != pres.rank():
        raise ValueError(f"exponent vector has {len(phi)} entries, "
                         f"one per generator needs {pres.rank()}")
    if gcd(*phi) != 1:
        raise NotSurjective("gcd of exponents is not 1")
    for r in pres.relators:
        total = sum(phi[abs(x) - 1] * (1 if x > 0 else -1) for x in r)
        if total != 0:
            raise RelatorNotKilled(f"relator {spell_word(r, pres.generators)} "
                                   f"maps to {total}")


# ---------------------------------------------------------------------------
# Reidemeister-Schreier

def reidemeister_schreier(sub):
    """Presentation of the subgroup at coset 0 on Schreier generators.

    Generator count before reduction is index*|X| - index + 1 (one per
    non-tree (coset, generator) edge); relators are the rewritten
    conjugates of the parent relators, freely reduced, with trivial and
    cyclically-duplicate relators removed.
    """
    pres = sub.parent
    n = sub.index
    ngens = pres.rank()

    # breadth-first spanning tree of the coset graph
    tree_edge = {}   # coset -> (from_coset, letter) tree edge used to reach it
    order = [0]
    seen = {0}
    for c in order:
        for g in range(1, ngens + 1):
            for letter in (g, -g):
                d = sub.apply(c, letter)
                if d not in seen:
                    seen.add(d)
                    tree_edge[d] = (c, letter)
                    order.append(d)

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
                names.append(f"{pres.generators[g - 1]}_{c}" if n > 1
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
    first-occurrence standard form (conjugates counted separately),
    sorted by index and, within one index, lexicographically by the
    table read row by row: coset 0 first, and in each coset's row the
    images c*g and c*g^-1 for each generator g in turn.

    Backtracking coset-table completion with deduction processing (Sims,
    Computation with Finitely Presented Groups, ch. 5; Holt, Eick and
    O'Brien, Handbook of CGT, 5.4).  The search branches on the first
    undefined slot in that row-by-row order (coset, then generator, image
    before preimage), trying the defined cosets in ascending order and
    then one new coset; a defined coset d whose d*x^-1 is already taken
    would clash at once, and is skipped untried.  Each definition
    c*x = d is queued, and a queued definition scans only the relator
    cycles through it: the cyclic conjugates of each relator that start
    with x, at c, and those that start with x^-1, at d.  Each such scan
    begins after its first letter, whose step is the definition itself
    (c to d, or d to c).  A scan that leaves one letter unknown
    deduces it, and a deduction is queued in turn; a scan that closes at
    the wrong coset is a clash and prunes the branch.  New cosets are
    only ever created at the branch slot, so completed tables are
    canonically numbered and each subgroup appears exactly once.

    Two tables of one index first differ at the slot where their search
    paths parted, and the smaller value there was tried first, so the
    search already emits each index's tables in row-by-row order: a
    stable sort by index finishes the job.  Every table is validated by
    `SubgroupTable` as usual.  ValueError when max_index < 1;
    BudgetExceeded past DEFAULT_MAX_INDEX or past `node_budget` search
    nodes.
    """
    if max_index < 1:
        raise ValueError("max_index must be >= 1")
    if node_budget is None:
        node_budget = DEFAULT_NODE_BUDGET
    if max_index > DEFAULT_MAX_INDEX:
        raise BudgetExceeded("max index", DEFAULT_MAX_INDEX, max_index)
    ngens = pres.rank()
    fwd = [[None] for _ in range(ngens)]
    bwd = [[None] for _ in range(ngens)]
    # letter -> (row of c*letter, row of c*letter^-1); rows grow in place
    rows = {}
    for g in range(ngens):
        rows[g + 1] = (fwd[g], bwd[g])
        rows[-g - 1] = (bwd[g], fwd[g])
    # slots in row-by-row order: coset-major, then c*g before c*g^-1
    slot_letters = [x for g in range(1, ngens + 1) for x in (g, -g)]
    slot_rows = [rows[x][0] for x in slot_letters]
    slot_backs = [rows[x][1] for x in slot_letters]
    all_rows = fwd + bwd
    width = len(slot_letters)
    # each cyclic conjugate once, filed by its first letter, as the word,
    # the rows that step forwards along each letter after the first (the
    # definition that starts a scan is that first step) and the rows that
    # step backwards along each letter
    conjugates = {r[i:] + r[:i] for r in pres.relators for i in range(len(r))}
    cycles = {x: [] for x in rows}
    for w in sorted(conjugates):
        cycles[w[0]].append((w, [rows[x][0] for x in w[1:]],
                             [rows[x][1] for x in w]))
    # a one-letter relator x forces c*x = c before any edge at c exists
    fixed = sorted({r[0] for r in pres.relators if len(r) == 1})
    undo = []
    results = []
    nodes = 0
    ncosets = 1

    def close(queue):
        """Make the definitions (c, x, d) in `queue` and all they force;
        False on a clash."""
        while queue:
            c, x, d = queue.pop()
            ahead, back = rows[x]
            if ahead[c] is not None or back[d] is not None:
                if ahead[c] == d:
                    continue
                return False
            ahead[c] = d
            back[d] = c
            undo.append((ahead, c, back, d))
            for base, first, through in ((c, d, cycles[x]),
                                         (d, c, cycles[-x])):
                for w, steps, returns in through:
                    f, i = first, 1
                    for row in steps:
                        nxt = row[f]
                        if nxt is None:
                            break
                        f = nxt
                        i += 1
                    else:
                        if f != base:
                            return False
                        continue
                    # backwards from the base, never past the forward
                    # scan: a slot both scans cross could hide a clash
                    e, j = base, len(w)
                    while j > i:
                        nxt = returns[j - 1][e]
                        if nxt is None:
                            break
                        e = nxt
                        j -= 1
                    if j == i:
                        if f != e:
                            return False
                    elif j == i + 1:
                        queue.append((f, w[i], e))
        return True

    def search(slot):
        nonlocal nodes, ncosets
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceeded("coset-table nodes", node_budget, nodes)
        # the parent's slot is the first that can still be undefined
        end = ncosets * width
        while slot < end and slot_rows[slot % width][slot // width] is not None:
            slot += 1
        if slot == end:
            results.append(SubgroupTable(pres, tuple(map(tuple, fwd))))
            return
        c, k = divmod(slot, width)
        x = slot_letters[k]
        taken = slot_backs[k]
        for d in range(min(ncosets + 1, max_index)):
            # d*x^-1 already defined: c*x = d would clash at once in
            # `close`, so the search tree is the same without trying it
            if d < ncosets and taken[d] is not None:
                continue
            mark = len(undo)
            grew = d == ncosets
            if grew:
                for row in all_rows:
                    row.append(None)
                ncosets += 1
            queue = [(c, x, d)]
            if fixed:  # coset 0 at the first branch, a new coset at each
                queue += [(e, y, e) for e in {0, d} for y in fixed]
            if close(queue):
                search(slot)
            while len(undo) > mark:
                ahead, cc, back, dd = undo.pop()
                ahead[cc] = back[dd] = None
            if grew:
                ncosets -= 1
                for row in all_rows:
                    row.pop()

    search(0)
    results.sort(key=lambda t: t.index)
    return results


# ---------------------------------------------------------------------------
# Cyclic towers

@dataclass
class TowerLevel:
    index: int
    dims: dict  # prime -> d_p of the subgroup


def cyclic_tower(pres, phi, depth, primes=(2,)):
    """d_p along the pullbacks of i*Z under phi, for i = 1..depth."""
    _check_phi(pres, phi)
    out = []
    for i in range(1, depth + 1):
        table = cyclic_quotient_table(pres, phi, i)
        sub = reidemeister_schreier(table)
        dims = {p: d_p(sub, p) for p in primes}
        out.append(TowerLevel(index=i, dims=dims))
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
    lo, hi = log2_enclosure(d - 1)
    base_lo, base_hi = d - 12 - 6 * hi, d - 12 - 6 * lo
    squares = (base_lo * base_lo, base_hi * base_hi)
    # a base straddling zero squares to [0, max]; Fraction(0), not 0 / 4
    sq_lo = Fraction(0) if base_lo < 0 < base_hi else min(squares)
    margin_lo, margin_hi = (s / 4 - 3 * d + 2 for s in (sq_lo, max(squares)))
    return ChainedGSResult(margin_lo > 0, margin_lo, margin_hi,
                           decided=margin_lo > 0 or margin_hi <= 0)


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
    """The three verdicts of `largeness_conditions` on a finite prefix,
    with d(J/K)/[G:J] at its last level."""

    abelian_ok: bool
    growth_increasing: bool
    last_quotient: Fraction
    rank_condition_ok: bool

    def conditions_consistent(self):
        return self.abelian_ok and self.growth_increasing and self.rank_condition_ok


def largeness_conditions(data):
    """Consistency of the three largeness conditions on a finite prefix.

    (i) abelianity flags; (ii) log[H:J]/[G:H] increasing and eventually
    positive, decided exactly on the integer indices; (iii) d(J/K)/[G:J]
    bounded away from zero on the prefix (the last value must stay
    within half of the running maximum).
    Verdicts are about the prefix only, never the infinite tower.
    """
    if not data:
        raise ValueError("empty data list")
    abelian_ok = all(rec.abelian for rec in data)
    ratios = []
    for rec in data:
        if rec.index_h < 1 or rec.index_j < 1 or rec.index_j % rec.index_h:
            raise ValueError("index_j must be a positive multiple of index_h")
        ratios.append((rec.index_j // rec.index_h, rec.index_h))
    # log2(r)/h < log2(r')/h'  iff  r^h' < r'^h, decided on integers
    increasing = all(r ** h2 < r2 ** h
                     for (r, h), (r2, h2) in zip(ratios, ratios[1:]))
    positive_tail = ratios[-1][0] > 1
    quotients = [Fraction(rec.d_quotient, rec.index_j) for rec in data]
    last_q = quotients[-1]
    rank_ok = last_q > 0 and 2 * last_q >= max(quotients)
    return LargenessReport(
        abelian_ok=abelian_ok,
        growth_increasing=increasing and positive_tail,
        last_quotient=last_q,
        rank_condition_ok=rank_ok)
