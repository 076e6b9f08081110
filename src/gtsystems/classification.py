"""Equivalence classes of the one-parameter family of actions (0, 1, a).

Two parameters a1, a2 in {2, ..., d-1} give ideals that agree up to a variable
permutation exactly when they are connected by the moves a -> d-a+1 and
a -> a^(-1) mod d (the latter only when a is invertible).  The closure under
these moves is computed directly; every closed-form class count in this
module is compared against that closure.
"""

from __future__ import annotations

import math
from itertools import combinations

from ._record import Record
from .errors import ConsistencyError, SizeLimitError
from .primes import factorize

__all__ = [
    "ClassCountReport",
    "ClassCounts",
    "ClassPartition",
    "check_classify_limit",
    "class_count_formulas",
    "classify_moves",
    "orbit",
    "prime_and_primepower_counts",
]

# Largest d that classify_moves partitions and the closed-form counts
# factor, by trial division (primes.factorize)
CLASSIFY_LIMIT = 10 ** 6


def check_classify_limit(d):
    """Raise SizeLimitError when d passes CLASSIFY_LIMIT: the partition, the
    class counts and the prime-power counts all check it first."""
    if d > CLASSIFY_LIMIT:
        raise SizeLimitError("the d of a classification", d, "CLASSIFY_LIMIT", CLASSIFY_LIMIT)


def totient(n: int) -> int:
    phi = n
    for p in factorize(n):
        phi -= phi // p
    return phi


def _move_flip(d, a):
    return (d - a + 1) % d


def _move_invert(d, a):
    if math.gcd(a, d) != 1:
        return None
    return pow(a, -1, d)


def orbit(d, a):
    """Closure of a under the two moves, inside {2, ..., d-1}."""
    if not 2 <= a <= d - 1:
        raise ValueError("parameter out of range")
    seen = {a}
    todo = [a]
    while todo:
        t = todo.pop()
        for nxt in (_move_flip(d, t), _move_invert(d, t)):
            if nxt is not None and 2 <= nxt <= d - 1 and nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return tuple(sorted(seen))


def _class_kind(d, members):
    size = len(members)
    if size != 2:
        return str(size)
    # order of tests matters: square root of 1 first, then the quadratic
    # x^2 - x + 1, then the doubly non-invertible case
    for a in members:
        if (a * a) % d == 1:
            return "2i"
    for a in members:
        if (a * (d - a + 1)) % d == 1:
            return "2ii"
    return "2iii"


class ClassPartition(Record):
    __slots__ = (
        "d",
        "classes",  # tuple of (members tuple, kind str)
    )

    def count_by_kind(self, kind):
        return sum(1 for _, k in self.classes if k == kind)

    def to_json(self):
        return {
            "d": self.d,
            "classes": [
                {"members": list(m), "size": len(m), "type": k}
                for m, k in self.classes
            ],
        }


def classify_moves(d) -> ClassPartition:
    """Partition {2, ..., d-1} into move-closure classes.

    One ascending sweep: every a not yet placed is the least member of its
    class, so the classes come out ordered by their least member.
    """
    check_classify_limit(d)
    if d < 4:
        raise ValueError("need d >= 4")
    placed = bytearray(d)
    classes = []
    for a in range(2, d):
        if placed[a]:
            continue
        members = orbit(d, a)
        if len(members) not in (2, 3, 4, 6):
            raise ConsistencyError(f"unexpected class size {len(members)} at d={d}")
        if members[0] != a:
            raise ConsistencyError("moves did not produce a partition")
        for m in members:
            if not a <= m < d or placed[m]:
                raise ConsistencyError("moves did not produce a partition")
            placed[m] = 1
        classes.append((members, _class_kind(d, members)))
    return ClassPartition(d, tuple(classes))


def _phi6_compatible(fac):
    if fac.get(2, 0) > 0 or fac.get(3, 0) > 1:
        return False
    return all(p % 6 == 1 for p in fac if p > 3)


class ClassCounts(Record):
    __slots__ = ("N21", "N22", "N23", "N3", "N4", "N6")

    @property
    def N2(self):
        return self.N21 + self.N22 + self.N23

    @property
    def total(self):
        return self.N2 + self.N3 + self.N4 + self.N6

    def to_json(self):
        return {
            "N21": self.N21, "N22": self.N22, "N23": self.N23,
            "N2": self.N2, "N3": self.N3, "N4": self.N4, "N6": self.N6,
            "total": self.total,
        }


def _formula_counts(d) -> ClassCounts:
    fac = factorize(d)
    alpha0 = fac.get(2, 0)
    odd_primes = [p for p in fac if p != 2]
    r_odd = len(odd_primes)
    if alpha0 == 0:
        n21 = 2 ** r_odd - 2
    elif alpha0 == 1:
        n21 = 2 ** r_odd - 1
    elif alpha0 == 2:
        n21 = 2 ** (r_odd + 1) - 1
    else:
        n21 = 2 ** (r_odd + 2) - 1

    if _phi6_compatible(fac):
        r_idx = 1 + len([p for p in fac if p > 3])
        n22 = 2 ** r_idx
    else:
        n22 = 0

    primes = sorted(fac)
    n23 = 0
    for k in range(2, len(primes) + 1):
        coeff = (-1) ** k * (2 ** (k - 1) - 1)
        n23 += coeff * sum(d // math.prod(s) for s in combinations(primes, k))

    n3 = 1 if d % 2 == 1 else 0
    n4, rem4 = divmod(d - 1 - totient(d) - n21 - 2 * n23, 2)
    n2 = n21 + n22 + n23
    n6, rem6 = divmod(d - 2 - 2 * n2 - 3 * n3 - 4 * n4, 6)
    if rem4 or rem6:
        raise ConsistencyError(f"count formulas not integral at d={d}")
    return ClassCounts(n21, n22, n23, n3, n4, n6)


def _oracle_counts(partition: ClassPartition) -> ClassCounts:
    return ClassCounts(
        partition.count_by_kind("2i"),
        partition.count_by_kind("2ii"),
        partition.count_by_kind("2iii"),
        partition.count_by_kind("3"),
        partition.count_by_kind("4"),
        partition.count_by_kind("6"),
    )


class ClassCountReport(Record):
    __slots__ = ("d", "formula", "oracle")

    @property
    def matches(self):
        f, o = self.formula, self.oracle
        return {
            name: getattr(f, name) == getattr(o, name)
            for name in ("N21", "N22", "N23", "N2", "N3", "N4", "N6", "total")
        }

    @property
    def findings(self):
        """Fields where the printed formulas disagree with the move-closure oracle."""
        return [name for name, ok in self.matches.items() if not ok]

    def to_json(self):
        return {
            "d": self.d,
            "formula": self.formula.to_json(),
            "oracle": self.oracle.to_json(),
            "matches": self.matches,
            "findings": self.findings,
        }


def class_count_formulas(d, partition: ClassPartition | None = None) -> ClassCountReport:
    """Evaluate the closed-form class counts and compare with the oracle.

    The oracle (move closure plus class typing) is authoritative; formula
    deviations are reported as findings, not raised.  A caller that already
    holds ``classify_moves(d)`` passes it as ``partition``; otherwise it is
    computed here.  A d past CLASSIFY_LIMIT is refused first.
    """
    check_classify_limit(d)
    if d < 5:
        raise ValueError("need d >= 5")
    if partition is not None and partition.d != d:
        raise ValueError(f"partition is for d={partition.d}, not d={d}")
    formula = _formula_counts(d)
    if partition is None:
        partition = classify_moves(d)
    return ClassCountReport(d, formula, _oracle_counts(partition))


def prime_and_primepower_counts(d) -> int:
    """Class count for d prime or a prime power, by the closed forms; a d
    past CLASSIFY_LIMIT is refused first."""
    check_classify_limit(d)
    fac = factorize(d)
    if len(fac) != 1:
        raise ValueError("d must be a prime power")
    p, r = next(iter(fac.items()))
    if r == 1:
        if p < 5:
            raise ValueError("need a prime >= 5")
        n, rem = divmod(p + 1, 6)
        if rem == 0:
            return n
        n, rem = divmod(p - 1, 6)
        if rem == 0:
            return n + 1
        raise ConsistencyError("prime not of the form 6n+-1")
    if p == 2:
        return 1 if r == 2 else d // 4 + 1
    if p == 3 or p % 6 == 5:
        return 1 + (d - p) // (2 * p) + (d * p - 2 * d - 3 * p) // (6 * p)
    return 2 + (d - p) // (2 * p) + (d * p - 2 * d - 5 * p) // (6 * p)
