"""Expansion operations on the subsets of a finite space.

An operation is a total map on P(X), tabulated entry by entry, that fixes
the empty set and contains the interior of every argument.  The builtin
catalog covers the seven classics (identity, interior, closure and their
compositions, semi-closure, semi-interior); arbitrary tables can be
loaded from JSON via :mod:`topolab.jsonio`.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .bits import Family, canonical_family, intersect_all, upward_closure
from .space import Topology

#: Builtin operation names, in catalog order.
BUILTIN_NAMES = ("identity", "int", "cl", "cloint", "introcl", "scl", "sint")


class Operation:
    """A tabulated map on subsets of one topology.

    ``table[mask]`` is the image of the subset ``mask``.  Instances are
    immutable; calling one applies the table.
    """

    __slots__ = ("topology", "table", "name", "_open_family", "_hash")

    def __init__(self, topology: Topology, table: Sequence[int], name: str = "custom"):
        table = tuple(table)
        problem = table_violation(topology, table)
        if problem is not None:
            raise ValueError(f"not an operation: {problem[0]}")
        object.__setattr__(self, "topology", topology)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_open_family", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Operation is immutable")

    def __call__(self, mask: int) -> int:
        return self.table[mask]

    def __repr__(self) -> str:
        return f"Operation({self.name!r}, n={self.topology.n})"

    def __eq__(self, other) -> bool:
        # name is display-only; two operations are the same map when their
        # tables agree over the same space
        return (
            isinstance(other, Operation)
            and self.topology == other.topology
            and self.table == other.table
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.topology, self.table))
            object.__setattr__(self, "_hash", h)
        return h


def table_violation(topology: Topology, table: Sequence[int]) -> Optional[tuple[str, int]]:
    """First violated operation law as (condition, witness mask), else None."""
    count = 1 << topology.n
    if len(table) != count:
        return (f"table has {len(table)} entries, expected {count}", 0)
    if table[0] != 0:
        return ("the empty set must map to the empty set", 0)
    full = topology.full
    inner = topology.int_table()
    for a in range(count):
        if table[a] & ~full:
            return ("image uses bits outside the ground set", a)
        if inner[a] & ~table[a]:
            return ("image must contain the interior of the argument", a)
    return None


def is_operation(topology: Topology, table: Sequence[int]) -> bool:
    return table_violation(topology, table) is None


def tabulate(topology: Topology, fn: Callable[[int], int], name: str = "custom") -> Operation:
    return Operation(topology, [fn(a) for a in topology.subsets()], name)


def builtin(topology: Topology, name: str) -> Operation:
    """One of the seven catalog operations, fully tabulated.

    identity  A -> A
    int       A -> interior(A)
    cl        A -> closure(A)
    cloint    A -> closure(interior(A))
    introcl   A -> interior(closure(A))
    scl       A -> A | interior(closure(A))   (semi-closure)
    sint      A -> A & closure(interior(A))   (semi-interior)
    """
    it, cl = topology.interior, topology.closure
    rules: dict[str, Callable[[int], int]] = {
        "identity": lambda a: a,
        "int": it,
        "cl": cl,
        "cloint": lambda a: cl(it(a)),
        "introcl": lambda a: it(cl(a)),
        "scl": lambda a: a | it(cl(a)),
        "sint": lambda a: a & cl(it(a)),
    }
    if name not in rules:
        raise ValueError(f"unknown operation name {name!r}; choose from {BUILTIN_NAMES}")
    return tabulate(topology, rules[name], name)


def catalog(topology: Topology) -> dict[str, Operation]:
    return {name: builtin(topology, name) for name in BUILTIN_NAMES}


def dual_table(op: Operation) -> tuple[int, ...]:
    """Raw complement-conjugate table X \\ op(X \\ A), with no validation."""
    full = op.topology.full
    return tuple(full ^ op.table[full ^ a] for a in op.topology.subsets())


def dual(op: Operation) -> Operation:
    """The complement-conjugate operation.

    The conjugate of an arbitrary operation can fail the operation laws;
    it is validated here and rejected loudly rather than assumed.  Every
    builtin has a builtin dual (int <-> cl, cloint <-> introcl,
    scl <-> sint, identity self-dual).
    """
    table = dual_table(op)
    problem = table_violation(op.topology, table)
    if problem is not None:
        raise ValueError(
            f"dual of {op.name!r} is not an operation: {problem[0]} (witness mask {problem[1]:#x})"
        )
    return Operation(op.topology, table, f"dual({op.name})")


def leq(a: Operation, b: Operation) -> bool:
    """Pointwise order: a(S) inside b(S) for every subset S."""
    if a.topology != b.topology:
        raise ValueError("operations live over different topologies")
    return all(x & ~y == 0 for x, y in zip(a.table, b.table))


def is_monotone(op: Operation) -> bool:
    """Whether S inside T forces op(S) inside op(T).

    Checked along single-point extensions only; any inclusion is a chain
    of those, so this is equivalent to the all-pairs definition.
    """
    table = op.table
    n = op.topology.n
    for a in op.topology.subsets():
        img = table[a]
        for i in range(n):
            bit = 1 << i
            if a & bit:
                continue
            if img & ~table[a | bit]:
                return False
    return True


def op_open_family(op: Operation) -> Family:
    """All subsets S with S inside op(S); contains the empty and full sets
    and every open set."""
    fam = op._open_family
    if fam is None:
        fam = tuple(a for a in op.topology.subsets() if a & ~op.table[a] == 0)
        object.__setattr__(op, "_open_family", fam)
    return fam


def op_closed_family(op: Operation) -> Family:
    full = op.topology.full
    return canonical_family(full ^ a for a in op_open_family(op))


def at_point(family: Sequence[int], point: int) -> Family:
    """Members of ``family`` containing ``point``."""
    return tuple(u for u in family if u >> point & 1)


def is_regular_wrt(op: Operation, family: Sequence[int]) -> bool:
    """Whether any two family neighbourhoods of a point admit a third one
    whose image squeezes under the intersection of their images.

    The condition says the images of the neighbourhoods of x are
    downward directed.  Folding directedness over a finite family gives
    a member inside all of them, which is then their meet; conversely a
    member equal to the meet squeezes under any two.  So x passes exactly
    when the meet of its images is one of them, or vacuously when no
    member holds x: one pass over the family per point.
    """
    table = op.table
    for x in range(op.topology.n):
        images = {table[u] for u in family if u >> x & 1}
        if images and intersect_all(images, op.topology.full) not in images:
            return False
    return True


def neighborhoods(n: int, family: Sequence[int], point: int) -> Family:
    """All supersets of some family member containing ``point``.

    One zeta transform of the plane of the members around ``point``
    (:func:`~topolab.bits.upward_closure`).
    """
    return upward_closure(at_point(family, point), n)
