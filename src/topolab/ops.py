"""Expansion operations on the subsets of a finite space.

An operation is a total map on P(X), tabulated entry by entry, that fixes
the empty set and contains the interior of every argument.  The builtin
catalog covers the seven classics (identity, interior, closure and their
compositions, semi-closure, semi-interior); arbitrary tables can be
loaded from JSON via :mod:`topolab.jsonio`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from .bits import (
    Family, canonical_family, is_monotone_lanes, pack_lanes, point_meets, upward_closure,
    zero_lanes, zero_plane,
)
from .space import Topology, memoized

#: Builtin operation names, in catalog order.
BUILTIN_NAMES = ("identity", "int", "cl", "cloint", "introcl", "scl", "sint")


class OperationError(ValueError):
    """A table failing the operation laws: :func:`table_violation`'s
    ``condition`` and ``witness`` mask."""

    def __init__(self, name: str, condition: str, witness: int):
        super().__init__(f"{name!r} is not an operation: {condition} (witness mask {witness:#x})")
        self.condition, self.witness = condition, witness


class Operation:
    """A tabulated map on subsets of one topology.

    ``table[mask]`` is the image of the subset ``mask``.  Instances are
    immutable; calling one applies the table.  The tables derived from
    one (its open family and its plane, the plane of the sets it
    shrinks, its packed lanes and whether it is monotone)
    are kept in ``_memo`` through :func:`~topolab.space.memoized`, so
    they die with it.  The lanes enter ``_memo`` at construction, as the
    validation packs them anyway.  Pickling rebuilds through the
    constructor, with a ``_memo`` holding only the lanes.
    """

    __slots__ = ("topology", "table", "name", "_memo", "_hash")

    def __init__(self, topology: Topology, table: Sequence[int], name: str = "custom"):
        table = tuple(table)
        memo: dict = {}
        problem = table_violation(topology, table, memo)
        if problem is not None:
            raise OperationError(name, *problem)
        object.__setattr__(self, "topology", topology)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_memo", memo)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Operation is immutable")

    def __reduce__(self):
        return Operation, (self.topology, self.table, self.name)

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


def table_violation(
    topology: Topology, table: Sequence[int], memo: Optional[dict] = None
) -> Optional[tuple[str, int]]:
    """First violated operation law as (condition, witness mask), else None.

    A table whose entries run from 0 up to exactly the whole space packs
    to the lanes of the interior table (:meth:`~topolab.space.Topology.int_lanes`),
    so one AND-NOT of the two accepts it.  Every lawful table passes
    that test, as its image of the whole space is the whole space; any
    other table is walked entry by entry to name the first witness.
    Given a ``memo`` dict, an accepted table's lanes are stored there as
    the :func:`op_lanes` table, which they are.
    """
    count = 1 << topology.n
    if len(table) != count:
        return (f"table has {len(table)} entries, expected {count}", 0)
    if table[0] != 0:
        return ("the empty set must map to the empty set", 0)
    full = topology.full
    if max(table) == full and min(table) >= 0:
        lanes = pack_lanes(table)
        if topology.int_lanes()[0] & ~lanes[0] == 0:
            if memo is not None:
                memo[op_lanes.__wrapped__] = lanes
            return None
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

    Every table is read off the space's interior table; the closure
    table is its complement dual, cl[a] = full ^ inner[full ^ a], and
    full ^ a runs down as a runs up.
    """
    if name not in BUILTIN_NAMES:
        raise ValueError(f"unknown operation name {name!r}; choose from {BUILTIN_NAMES}")
    if name == "identity":
        return Operation(topology, topology.subsets(), name)
    inner = list(topology.int_table())  # indexed per entry below: a list reads faster than a lane view
    if name == "int":
        return Operation(topology, inner, name)
    full = topology.full
    cl = [full ^ i for i in reversed(inner)]
    if name == "cl":
        table = cl
    elif name == "cloint":
        table = [cl[i] for i in inner]
    elif name == "introcl":
        table = [inner[c] for c in cl]
    elif name == "scl":
        table = [a | inner[c] for a, c in enumerate(cl)]
    else:  # sint
        table = [a & cl[i] for a, i in enumerate(inner)]
    return Operation(topology, table, name)


def catalog(topology: Topology) -> dict[str, Operation]:
    return {name: builtin(topology, name) for name in BUILTIN_NAMES}


def dual_table(op: Operation) -> tuple[int, ...]:
    """Raw complement-conjugate table X \\ op(X \\ A), with no validation;
    X \\ A runs down as A runs up, so it is the table reversed."""
    return tuple(map(op.topology.full.__xor__, reversed(op.table)))


def dual(op: Operation) -> Operation:
    """The complement-conjugate operation.

    The conjugate of an arbitrary operation can fail the operation laws;
    the constructor validates it and rejects it loudly, naming
    ``dual(<name>)`` and the witness mask, rather than assuming it.  Every
    builtin has a builtin dual (int <-> cl, cloint <-> introcl,
    scl <-> sint, identity self-dual).
    """
    return Operation(op.topology, dual_table(op), f"dual({op.name})")


def leq(a: Operation, b: Operation) -> bool:
    """Pointwise order: a(S) inside b(S) for every subset S: one AND-NOT
    of the two tables' lanes (:func:`op_lanes`)."""
    if a.topology != b.topology:
        raise ValueError("operations live over different topologies")
    return op_lanes(a)[0] & ~op_lanes(b)[0] == 0


@memoized
def op_lanes(op: Operation) -> tuple[int, int]:
    """(lanes, lane width in bits): the table packed as one integer
    (:func:`~topolab.bits.pack_lanes`), kept on the operation.  Every table
    over one space packs to the same width, since every operation maps
    the whole space to itself (its image holds the interior of the whole
    space), so the largest entry is the whole space.  The constructor
    keeps the lanes :func:`table_violation` packed, so this is read, not
    built."""
    return pack_lanes(op.table)


@memoized
def is_monotone(op: Operation) -> bool:
    """Whether S inside T forces op(S) inside op(T): n shift-and-AND
    steps on the table's lanes (:func:`~topolab.bits.is_monotone_lanes`).
    Kept on the operation, so the kernels sharing an enlarger ask once."""
    return is_monotone_lanes(*op_lanes(op), op.topology.n)


@memoized
def op_open_family(op: Operation) -> Family:
    """All subsets S with S inside op(S); contains the empty and full sets
    and every open set: the zero lanes of ``identity & ~table``
    (:func:`~topolab.bits.zero_lanes`).  Kept on the operation."""
    ident, width = op.topology.identity_lanes()
    return zero_lanes(ident & ~op_lanes(op)[0], width, op.topology.n)


@memoized
def op_open_plane(op: Operation) -> int:
    """:func:`op_open_family` as a 2**n-bit plane: the zero plane of
    ``identity & ~table`` (:func:`~topolab.bits.zero_plane`).  Kept on
    the operation."""
    ident, width = op.topology.identity_lanes()
    return zero_plane(ident & ~op_lanes(op)[0], width, op.topology.n)


@memoized
def op_shrink_plane(op: Operation) -> int:
    """The 2**n-bit plane of the sets S with op(S) inside S: the zero
    plane of ``table & ~identity``.  Kept on the operation."""
    ident, width = op.topology.identity_lanes()
    return zero_plane(op_lanes(op)[0] & ~ident, width, op.topology.n)


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
    member holds x.  With the members grouped by image
    (:func:`group_by_image`), the meets are one
    :func:`~topolab.bits.point_meets` of the groups, and the meet at x is
    an image around x iff its group holds x.  A meet that is the whole
    set passes either way: it is an image around x, or no member holds x.
    """
    groups, full = group_by_image(op.table, family), op.topology.full
    meets = point_meets(groups.items(), op.topology.n)
    return all(m == full or groups.get(m, 0) >> x & 1 for x, m in enumerate(meets))


def group_by_image(table: Sequence[int], family: Iterable[int]) -> dict[int, int]:
    """image t -> union of the members u of ``family`` with table[u] = t,
    in order of first appearance."""
    groups: dict[int, int] = {}
    for u in family:
        t = table[u]
        groups[t] = groups.get(t, 0) | u
    return groups


def neighborhoods(n: int, family: Sequence[int], point: int) -> Family:
    """All supersets of some family member containing ``point``.

    One zeta transform of the plane of the members around ``point``
    (:func:`~topolab.bits.upward_closure`).
    """
    return upward_closure(at_point(family, point), n)
