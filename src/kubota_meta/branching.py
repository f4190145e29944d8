"""Finite branching combinatorics for the cover of SL2.

An irreducible genuine representation enters only through finite data: its
self-twist subgroup S inside E*/E*^2 and a discreteness flag.  Everything
here is counting in the Klein four-group of square classes against the
pairing with -1, plus the small nilpotent-orbit arithmetic that matches
orbits with Whittaker data.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    FieldMismatch,
    MinusOneIsSquare,
    MinusOneNotSquare,
    NotACoset,
    NotDiscrete,
    NotNilpotent,
    NotRamifiedClass,
    ZeroElement,
    ZeroMatrix,
)
from .hilbert import Sign, pair_class_keys
from .kubota import Mat2, _common, _elements, _product
from .local_field import (
    FieldElement,
    LocalField,
    SquareClass,
    square_class,
    square_class_reps,
)
from .weil import AdditiveChar, RootOfUnity, psi_eval


def _pairs_minus_one(cls: SquareClass) -> Sign:
    """(a, -1) for a square class a."""
    f = cls.field
    return pair_class_keys(f, cls.key, f.minus_one_key)


# ---------------------------------------------------------------------------
# twist models


@dataclass(frozen=True)
class TauTwistModel:
    """Symbolic model of an irreducible genuine SL2-cover representation.

    S is the self-twist subgroup; ``discrete`` flags discrete series.
    Validation enforces what the structure theory forces: S must be a
    subgroup, and a principal-series representation with nontrivial
    self-twists must have all of them orthogonal to -1.
    """

    field: LocalField
    S: frozenset
    discrete: bool

    def __post_init__(self):
        S = frozenset(self.S)
        object.__setattr__(self, "S", S)
        if SquareClass(self.field, 0) not in S:
            raise ValueError("self-twist set must contain the identity class")
        for a in S:
            for b in S:
                if a * b not in S:
                    raise ValueError("self-twist set must be a subgroup")
        if not self.discrete and len(S) > 1:
            if any(_pairs_minus_one(a) == -1 for a in S):
                raise ValueError(
                    "principal-series self-twists must pair trivially with -1"
                )


def multiplicity(model: TauTwistModel) -> int:
    """Restriction multiplicity: #{a in S : (a, -1) = +1}; lands in {1, 2, 4}."""
    return sum(1 for a in model.S if _pairs_minus_one(a) == 1)


def is_waldspurger_conjugate(model: TauTwistModel, a: SquareClass) -> bool:
    """Whether twisting by a swaps the model with its involution partner.

    The two conditions: a is a self-twist and (a, -1) = -1.  Only discrete
    models are moved by the involution.
    """
    if not model.discrete:
        raise NotDiscrete("the involution fixes non-discrete representations")
    return a in model.S and _pairs_minus_one(a) == -1


def packet_product(model: TauTwistModel) -> dict:
    """Packet sizes upstairs and downstairs and their product.

    m2 counts the packet of the restriction (= |S|); m1 counts the twist
    orbit of the pair {representation, involution partner}, computed from
    the stabilizer S+ = {a in S : (a, -1) = +1} and whether the partner is
    reachable by a twist.  The product is 8 for discrete models and 4 for
    non-discrete ones, exhaustively checkable.
    """
    m2 = len(model.S)
    stab = multiplicity(model)
    if model.discrete:
        partner_reachable = stab < m2
        m1 = (4 if partner_reachable else 8) // stab
    else:
        m1 = 4 // m2
    return {"m1": m1, "m2": m2, "product": m1 * m2}


# ---------------------------------------------------------------------------
# Whittaker support partitions and the sign chain


def complementary_support(support, field: LocalField) -> SquareClass:
    """The class b making support and b*support partition all 4 classes.

    Requires -1 to be a square and the support to be a 2-element set (any
    such set is a coset of an order-2 subgroup in a Klein four-group).
    Returns the first canonical representative that moves the support off
    itself, i.e. the first one outside the coset's stabilizer subgroup; b*x
    and b*y then both miss {x, y}, so the two sets partition the classes.
    """
    if not field.minus_one_is_square:
        raise MinusOneNotSquare("partition statement needs -1 to be a square")
    support = frozenset(support)
    if len(support) != 2:
        raise NotACoset(f"support of size {len(support)} is not a proper coset")
    x, y = sorted(support, key=lambda c: c.key)
    stabilizer = {SquareClass(field, 0), x * y}
    return next(r for r in square_class_reps(field) if r not in stabilizer)


def epsilon_sign_chain(field: LocalField, b: SquareClass, seed: Sign = 1) -> dict:
    """Build the four-class sign assignment forced by a ramified self-twist.

    With -1 a non-square and b a ramified class, set a = -b; the classes
    are exactly {1, -1, a, -a}.  Seeding eps(1) = seed, the two forced
    relations eps at -1 and at a both flip the seed, and the chain
    eps(x) = -eps(a x) then holds at all four classes; ``holds`` reports
    that four-case verification.
    """
    if field.minus_one_is_square:
        raise MinusOneIsSquare("sign chain needs -1 to be a non-square")
    if not b.key & 2:
        raise NotRamifiedClass(f"class [{b.label}] has even valuation")
    if seed not in (1, -1):
        raise ValueError("seed must be +1 or -1")
    minus_one = SquareClass(field, field.minus_one_key)
    one = SquareClass(field, 0)
    a = minus_one * b
    minus_a = b  # -a = -(-b) = b
    order = (one, minus_one, a, minus_a)
    assignment = {one: seed, minus_one: -seed, a: -seed, minus_a: seed}
    holds = all(assignment[x] == -assignment[a * x] for x in order)
    return {"assignment": assignment, "order": order, "a": a, "holds": holds}


# ---------------------------------------------------------------------------
# nilpotent orbits and Whittaker data


class NilpotentSl2:
    """A nonzero traceless nilpotent 2x2 matrix Y (so Y^2 = 0)."""

    __slots__ = ("field", "e11", "e12", "e21")

    def __init__(self, field: LocalField, e11: FieldElement, e12: FieldElement,
                 e21: FieldElement):
        for entry in (e11, e12, e21):
            if not isinstance(entry, FieldElement) or entry.field is not field:
                raise FieldMismatch("nilpotent entries must lie in the given field")
        self.field = field
        self.e11, self.e12, self.e21 = e11, e12, e21
        if e11.is_zero() and e12.is_zero() and e21.is_zero():
            raise ZeroMatrix("the zero matrix is excluded")
        # Cayley-Hamilton: trace 0 (built in) and det 0 give Y^2 = 0
        if not (-e11 * e11 - e12 * e21).is_zero():
            raise NotNilpotent("determinant must vanish")

    @classmethod
    def from_entries(cls, field: LocalField, e11, e12, e21, e22) -> "NilpotentSl2":
        if not (e11 + e22).is_zero():
            raise NotNilpotent("trace must vanish")
        return cls(field, e11, e12, e21)

    @classmethod
    def lower(cls, a: FieldElement) -> "NilpotentSl2":
        """The reference orbit point Y_a = [[0, 0], [a, 0]]."""
        z = a.field.zero()
        return cls(a.field, z, z, a)

    def entries(self):
        return (self.e11, self.e12, self.e21, -self.e11)

    def conjugate_by(self, g: Mat2) -> "NilpotentSl2":
        """g Y g^-1, as products of nine-int matrices."""
        f = self.field
        if g.field is not f:
            raise FieldMismatch("conjugation across different fields")
        y = _common([(x._A, x._B, x._D) for x in self.entries()])
        q = _product(f, _product(f, g._q, y), g.inverse()._q)
        return NilpotentSl2.from_entries(f, *_elements(f, q))

    def __repr__(self) -> str:
        e = self.entries()
        return f"[[{e[0]},{e[1]}],[{e[2]},{e[3]}]]"


def orbit_invariant(Y: NilpotentSl2) -> SquareClass:
    """The square class a with Y conjugate to [[0,0],[a,0]].

    Read off the lower-left entry, or minus the upper-right one when that
    vanishes; both cannot vanish for a nonzero nilpotent (the diagonal
    would then be forced to zero too).
    """
    return square_class(Y.e21 if Y.e21 else -Y.e12)


def whittaker_datum_eval(a: FieldElement, x: FieldElement,
                         psi: AdditiveChar) -> RootOfUnity:
    """Pair the orbit point Y_a against the unipotent log [[0,x],[0,0]].

    Y_a n_x = [[0, 0], [a, 0]] [[0, x], [0, 0]] = [[0, 0], [0, a x]], so
    the trace form gives tr(Y_a n_x) = a x, evaluated through the
    character; equals psi_a at x by construction.
    """
    if a.is_zero():
        raise ZeroElement("orbit parameter must be nonzero")
    return psi_eval(psi, a * x)
