"""The degree-two metaplectic cocycle on GL2 over a local field.

The cover multiplies pairs (g, eps) with eps in {+1, -1} by

    (g1, e1) (g2, e2) = (g1 g2, e1 e2 beta(g1, g2)),

where beta is Kubota's 2-cocycle.  On SL2 it is

    beta(g1, g2) = (x(g1), x(g2)) (-x(g1)^(-1) x(g2), x(g1 g2)),

with x(g) = c when c != 0, else d, and (.,.) the quadratic Hilbert symbol.
It extends to GL2 through the determinant splitting

    beta(g1, g2) = beta(p(g1)^(det g2), p(g2)) v(det g2, p(g1)),

where p(g) = diag(1, det g)^(-1) g, g^y is conjugation by diag(1, y), and
v(y, g) is 1 when c != 0 and (y, d) when c = 0.

Implementation note: a Mat2 is nine ints (A_a, B_a, ..., A_d, B_d, D),
entry x being (A_x + B_x*sqrt(d)) / D over one denominator D > 0.  A
product, inverse or displayed map is integer arithmetic on these ints
followed by one gcd over all nine, which leaves the nine coprime; that
form is canonical, so equality and hashing compare the tuple.  The pairs
(A_x, B_x) are multiplied and divided by ``local_field._mul`` and
``_divide``; only ``_product``, the inner loop of a long fold, writes its
pair products out, and it multiplies by the denominator dd of d only when
dd > 1.  Once a factor's denominator passes SEED_GATE, a product's gcd
starts from ``_content_bound`` of the factor with the smaller
denominator, a small multiple of the content: each big int then costs one
division by that seed in place of a big-by-big gcd, and the gcd is the
same.  The entries ``.a`` ... ``.d`` and ``.det`` are read back as
reduced FieldElements only at the API boundary.

Square-class keys come from the ints as stored: the key of c is the key
of the triple (A_c, B_c, D), which does not change if the three are
scaled by one factor, and det = (ad - bc) has the key of its numerator
over the denominator of d, since D^2 is a square.  A product's det key is
the XOR of its factors' keys.  Past SEED_GATE a product also carries the
key of its denominator D E dd / g: the XOR of the factors' memoized
keys of D and E, the field's cached key of dd and the key of the content
g.  The key of c = (A_c + B_c sqrt(d)) / D is then the key of A_c + B_c
sqrt(d) XOR that of D, so ``x_key`` never strips the p-power out of a
thousand-bit D, whose valuation reaches past a hundred in a long fold.
p(g1 g2) = p(g1)^(det g2) p(g2) holds identically, so all three x-values
needed by beta can be read off the entries of g1, g2 and their product,
and each Hilbert symbol consumes only square-class keys.  That turns a
cocycle check into three integer matrix products plus parity arithmetic.
"""

from __future__ import annotations

from .errors import (
    BaseFieldInput,
    FieldMismatch,
    NotFRational,
    ZeroElement,
)
from math import gcd, lcm

from .hilbert import Sign, pair_class_keys
from .local_field import FieldElement, LocalField, _class_key, _divide, _mul, _reduced


# ---------------------------------------------------------------------------
# 2x2 matrices as nine ints (A_a, B_a, A_b, B_b, A_c, B_c, A_d, B_d, D)


def _common(triples) -> tuple:
    """The nine ints of four entries (A, B, D), D > 0, over the least
    common denominator.

    With each triple in lowest terms, the nine ints are coprime; else
    ``_mat2`` divides out their content.
    """
    D = lcm(*(t[2] for t in triples))
    q = []
    for A, B, E in triples:
        s = D // E
        q += (A * s, B * s)
    q.append(D)
    return tuple(q)


def _elements(f: LocalField, q: tuple) -> tuple:
    D = q[8]
    return tuple(_reduced(f, q[i], q[i + 1], D) for i in (0, 2, 4, 6))


def _entry(i: int) -> property:
    """The entry stored at q[i], q[i + 1] as a reduced FieldElement."""
    return property(lambda g: _reduced(g.field, g._q[i], g._q[i + 1], g._q[8]))


def _product(f: LocalField, x: tuple, y: tuple) -> tuple:
    """The nine ints of the 2x2 product x y, not reduced.

    Entry by entry this is ``_mul`` summed over the inner index; for d =
    dn/dd with dd > 1 the denominator gains the factor dd that keeps the
    sqrt(d)^2 terms integral.
    """
    a0, a1, b0, b1, c0, c1, d0, d1, D = x
    e0, e1, f0, f1, g0, g1, h0, h1, E = y
    dd, dn = f._d_den, f._d_num
    if dd == 1:
        return (
            a0 * e0 + b0 * g0 + dn * (a1 * e1 + b1 * g1),
            a0 * e1 + a1 * e0 + b0 * g1 + b1 * g0,
            a0 * f0 + b0 * h0 + dn * (a1 * f1 + b1 * h1),
            a0 * f1 + a1 * f0 + b0 * h1 + b1 * h0,
            c0 * e0 + d0 * g0 + dn * (c1 * e1 + d1 * g1),
            c0 * e1 + c1 * e0 + d0 * g1 + d1 * g0,
            c0 * f0 + d0 * h0 + dn * (c1 * f1 + d1 * h1),
            c0 * f1 + c1 * f0 + d0 * h1 + d1 * h0,
            D * E,
        )
    return (
        dd * (a0 * e0 + b0 * g0) + dn * (a1 * e1 + b1 * g1),
        dd * (a0 * e1 + a1 * e0 + b0 * g1 + b1 * g0),
        dd * (a0 * f0 + b0 * h0) + dn * (a1 * f1 + b1 * h1),
        dd * (a0 * f1 + a1 * f0 + b0 * h1 + b1 * h0),
        dd * (c0 * e0 + d0 * g0) + dn * (c1 * e1 + d1 * g1),
        dd * (c0 * e1 + c1 * e0 + d0 * g1 + d1 * g0),
        dd * (c0 * f0 + d0 * h0) + dn * (c1 * f1 + d1 * h1),
        dd * (c0 * f1 + c1 * f0 + d0 * h1 + d1 * h0),
        D * E * dd,
    )


def _det_ints(f: LocalField, q: tuple) -> tuple:
    """(P, Q) with det = (P + Q sqrt(d)) / (D^2 dd)."""
    a0, a1, b0, b1, c0, c1, d0, d1, _ = q
    P1, Q1 = _mul(f, a0, a1, d0, d1)
    P2, Q2 = _mul(f, b0, b1, c0, c1)
    return P1 - P2, Q1 - Q2


_new_matrix = object.__new__


def _mat2(f: LocalField, q: tuple, kdet, seed: int = 0, kden=None) -> "Mat2":
    """The matrix of nine ints q (q[8] > 0) reduced by their content, with
    det key ``kdet`` (None: computed when asked).  The one constructor of
    products, inverses and displayed maps; it skips the singular check.
    ``seed`` is 0 (none) or a multiple of the content, which leaves the
    gcd as it is and makes it cheap when small.  ``kden`` is None or the
    class key of q[8] as given; it is carried past the content g."""
    g = gcd(seed, *q) if seed else gcd(*q)
    if g != 1:
        q = tuple([n // g for n in q])
        if kden is not None:
            # q[8] / g has the key of q[8] times g, keys being 2-torsion
            kden ^= _class_key(f, g, 0, 1)
    m = _new_matrix(Mat2)
    m.field = f
    m._q = q
    m._kdet = kdet
    m._kx = None
    m._bound = None
    m._kden = kden
    return m


# once a factor's denominator is wider than a machine word, a product
# seeds its content gcd and carries its denominator's class key, so that
# x_key strips only the entry's numerator; below the gate the plain gcd
# and the one strip of D are cheap already
SEED_GATE = 1 << 64


def _content_bound(g: "Mat2") -> int:
    """dd n D, a multiple of the content of the product of g with any
    matrix on either side, where n is the denominator ``_divide`` gives
    for (P, Q) = _det_ints(g), memoized on g.

    For h @ g with h = X / E: the product's numerators are dd X Y, with
    Y the numerators of g.  Multiplying on the right by adj(Y), then by the
    conjugate of (P + Q sqrt(d)) / gcd(P, Q), turns them into dd n X up to
    sign, each step an integer combination of the previous ints, so the
    content of h @ g divides dd n X and the denominator dd E D.  Since X
    and E are coprime, it divides dd n D.  g @ h is the mirror image.

    The memo pays when one small factor seeds many products, as when the
    same words are folded again or a matrix is raised to a power; a factor
    used once pays one slot for it.
    """
    if g._bound is None:
        f = g.field
        g._bound = f._d_den * _divide(f, *_det_ints(f, g._q), ())[0] * g._q[8]
    return g._bound


class Mat2:
    """Invertible 2x2 matrix over a LocalField, stored as nine coprime ints.

    Entry x is (A_x + B_x sqrt(d)) / D for ``_q = (A_a, B_a, A_b, B_b,
    A_c, B_c, A_d, B_d, D)`` with D > 0.  The entries and the determinant
    read back as reduced FieldElements.  Square-class keys of the
    determinant and of the x-entry (c, or d when c = 0) are memoized on the
    instance, and so is the key of D once a product past SEED_GATE carries
    it; cocycle evaluation reads only those.
    """

    __slots__ = ("field", "_q", "_kdet", "_kx", "_bound", "_kden")

    def __init__(self, field: LocalField, a, b, c, d):
        for entry in (a, b, c, d):
            if not isinstance(entry, FieldElement) or entry.field is not field:
                raise FieldMismatch("matrix entries must lie in the given field")
        self.field = field
        self._q = _common([(x._A, x._B, x._D) for x in (a, b, c, d)])
        if _det_ints(field, self._q) == (0, 0):
            raise ValueError("matrix is singular")
        self._kdet = None
        self._kx = None
        self._bound = None
        self._kden = None

    @classmethod
    def identity(cls, field: LocalField) -> "Mat2":
        return _mat2(field, (1, 0, 0, 0, 0, 0, 1, 0, 1), 0)

    @classmethod
    def diag(cls, x: FieldElement, y: FieldElement) -> "Mat2":
        f = x.field
        return cls(f, x, f.zero(), f.zero(), y)

    a, b, c, d = _entry(0), _entry(2), _entry(4), _entry(6)

    @property
    def det(self) -> FieldElement:
        f, q = self.field, self._q
        P, Q = _det_ints(f, q)
        return _reduced(f, P, Q, q[8] * q[8] * f._d_den)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        f = self.field
        if other.field is not f:
            raise FieldMismatch("matrix product across different fields")
        x, y = self._q, other._q
        D, E = x[8], y[8]
        # det key of a product is free once the factors are keyed
        kdet = self.det_key() ^ other.det_key()
        if D < SEED_GATE and E < SEED_GATE:
            return _mat2(f, _product(f, x, y), kdet)
        # the factor with the smaller denominator gives the smaller seed,
        # and the denominator D E dd has the key of its three factors
        return _mat2(f, _product(f, x, y), kdet, _content_bound(self if D <= E else other),
                     self._den_key() ^ other._den_key() ^ f._d_den_key)

    def inverse(self) -> "Mat2":
        """The adjugate divided by the determinant."""
        f = self.field
        a0, a1, b0, b1, c0, c1, d0, d1, D = self._q
        # det = (P + Q sqrt(d)) / (D^2 dd): x / det = D dd X / n
        n, q = _divide(f, *_det_ints(f, self._q),
                       ((d0, d1), (-b0, -b1), (-c0, -c1), (a0, a1)))
        s = D * f._d_den
        # class keys are 2-torsion, so det and 1/det share one
        return _mat2(f, tuple(s * X for X in q) + (n,), self._kdet)

    def det_key(self) -> int:
        if self._kdet is None:
            # det = (P + Q sqrt d) / (D^2 dd), and D^2 is a square
            f = self.field
            self._kdet = _class_key(f, *_det_ints(f, self._q), f._d_den)
        return self._kdet

    def x_key(self) -> int:
        """Square-class key of x(g) = c if c != 0 else d."""
        if self._kx is None:
            q = self._q
            i = 4 if q[4] or q[5] else 6
            kden = self._kden
            if kden is None:
                self._kx = _class_key(self.field, q[i], q[i + 1], q[8])
            else:
                # x = (A + B sqrt d) / D: with D keyed, only A + B sqrt d
                self._kx = _class_key(self.field, q[i], q[i + 1], 1) ^ kden
        return self._kx

    def _den_key(self) -> int:
        """Square-class key of the denominator D, memoized."""
        if self._kden is None:
            self._kden = _class_key(self.field, self._q[8], 0, 1)
        return self._kden

    def entries(self) -> tuple:
        return _elements(self.field, self._q)

    def is_f_rational(self) -> bool:
        return not any(self._q[1:8:2])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat2):
            return NotImplemented
        return self.field is other.field and self._q == other._q

    def __hash__(self):
        return hash((self.field, self._q))

    def __repr__(self) -> str:
        a, b, c, d = self.entries()
        return f"[[{a},{b}],[{c},{d}]]"


# ---------------------------------------------------------------------------
# the SL2 part


def p_part(g: Mat2) -> Mat2:
    """The SL2 part: diag(1, det g)^(-1) g."""
    f = g.field
    a0, a1, b0, b1, c0, c1, d0, d1, D = g._q
    n, bottom = _divide(f, *_det_ints(f, g._q), ((c0, c1), (d0, d1)))
    # x / det = D dd X / n = D^2 dd X / (D n): over the denominator D n
    # the top row is multiplied by n
    s = D * D * f._d_den
    return _mat2(f, (a0 * n, a1 * n, b0 * n, b1 * n,
                     *(s * X for X in bottom), D * n), 0)


def beta(g1: Mat2, g2: Mat2) -> Sign:
    """The GL2 cocycle.

    Restricted to SL2 it is the formula (x(g1), x(g2)) (-x(g1)^(-1) x(g2),
    x(g1 g2)) of the module docstring; on pairs of upper-triangular
    matrices it collapses to the symbol (a1, d2) of the diagonal entries.
    """
    if g1.field is not g2.field:
        raise FieldMismatch("cocycle arguments must share a field")
    return _beta(g1, g2, g1 @ g2)


def _beta(g1: Mat2, g2: Mat2, h: Mat2) -> Sign:
    """beta(g1, g2) given h = g1 @ g2, for callers that hold the product."""
    field = g1.field
    kd1 = g1.det_key()
    kd2 = g2.det_key()
    kd12 = kd1 ^ kd2

    c1 = g1._q[4] or g1._q[5]
    # x(p(g1)^(det g2)) = c1/(det1 det2) if c1 != 0 else d1/det1
    kx1 = g1.x_key() ^ (kd12 if c1 else kd1)
    # x(p(g2)) = c2/det2 if c2 != 0 else d2/det2
    kx2 = g2.x_key() ^ kd2
    # x(p(g1 g2)), using p(g1 g2) = p(g1)^(det g2) p(g2)
    kx12 = h.x_key() ^ kd12

    sign = (pair_class_keys(field, kx1, kx2)
            * pair_class_keys(field, field.minus_one_key ^ kx1 ^ kx2, kx12))
    if not c1:
        # v(det g2, p(g1)) = (det g2, d1/det1), and d1/det1 has the key kx1
        sign *= pair_class_keys(field, kd2, kx1)
    return sign


# ---------------------------------------------------------------------------
# cover arithmetic


class MetaElement:
    """A point (g, eps) of the double cover."""

    __slots__ = ("g", "eps")

    def __init__(self, g: Mat2, eps: Sign = 1):
        if eps not in (1, -1):
            raise ValueError("eps must be +1 or -1")
        self.g = g
        self.eps = eps

    def __eq__(self, other) -> bool:
        if not isinstance(other, MetaElement):
            return NotImplemented
        return self.g == other.g and self.eps == other.eps

    def __repr__(self) -> str:
        return f"({self.g!r}, {'+1' if self.eps == 1 else '-1'})"


def meta_mul(m1: MetaElement, m2: MetaElement) -> MetaElement:
    product = m1.g @ m2.g
    return MetaElement(product, m1.eps * m2.eps * _beta(m1.g, m2.g, product))


def meta_inv(m: MetaElement) -> MetaElement:
    ginv = m.g.inverse()
    # g @ g^-1 is the identity: no product is formed to evaluate beta
    return MetaElement(ginv, m.eps * _beta(m.g, ginv, Mat2.identity(m.g.field)))


def check_cocycle(g1: Mat2, g2: Mat2, g3: Mat2) -> bool:
    """beta(g1,g2) beta(g1 g2, g3) == beta(g1, g2 g3) beta(g2, g3), exactly."""
    h12 = g1 @ g2
    h23 = g2 @ g3
    h123 = h12 @ g3
    lhs = _beta(g1, g2, h12) * _beta(h12, g3, h123)
    rhs = _beta(g1, h23, h123) * _beta(g2, g3, h23)
    return lhs == rhs


def is_split_on_GL2F(g1: Mat2, g2: Mat2) -> bool:
    """True iff beta(g1, g2) = +1 for matrices with base-field entries.

    The cocycle is identically +1 there, so g -> (g, 1) is a homomorphism
    on GL2(F); the self-test suites exercise this on random pairs.
    """
    if not g1.field.is_extension:
        raise BaseFieldInput("splitting statement lives in a quadratic extension")
    if not (g1.is_f_rational() and g2.is_f_rational()):
        raise NotFRational("all eight entries must lie in the base field")
    return beta(g1, g2) == 1


def commutator_pairing(z: FieldElement, g: Mat2) -> Sign:
    """Sign of the cover commutator of (diag(z,z), 1) against (g, 1).

    Computed honestly through meta_mul/meta_inv; equals (z, det g).
    """
    if z.is_zero():
        raise ZeroElement("central parameter must be nonzero")
    zt = MetaElement(Mat2.diag(z, z))
    gt = MetaElement(g)
    comm = meta_mul(meta_mul(zt, gt), meta_mul(meta_inv(zt), meta_inv(gt)))
    if comm.g != Mat2.identity(z.field):
        raise ArithmeticError("central commutator did not land in the kernel")
    return comm.eps
