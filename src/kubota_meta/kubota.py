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

Implementation note: p(g1 g2) = p(g1)^(det g2) p(g2) holds identically, so
all three x-values needed by beta can be read off the entries of g1, g2 and
their product, and each Hilbert symbol consumes only square-class keys.
That turns a cocycle check into three matrix products plus integer parity
arithmetic, which is what makes 10k-triple self-tests cheap.
"""

from __future__ import annotations

from .errors import (
    BaseFieldInput,
    FieldMismatch,
    NotFRational,
    NotSL2,
    ZeroElement,
)
from .hilbert import Sign, hilbert, pair_class_keys
from .local_field import FieldElement, LocalField, class_key


def _kxor(k1: tuple, k2: tuple) -> tuple:
    return (k1[0] ^ k2[0], k1[1] ^ k2[1])


class Mat2:
    """Invertible 2x2 matrix over a LocalField with cached determinant.

    Square-class keys of the determinant and of the x-entry (c, or d when
    c = 0) are memoized on the instance; cocycle evaluation reads only
    those.
    """

    __slots__ = ("field", "a", "b", "c", "d", "det", "_kdet", "_kx")

    def __init__(self, field: LocalField, a, b, c, d, det=None):
        for entry in (a, b, c, d):
            if not isinstance(entry, FieldElement) or (
                    entry.field is not field and entry.field != field):
                raise FieldMismatch("matrix entries must lie in the given field")
        self.field = field
        self.a, self.b, self.c, self.d = a, b, c, d
        self.det = det if det is not None else a * d - b * c
        if self.det.is_zero():
            raise ValueError("matrix is singular")
        self._kdet = None
        self._kx = None

    @classmethod
    def identity(cls, field: LocalField) -> "Mat2":
        one, zero = field.one(), field.zero()
        return cls(field, one, zero, zero, one, det=one)

    @classmethod
    def diag(cls, x: FieldElement, y: FieldElement) -> "Mat2":
        f = x.field
        return cls(f, x, f.zero(), f.zero(), y, det=x * y)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        if self.field != other.field:
            raise FieldMismatch("matrix product across different fields")
        prod = Mat2(
            self.field,
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            det=self.det * other.det,
        )
        # det key of a product is free once the factors are keyed
        prod._kdet = _kxor(self.det_key(), other.det_key())
        return prod

    def inverse(self) -> "Mat2":
        r = self.det.inverse()
        inv = Mat2(
            self.field,
            self.d * r,
            -self.b * r,
            -self.c * r,
            self.a * r,
            det=r,
        )
        # class keys are 2-torsion, so det and 1/det share one
        inv._kdet = self._kdet
        return inv

    def det_key(self) -> tuple:
        if self._kdet is None:
            self._kdet = class_key(self.det)
        return self._kdet

    def x_key(self) -> tuple:
        """Square-class key of x(g) = c if c != 0 else d."""
        if self._kx is None:
            self._kx = class_key(self.c if self.c else self.d)
        return self._kx

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def is_f_rational(self) -> bool:
        return not (self.a.b or self.b.b or self.c.b or self.d.b)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat2):
            return NotImplemented
        return self.field == other.field and self.entries() == other.entries()

    def __hash__(self):
        return hash((self.field, self.entries()))

    def __repr__(self) -> str:
        a, b, c, d = self.entries()
        return f"[[{a},{b}],[{c},{d}]]"


# ---------------------------------------------------------------------------
# the displayed maps


def x_of(g: Mat2) -> FieldElement:
    """c when c != 0, else d (nonzero by invertibility)."""
    return g.c if g.c else g.d


def p_part(g: Mat2) -> Mat2:
    """The SL2 part: diag(1, det g)^(-1) g."""
    det = g.det
    return Mat2(g.field, g.a, g.b, g.c / det, g.d / det, det=g.field.one())


def conj_by_det(g: Mat2, y: FieldElement) -> Mat2:
    """g^y = diag(1, y)^(-1) g diag(1, y); preserves the determinant."""
    if y.is_zero():
        raise ZeroElement("conjugation parameter must be nonzero")
    return Mat2(g.field, g.a, g.b * y, g.c / y, g.d, det=g.det)


def v_factor(y: FieldElement, g: Mat2) -> Sign:
    """1 when c != 0; the symbol (y, d) when c = 0.  Expects g in SL2."""
    if y.is_zero():
        raise ZeroElement("v factor needs nonzero y")
    if g.c:
        return 1
    return hilbert(y, g.d)


def beta_sl2(g1: Mat2, g2: Mat2) -> Sign:
    """Kubota's cocycle on SL2, evaluated literally from its definition."""
    one = g1.field.one()
    if g1.det != one or g2.det != one:
        raise NotSL2("beta_sl2 requires determinant-1 arguments")
    x1 = x_of(g1)
    x2 = x_of(g2)
    x12 = x_of(g1 @ g2)
    return hilbert(x1, x2) * hilbert(-(x2 / x1), x12)


def beta(g1: Mat2, g2: Mat2, product: Mat2 = None) -> Sign:
    """The GL2 cocycle.  ``product`` may pass in a precomputed g1 @ g2.

    Restricted to SL2 this equals beta_sl2; on pairs of upper-triangular
    matrices it collapses to the symbol (a1, d2) of the diagonal entries.
    """
    if g1.field != g2.field:
        raise FieldMismatch("cocycle arguments must share a field")
    field = g1.field
    h = product if product is not None else g1 @ g2
    kd1 = g1.det_key()
    kd2 = g2.det_key()
    kd12 = _kxor(kd1, kd2)

    # x(p(g1)^(det g2)) = c1/(det1 det2) if c1 != 0 else d1/det1
    kx1 = _kxor(g1.x_key(), _kxor(kd1, kd2) if g1.c else kd1)
    # x(p(g2)) = c2/det2 if c2 != 0 else d2/det2
    kx2 = _kxor(g2.x_key(), kd2)
    # x(p(g1 g2)), using p(g1 g2) = p(g1)^(det g2) p(g2)
    kx12 = _kxor(h.x_key(), kd12)

    kminus = (0, 0) if field.minus_one_is_square else (0, 1)
    kmid = _kxor(kminus, _kxor(kx1, kx2))

    sign = pair_class_keys(field, kx1, kx2) * pair_class_keys(field, kmid, kx12)
    if not g1.c:
        # v(det g2, p(g1)) = (det g2, d1/det1)
        sign *= pair_class_keys(field, kd2, _kxor(g1.x_key(), kd1))
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
    return MetaElement(product, m1.eps * m2.eps * beta(m1.g, m2.g, product=product))


def meta_inv(m: MetaElement) -> MetaElement:
    ginv = m.g.inverse()
    return MetaElement(ginv, m.eps * beta(m.g, ginv))


class _ProductRow:
    """The slice of a product matrix that the cocycle actually reads.

    beta consumes only x(g) = (c or d), the determinant class key, and the
    c = 0 branch; the top row of g1 @ g2 never enters, so check_cocycle
    skips computing it.
    """

    __slots__ = ("field", "c", "d", "_kdet", "_kx")

    def __init__(self, field, c, d, kdet):
        self.field = field
        self.c = c
        self.d = d
        self._kdet = kdet
        self._kx = None

    def det_key(self) -> tuple:
        return self._kdet

    def x_key(self) -> tuple:
        if self._kx is None:
            self._kx = class_key(self.c if self.c else self.d)
        return self._kx


def _product_row(g1, g2) -> _ProductRow:
    return _ProductRow(
        g1.field,
        g1.c * g2.a + g1.d * g2.c,
        g1.c * g2.b + g1.d * g2.d,
        _kxor(g1.det_key(), g2.det_key()),
    )


def check_cocycle(g1: Mat2, g2: Mat2, g3: Mat2) -> bool:
    """beta(g1,g2) beta(g1 g2, g3) == beta(g1, g2 g3) beta(g2, g3), exactly."""
    h12 = _product_row(g1, g2)
    h23 = _product_row(g2, g3)
    h123 = _product_row(h12, g3)
    lhs = beta(g1, g2, product=h12) * beta(h12, g3, product=h123)
    rhs = beta(g1, h23, product=h123) * beta(g2, g3, product=h23)
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
