"""Exception hierarchy shared by all ovoidlab modules."""


class OvoidlabError(Exception):
    """Base class for every error raised by ovoidlab."""


class ZeroInverse(OvoidlabError):
    """Multiplicative inverse of zero requested."""


class ZeroElement(OvoidlabError):
    """An operation required a nonzero field element."""


class SizeGuard(OvoidlabError):
    """Requested degree n lies outside the supported range 1..4: PG(3,32)
    would already need q^4 = 1 M vector_index entries and 1.1 M line
    masks of 33,825 bits each."""


class SamePoint(OvoidlabError):
    """Two distinct points were required."""


class DuplicatePoint(OvoidlabError):
    """Distinct points were required."""


class NoPolarity(OvoidlabError):
    """No symplectic polarity fits the given point set (not an ovoid?)."""


class NoIrreducibleConstant(OvoidlabError):
    """No constant a with y^2 + y + a irreducible was found."""


class EvenDegree(OvoidlabError):
    """Suzuki-Tits ovoids require odd extension degree n."""


class NotAnOvoid(OvoidlabError):
    """The point set violates the ovoid property."""


class NoQuadric(OvoidlabError):
    """No quadratic form has the given point set as its exact zero set."""


class NotAFibration(OvoidlabError):
    """The ovoid family does not partition the point set."""


class NotASpread(OvoidlabError):
    """The line set is not a spread."""


class NotALine(OvoidlabError):
    """An index outside the geometry's line table was given as a line."""


class InvariantViolation(OvoidlabError):
    """A construction broke a guaranteed invariant (a Singer generator of the
    wrong projective order, or a degenerate polarity)."""


class LengthMismatch(OvoidlabError):
    """Bit vectors of different lengths were combined."""


class EmptyMatrix(OvoidlabError):
    """An operation required at least one matrix row."""
