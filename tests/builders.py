"""Scalars from coefficient sequences, for the tests.

``Scalar(x)`` takes one value, so a test that draws p(pi)/q(pi) as two
coefficient sequences builds it here with public arithmetic: Horner in
``PI`` over each sequence, then one division.  The canonical form is
unique, so the same value gives the same Scalar however it was built.
"""

from oscigeo.scalar import PI, ZERO, Scalar


def at_pi(coeffs) -> Scalar:
    """The polynomial with these coefficients, in ascending degree, at pi."""
    out = ZERO
    for c in reversed(coeffs):
        out = out * PI + c
    return out


def from_coeffs(num, den=(1,)) -> Scalar:
    """num(pi) / den(pi) for coefficient sequences in ascending degree, each coefficient a ScalarLike."""
    return at_pi(num) / at_pi(den)


def q_pi_values():
    """A hypothesis strategy of Q(pi) values: numerator and denominator of degree <= 2, coefficients in -4..4."""
    import hypothesis.strategies as st  # only the property tests that call this need hypothesis

    coeffs = st.lists(st.integers(-4, 4), min_size=1, max_size=3)
    return st.tuples(coeffs, coeffs.filter(any)).map(lambda nd: from_coeffs(*nd))
