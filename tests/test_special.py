import math

import pytest
import scipy.special
from hypothesis import given, strategies as st

from coharq.special import gammainc_lower

# integer shapes reach the ~1000 that the RTD gamma mixture asks for at a
# fading-parameter ratio of 10
shapes = st.one_of(st.integers(1, 1000).map(float),
                   st.floats(0.5, 50.0, allow_nan=False))
args = st.floats(1e-8, 3000.0, allow_nan=False)


@given(shapes, args)
def test_matches_scipy(a, x):
    assert gammainc_lower(a, x) == pytest.approx(scipy.special.gammainc(a, x),
                                                 rel=1e-11, abs=1e-13)


@given(shapes, args, args)
def test_monotone_in_x(a, x1, x2):
    lo, hi = min(x1, x2), max(x1, x2)
    assert gammainc_lower(a, lo) <= gammainc_lower(a, hi) + 1e-14


def test_boundaries():
    assert gammainc_lower(3.0, 0.0) == 0.0
    assert gammainc_lower(1.0, 1.0) == pytest.approx(1 - math.exp(-1), rel=1e-12)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        gammainc_lower(0.0, 1.0)
    with pytest.raises(ValueError):
        gammainc_lower(1.0, -1.0)
    with pytest.raises(ValueError):
        gammainc_lower(1.0, math.nan)
