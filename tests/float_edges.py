"""Hypothesis strategies shared by the float-edge property tests."""

import numpy as np
from hypothesis import strategies as st

#: Positive floats from the smallest subnormal to the largest float, with
#: the ends of the range and of the normal range drawn often.
EXTREME = st.one_of(
    st.sampled_from([5e-324, 1e-320, 1e-310, float(np.finfo(float).tiny), 1e-300, 1.0,
                     1e300, 1.7e308]),
    st.floats(min_value=5e-324, max_value=1.7e308))
