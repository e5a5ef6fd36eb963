from __future__ import annotations

from hypothesis import strategies as st

from altpaths.graph_core import num_oriented
from _brute import brute_graph_from_code


@st.composite
def oriented_graphs(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_n, max_n))
    code = draw(st.integers(0, num_oriented(n) - 1))
    return brute_graph_from_code(n, code)
