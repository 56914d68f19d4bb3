"""The enumeration budget guard."""

import time

import pytest

from orthosum.errors import SizeLimitError, check_budget


def test_budget_guard_counts_powers_exactly_near_the_budget():
    check_budget(10, 1000, "cells", 3)
    with pytest.raises(SizeLimitError, match="cells needs 10000 items, exceeding the budget of 9999"):
        check_budget(10, 9999, "cells", 4)
    for count, exp in [(0, 10**30), (1, 10**30), (2, 0), (7, 1)]:
        check_budget(count, 7, "cells", exp)
    with pytest.raises(SizeLimitError, match="cells needs 12 items"):
        check_budget(12, 11, "cells")


@pytest.mark.parametrize("count, exp", [(10, 10**6), (10**6, 10**7), (3, 10**30)])
def test_budget_guard_refuses_a_huge_power_by_its_shape(count, exp):
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match=rf"cells needs {count}\^{exp} items"):
        check_budget(count, 10**7, "cells", exp)
    assert time.perf_counter() - start < 0.1


def test_budget_guard_names_a_count_too_long_to_print_by_its_bit_length():
    with pytest.raises(SizeLimitError, match=r"cells needs 2\^9965 or more items"):
        check_budget(10**3000, 10**7, "cells")
    with pytest.raises(SizeLimitError, match=rf"cells needs {2**1024 - 1} items"):
        check_budget(2**1024 - 1, 10**7, "cells")
    with pytest.raises(SizeLimitError, match=r"cells needs 2\^1024 or more items"):
        check_budget(2**1024, 10**7, "cells")
