import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

try:
    import gdp  # noqa: F401  (prefer the installed package)
except ImportError:  # fall back to the source tree for uninstalled runs
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gdp.kostka import KostkaPair, Partition, conjugate

EX12 = (5, 5, 4, 4, -3, -3, -3, -3, -3, -1, 5, 5, 5, 3, -4, -4, -4, -4, -4)

# Pass/fail lines registered by the acceptance suite; echoed after the run
# so they survive pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def wide_pair() -> KostkaPair:
    """A pair with lambda_1 = 25 whose column vector has cost 59 > width 25;
    columns 1 and 2 split it.  Built from its column heights, the conjugates
    of lambda and mu."""
    lam_columns = (56,) * 2 + (44,) * 6 + (39,) + (27,) * 6 + (22,) + (10,) * 6
    lam_columns += (5, 1, 1)
    mu_columns = (59,) + (53,) * 4 + (36,) * 7 + (19,) * 7 + (2,) * 5
    return KostkaPair(
        conjugate(Partition(lam_columns)), conjugate(Partition(mu_columns))
    )
