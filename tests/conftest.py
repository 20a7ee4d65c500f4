import sys

import pytest

from sidlalab import sidla


@pytest.fixture
def tiny_rates_from_level_2(monkeypatch):
    """Make the jumps driver run rates of 2**-1074 from level 2 up: once
    level 1 is full, each event's clock gap e / rate_sum passes the largest
    double, as the stretch gaps do from level 1023 at 1074x1074.  With seed
    1 at 6x4 such a run also takes the driver's subnormal fallback (a level
    uniform that rounds up to rate_sum) twice."""
    jumps = sidla._run_jumps

    def tiny(state, rates, up_to, root=None):
        rates = rates.copy()
        rates[2:] = 2.0 ** -1074
        return jumps(state, rates, up_to, root)

    monkeypatch.setattr(sidla, "_run_jumps", tiny)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
