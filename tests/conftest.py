import sys
from types import SimpleNamespace

import pytest

from ezfloat import bigmath


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts calls of the rounding kernel in ``.count``, wherever an
    ezfloat module holds it, so a division that bypasses the stats hook
    shows as a mismatch with ``stats.divisions``."""
    kernel = bigmath.round_quotient
    calls = SimpleNamespace(count=0)

    def counted(*args, **kwargs):
        calls.count += 1
        return kernel(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "ezfloat" or name.startswith("ezfloat."):
            for attr, value in list(vars(module).items()):
                if value is kernel:
                    monkeypatch.setattr(module, attr, counted)
    return calls
