# keeps the tests directory importable (oracles.py, corpus.py, sectors.py helpers)
# and holds the fixtures that more than one test module uses

import pytest

from flyqsim import fock


@pytest.fixture(params=["rows", "elements"])
def path(request, monkeypatch):
    """Every coupler in partner form, or every one by position updates:
    ``fock.apply_mode_unitaries`` uses partner rows on a sector of 2 to
    ``fock._MAX_ROW_MASKS`` masks."""
    monkeypatch.setattr(fock, "_MAX_ROW_MASKS",
                        1 << 30 if request.param == "rows" else 1)
    return request.param
