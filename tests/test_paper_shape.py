"""The paper's claims, one test per row of
:data:`repro.validate.claims.CLAIMS` — the rows ``runner run claims``
judges, run here through the same ``claims`` sweep, in-process and
without a store.  Tier 2: ~11 min serial.
"""

import pytest

from repro.runner.cli import format_table
from repro.runner.sweeps import SWEEPS
from repro.validate.claims import CLAIMS, Verdict, verdict_table

pytestmark = pytest.mark.tier2


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_paper_shape(claim):
    verdict, = SWEEPS["claims"].run(claims=(claim.id,))
    failed = Verdict(verdict.claim, verdict.figure, verdict.failures())
    assert verdict.passed, format_table(*verdict_table([failed]))
