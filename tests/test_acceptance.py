"""Acceptance gate: every criterion runs exactly, with one line per verdict.

All checks are deterministic under the fixed seed and carry zero numerical
tolerance; run with ``pytest -s tests/test_acceptance.py`` to see the lines,
or ``rigidity-forge suite`` for the same corpus from the command line.
Each line is pinned, so a change to what a criterion reports is a visible
edit of ``LINES``.
"""

import pytest

from rigidity_forge.suite import CRITERIA

SEED = 0

LINES = {
    1: "criterion 1: PASS - symbolic determinant identities (4 factorizations: [True, True, True, True])",
    2: "criterion 2: PASS - three-point determinant values (cm3(1,1,1)=-3; 50 collinear patterns vanish)",
    3: "criterion 3: PASS - planar four-point determinant vanishes (500 random planar quadruples)",
    4: "criterion 4: PASS - Kempe instance t=1 against the intersection oracle (all re-derived)",
    5: "criterion 5: PASS - replay suite (division, translation, perpendicularity) ({'division': 8, 'chain': 4, 'kempe': 4})",
    6: "criterion 6: PASS - soundness across the model family (96 gadget x model checks)",
    7: "criterion 7: PASS - negative controls (all rejected)",
    8: "criterion 8: PASS - oracle agreement (1000 collinearity trials; 100 x 4 determinant evaluations)",
    9: "criterion 9: PASS - structural equations on all registered models (5 models x 11 directions)",
}


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda c: c.__name__)
def test_acceptance_criterion(criterion):
    result = criterion(SEED)
    status = "PASS" if result.ok else "FAIL"
    line = f"criterion {result.index}: {status} - {result.name} ({result.detail})"
    print(line)
    assert result.ok, f"criterion {result.index} failed: {result.detail}"
    assert line == LINES[result.index]
