"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The checks live once, in `gravitunnel.checks`; each test runs one
criterion's checks at their full inputs (``gravitunnel verify`` runs the
same checks at reduced inputs), so a check registered there runs here
too.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines
as the criteria execute.
"""

import pytest

from gravitunnel import checks

# criteria whose full inputs run the bead simulator
BEAD_BOUND = {6, 8}


def _criterion_test(number, title):
    def test():
        records = checks.run("full", criterion=number)
        passed = bool(records) and all(r.passed for r in records)
        line = (f"ACCEPTANCE {number:02d} {title}: "
                f"{'PASS' if passed else 'FAIL'} "
                f"({'; '.join(r.detail for r in records)})")
        print(line)
        assert passed, line
    return test


for _number, _title in checks.CRITERIA.items():
    _name = f"test_criterion_{_number:02d}_{_title.replace('-', '_')}"
    _test = _criterion_test(_number, _title)
    _test.__name__ = _name
    globals()[_name] = pytest.mark.slow(_test) if _number in BEAD_BOUND else _test
