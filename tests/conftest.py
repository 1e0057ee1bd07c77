"""Shared pytest plumbing: the acceptance report and the replay margins.

Acceptance tests carry a `criterion(number, label)` marker; after the run
one PASS/FAIL line per criterion is printed so the gate can be read at a
glance without scanning the full pytest output.  The full reference
replay records, per stored group, the worst fraction of its tolerance
that any value used; after the run one `margin` line per group is
printed, so a change that moves floats on purpose shows how close it came.
"""

import pytest

_RESULTS: dict[int, list] = {}
_MARGINS: dict[str, float] = {}


@pytest.fixture(scope="session")
def tolerance_margins() -> dict[str, float]:
    """Stored group -> worst fraction of its tolerance, reported at the end."""
    return _MARGINS


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(number, label): acceptance criterion this test enforces")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    number, label = marker.args
    entry = _RESULTS.setdefault(number, [label, True])
    if report.when == "call":
        entry[1] = entry[1] and report.passed
    elif report.failed:
        entry[1] = False


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _MARGINS:
        terminalreporter.section("reference tolerance margins")
        for group, fraction in _MARGINS.items():
            terminalreporter.write_line(
                f"margin {group}: {fraction:.3g} of the stored tolerance")
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_RESULTS):
        label, passed = _RESULTS[number]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[{verdict}] criterion {number}: {label}")
