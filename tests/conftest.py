"""Pytest wiring: per-criterion summary lines for the acceptance suite."""

import pytest

_RESULTS: dict[str, bool] = {}
_SUMMARY: list[str] = []  # the "summary" properties acceptance tests record


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(name): tag a test as part of a named acceptance criterion"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when != "call":
        return
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    name = marker.args[0]
    _RESULTS[name] = _RESULTS.get(name, True) and rep.passed
    _SUMMARY.extend(value for key, value in item.user_properties if key == "summary")


def pytest_terminal_summary(terminalreporter):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_RESULTS):
        status = "PASS" if _RESULTS[name] else "FAIL"
        terminalreporter.write_line(f"{status}  criterion {name}")
    for line in _SUMMARY:
        terminalreporter.write_line(line)
