"""Shared pytest plumbing: the acceptance suite registers one summary line
per criterion and the hook below prints them after the run, and the
fixtures that more than one test module uses."""

import pytest

ACCEPTANCE_RESULTS = []  # (number, passed, description)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num, ok, desc in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(
            f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}"
        )


@pytest.fixture
def sweeps(monkeypatch):
    """One entry per call of wlp.restriction, whoever makes it: the ideal and
    the widths of the rows that its sweep gave a fraction-free step."""
    from gtsystems import cli, wlp

    calls = []
    real_restriction, real_step = wlp.restriction, wlp.fraction_free_step

    def restriction(ideal):
        calls.append((ideal, []))
        return real_restriction(ideal)

    def step(row, *args):
        calls[-1][1].append(len(row))
        return real_step(row, *args)

    for module in (wlp, cli):
        monkeypatch.setattr(module, "restriction", restriction)
    monkeypatch.setattr(wlp, "fraction_free_step", step)
    return calls


@pytest.fixture
def fresh_memos():
    """The memo kept between calls, cli._d_sections (report's sections that
    depend on d alone), empty at the start and at the end of the test.  The
    fixture is the function that empties it, for a cold call in the middle
    of a test."""
    from gtsystems import cli

    clear = cli._d_sections.cache_clear
    clear()
    yield clear
    clear()
