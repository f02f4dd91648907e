from hypothesis import settings

from _acceptance_log import LINES

# Every failing property test prints the @reproduce_failure line that
# replays its draw; the seed and example counts stay each test's own.
settings.register_profile("print-blob", print_blob=True)
settings.load_profile("print-blob")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdicts in the run summary, pass or fail."""
    if LINES:
        terminalreporter.section("acceptance criteria")
        for line in LINES:
            terminalreporter.write_line(line)
