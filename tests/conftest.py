import sys

# session fixtures of tests/test_acceptance.py that train whole model
# families; the criteria using them take most of the suite's wall time
FAMILY_FIXTURES = ("reversal_family", "duplication_family")


def pytest_collection_modifyitems(session, config, items):
    """Run the acceptance criteria after the unit suites, and the criteria
    that train model families last, so a time-limited run reports every
    cheaper test before it starts the longest ones."""
    def cost(item):
        if item.module.__name__.rpartition(".")[2] != "test_acceptance":
            return 0
        uses_family = any(f in getattr(item, "fixturenames", ())
                          for f in FAMILY_FIXTURES)
        return 2 if uses_family else 1

    items.sort(key=cost)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the acceptance criterion verdict lines where they are visible
    even though pytest captures stdout during the tests themselves."""
    for name, mod in list(sys.modules.items()):
        if name.rpartition(".")[2] == "test_acceptance":
            lines = getattr(mod, "REPORT_LINES", [])
            if lines:
                terminalreporter.section("acceptance criteria")
                for line in lines:
                    terminalreporter.write_line(line)
