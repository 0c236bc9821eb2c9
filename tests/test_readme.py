import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    # the README's python block is written as a doctest, so its outputs
    # are checked too
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted > 0 and failed == 0
