"""Every example script loads against the current package.

Nothing else imports ``examples/*.py``, so an example that still names a
deleted API would break with the rest of the suite green.  Each script
is loaded by path; its ``main()`` (guarded by ``__name__``) is not run.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


def test_examples_are_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_loads(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
