"""Smoke tests: every narrative script under demos/ runs to completion,
and the README's python examples print what the README says."""

import doctest
import glob
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    path_entries = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(p for p in path_entries if p))
    proc = subprocess.run([sys.executable, path], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_examples():
    # the python blocks run in order in one namespace, each without its
    # fences, which doctest would read as expected output
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(),
                            re.DOTALL | re.MULTILINE)
    test = doctest.DocTestParser().get_doctest(
        "".join(blocks), {}, "README.md", "README.md", 0)
    assert len(test.examples) >= 9
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0
