"""Every script in demos/ still runs against the package.

The demos import public names and print their results; nothing else calls
them, so a renamed or moved function would otherwise break them silently.
Each runs in a child interpreter with the checkout's src/ on PYTHONPATH,
from a temporary directory, and must exit 0.
"""

import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_demos_exit_zero(tmp_path):
    assert DEMOS, "no demos/*.py found"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"),
                                                      env.get("PYTHONPATH")]))
    for demo in DEMOS:
        cwd = tmp_path / demo.stem
        cwd.mkdir()
        child = subprocess.run([sys.executable, str(demo)], env=env, cwd=cwd,
                               capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, f"{demo.name} exited {child.returncode}:\n{child.stderr}"
        assert not any(cwd.iterdir()), f"{demo.name} wrote files into its working directory"
