"""Run the non-acceptance suite under every local CPython that can import pytest.

A local stand-in for a CI version matrix, with no download: the interpreter
that runs this script lends its site-packages (pytest and the test extra) to
each other CPython through PYTHONPATH, next to src/. Each runs with -S, so
its own site-packages stay out: a pytest plugin installed there would load
and can fail on the lent packages. Interpreters are looked up by name
(python3, python3.10 and up) in every PATH directory and under pyenv's
versions directory, counted once per real executable, and kept if they meet
the package's requires-python. Prints one line per interpreter: its version,
then the passed, failed and skipped counts of `pytest -m "not acceptance"
-q`, or "cannot import pytest".

    python tests/local_interpreters.py

pytest does not collect this file.
"""

import glob
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TIMEOUT_S = 1800    # per interpreter; the fast suite takes about 30 s on 2 cores
PROBE = ("import os, platform, sys; "
         "print(platform.python_implementation(), os.path.realpath(sys.executable), *sys.version_info[:3])")


def candidates() -> list[str]:
    names = ["python3"] + [f"python3.{minor}" for minor in range(10, 16)]
    found = [os.path.join(folder, name) for folder in os.environ.get("PATH", "").split(os.pathsep) if folder
             for name in names]
    pyenv = os.environ.get("PYENV_ROOT", os.path.expanduser("~/.pyenv"))
    found += sorted(glob.glob(os.path.join(pyenv, "versions", "*", "bin", "python3")))
    return [sys.executable] + [path for path in found if os.access(path, os.X_OK)]


def interpreters(least: tuple[int, ...]) -> list[tuple[tuple[int, ...], str]]:
    """(version, real executable) of each distinct CPython at or above least, by version."""
    seen = {}
    for path in candidates():
        try:
            done = subprocess.run([path, "-c", PROBE], capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        words = done.stdout.split()
        if done.returncode == 0 and len(words) == 5 and words[0] == "CPython":
            version = tuple(map(int, words[2:]))
            if version >= least:
                seen[words[1]] = version
    return sorted((version, path) for path, version in seen.items())


def main() -> int:
    requires = re.search(r'requires-python = ">=([\d.]+)"', (ROOT / "pyproject.toml").read_text()).group(1)
    site = str(pathlib.Path(pytest.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), site])}
    for version, path in interpreters(tuple(map(int, requires.split(".")))):
        name = ".".join(map(str, version))
        if subprocess.run([path, "-S", "-c", "import pytest"], env=env, capture_output=True).returncode:
            print(f"{name}: cannot import pytest", flush=True)
            continue
        try:
            done = subprocess.run([path, "-S", "-m", "pytest", "-m", "not acceptance", "-q", "-p", "no:cacheprovider"],
                                  cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"{name}: timed out after {TIMEOUT_S} s", flush=True)
            continue
        summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
        counts = {word: int(number) for number, word in re.findall(r"(\d+) (passed|failed|skipped|errors?)", summary)}
        if not counts:
            print(f"{name}: pytest exited {done.returncode} with no counts", flush=True)
            continue
        errors = counts.get("error", 0) + counts.get("errors", 0)
        print(f"{name}: {counts.get('passed', 0)} passed, {counts.get('failed', 0)} failed, "
              f"{counts.get('skipped', 0)} skipped" + (f", {errors} errors" if errors else ""), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
