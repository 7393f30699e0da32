"""Build the optional mypyc-compiled core (``REPRO_BACKEND=compiled``).

Compiles the hot modules — the event kernel, the protocol message class, and
the cache models — into C extensions with mypyc, placing the shared objects
next to their sources so Python's import machinery prefers them
transparently.  The pure-Python tree stays byte-identical and remains the
default backend; both backends expose the same API and produce the same
golden hashes (CI's ``compiled-backend`` job re-runs the tier-1 suite and
the golden matrix against the extensions).

Usage::

    python scripts/build_compiled.py            # build in place (skips
                                                # with status 0 if mypyc is
                                                # not installed)
    python scripts/build_compiled.py --require  # exit 2 when mypyc missing
    python scripts/build_compiled.py --clean    # remove built extensions
    python scripts/build_compiled.py --check    # report backend status
    python scripts/build_compiled.py --wheel dist/
                                                # also package the built
                                                # extensions as a wheel
                                                # (requires the ``wheel``
                                                # package; CI uploads it)

mypyc needs the ``mypy`` package (``pip install 'repro[compiled]'`` pulls
it in); no other dependency is added.  The refcount-proof recycling layer
(the ``repro.sim.engine`` event pools) detects the compiled environment
via ``__file__`` and disables itself — CPython ``getrefcount`` semantics
do not hold for mypyc objects — so correctness never depends on the
interpreter.
"""

from __future__ import annotations

import argparse
import glob
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Optional

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

#: Sources compiled into extensions, relative to ``src/`` — keep in sync
#: with ``repro.harness.envopts.COMPILED_MODULES``.
TARGETS = [
    os.path.join("repro", "sim", "engine.py"),
    os.path.join("repro", "protocol", "messages.py"),
    os.path.join("repro", "caches", "setassoc.py"),
    os.path.join("repro", "caches", "mshr.py"),
]

_SETUP_TEMPLATE = """\
from setuptools import setup
from mypyc.build import mypycify

setup(
    name="repro-compiled-core",
    ext_modules=mypycify(
        {targets!r},
        opt_level="3",
        # The tree type-checks under mypy's default (non-strict) settings;
        # anything mypyc cannot type stays interpreted via the C API, which
        # is still far faster than CPython bytecode for the hot loops.
        strip_asserts=False,
    ),
)
"""


def built_extensions() -> list:
    """Extension files previously produced for the target modules."""
    found = []
    for target in TARGETS:
        stem = os.path.join(SRC, target[:-3])
        found.extend(glob.glob(stem + ".*.so") + glob.glob(stem + ".*.pyd"))
    return sorted(found)


def clean() -> int:
    removed = built_extensions()
    for path in removed:
        os.remove(path)
        print(f"removed {os.path.relpath(path, REPO)}")
    # mypyc support shims land alongside the package as <hash>__mypyc.*.
    for shim in glob.glob(os.path.join(SRC, "*__mypyc*.so")) + \
            glob.glob(os.path.join(SRC, "repro", "*__mypyc*.so")):
        os.remove(shim)
        print(f"removed {os.path.relpath(shim, REPO)}")
    if not removed:
        print("nothing to clean")
    return 0


def check() -> int:
    """Report which target modules would import compiled right now."""
    sys.path.insert(0, SRC)
    import importlib

    status = 0
    for target in TARGETS:
        name = target[:-3].replace(os.sep, ".")
        module = importlib.import_module(name)
        source = getattr(module, "__file__", "") or ""
        compiled = not source.endswith(".py")
        print(f"{'compiled' if compiled else 'python  '}  {name}")
        if not compiled:
            status = 1
    return status


def build(require: bool, wheel_dir: Optional[str] = None) -> int:
    try:
        import mypyc  # noqa: F401  (presence check only)
    except ImportError:
        print("mypyc is not installed; skipping compiled-backend build "
              "(pip install 'repro[compiled]' to enable)")
        return 2 if require else 0
    setup_src = _SETUP_TEMPLATE.format(targets=TARGETS)
    workdir = tempfile.mkdtemp(prefix="repro-mypyc-")
    setup_path = os.path.join(workdir, "setup_mypyc.py")
    with open(setup_path, "w") as fh:
        fh.write(setup_src)
    commands = [["build_ext", "--inplace"]]
    if wheel_dir is not None:
        commands.append(
            ["bdist_wheel", "--dist-dir", os.path.abspath(wheel_dir)])
    try:
        # Run from src/ so the extension paths mirror the package layout and
        # --inplace drops each .so next to its .py source.
        for command in commands:
            proc = subprocess.run([sys.executable, setup_path] + command,
                                  cwd=SRC)
            if proc.returncode != 0:
                print(f"mypyc {command[0]} failed", file=sys.stderr)
                return proc.returncode
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for path in built_extensions():
        print(f"built {os.path.relpath(path, REPO)}")
    if wheel_dir is not None:
        for name in sorted(os.listdir(wheel_dir)):
            if name.endswith(".whl"):
                print(f"wheel {os.path.join(wheel_dir, name)}")
    print("verify with: REPRO_BACKEND=compiled PYTHONPATH=src "
          "python -m pytest -x -q")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--require", action="store_true",
                        help="exit 2 instead of skipping when mypyc is "
                             "not installed")
    parser.add_argument("--clean", action="store_true",
                        help="remove previously built extensions")
    parser.add_argument("--check", action="store_true",
                        help="report compiled/python status per module")
    parser.add_argument("--wheel", metavar="DIR", default=None,
                        help="additionally package the extensions as a"
                             " wheel into DIR")
    args = parser.parse_args()
    if args.clean:
        return clean()
    if args.check:
        return check()
    return build(args.require, args.wheel)


if __name__ == "__main__":
    raise SystemExit(main())
