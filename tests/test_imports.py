"""numpy, argparse, locale, importlib.resources and hashlib stay off the
start-up path.

Importing ``contactgeo.cli`` must not load numpy, and neither may the
commands whose spectra are integer and exact and whose fits are exact.
None of them, and no usage error, loads argparse or locale (which
argparse's gettext imports to translate its first message): the command
line is read from one option table. Nor does any of them load
importlib.resources: the bundled fixtures are found by path. Nor does any
of them load hashlib, whose _hashlib maps OpenSSL's libcrypto: the
manifest digest comes from the interpreter's own SHA-256.

Each case runs in a fresh interpreter, since the test process may have
loaded numpy already. A float least-squares fit is the positive control:
it does load numpy, and ``import hashlib`` loads _hashlib. The
importlib.resources and hashlib cases run with ``-I -S``, so that no site
hook or environment variable loads them first and masks a regression;
each of them checks all three modules.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

LOADED = "print(*(name in sys.modules for name in ('numpy', 'argparse', 'locale')))"

# runs main on the arguments; prints its exit code, and what main wrote to
# stderr stays on the process's stderr
RUN = """
import contextlib, io, sys
from contactgeo.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(sys.argv[1:])
print(rc)
"""
RUN_MAIN = RUN + LOADED


def _python(code, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_import_cli_loads_no_numpy():
    assert _python("import sys, contactgeo.cli\n" + LOADED) == ["False"] * 3


@pytest.mark.parametrize("argv, rc", [
    # example3 has the constant non-zero h' with spectrum {-1, 0, 1}
    (["check", "example3"], "1"),
    (["check", "example1"], "1"),
    (["tables", "example3", "--what", "h"], "0"),
    (["soliton", "example1", "--solve"], "0"),
    (["check", "example1", "--bogus"], "2"),
])
def test_commands_load_no_numpy(argv, rc):
    assert _python(RUN_MAIN, *argv) == [rc] + ["False"] * 3


def test_float_fit_loads_numpy():
    code = """
import sys
from contactgeo.lstsq import solve_least_squares
assert 'numpy' not in sys.modules
fit = solve_least_squares([(1.0,), (1.0,)], [0.5, 1.5])
print(isinstance(fit[0], float), abs(fit[0] - 1.0) < 1e-12, 'numpy' in sys.modules)
"""
    assert _python(code) == ["True", "True", "True"]


# -I ignores PYTHONPATH, so the code puts src (its first argument) on sys.path,
# and PYTHONDONTWRITEBYTECODE, so -B keeps the children from writing bytecode
# into src
ON_PATH = "import sys\nsys.path.insert(0, sys.argv.pop(1))\n"
ISOLATED_LOADED = ("print(*(name in sys.modules for name in "
                   "('importlib.resources', 'hashlib', '_hashlib')))")
NONE_LOADED = ["False"] * 3

RUN_MAIN_ISOLATED = ON_PATH + RUN + ISOLATED_LOADED


def _isolated(code, *argv):
    return subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code, SRC, *argv],
                          capture_output=True, text=True, timeout=120)


def test_import_cli_loads_no_importlib_resources():
    out = _isolated(ON_PATH + "import contactgeo.cli\n" + ISOLATED_LOADED)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == NONE_LOADED


@pytest.mark.parametrize("argv", [
    ["check", "example2"],
    ["tables", "example3", "--what", "h"],
])
def test_fixture_commands_load_no_importlib_resources(argv):
    out = _isolated(RUN_MAIN_ISOLATED, *argv)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0"] + NONE_LOADED


def test_unknown_fixture_lists_the_bundled_names_without_importlib_resources():
    out = _isolated(RUN_MAIN_ISOLATED, "check", "nosuch")
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["2"] + NONE_LOADED
    assert ("(bundled: eta_einstein, example1, example2, example3, flat)"
            in out.stderr)


def test_hashlib_loads_openssl():
    # the positive control: the same kind of interpreter does show _hashlib
    out = _isolated(ON_PATH + "import contactgeo.cli, hashlib\n" + ISOLATED_LOADED)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "True", "True"]


def test_digest_falls_back_to_hashlib():
    # an interpreter built without its own SHA-256 takes hashlib's, and the
    # digest is the same
    code = ON_PATH + """
import hashlib, os
sys.modules['_sha2'] = sys.modules['_sha256'] = None  # their imports now fail
from contactgeo import manifest
with open(os.path.join(manifest.FIXTURES, 'example2.json'), 'rb') as fh:
    raw = fh.read()
print(manifest.sha256 is hashlib.sha256,
      manifest.resolve('example2').sha256 == hashlib.sha256(raw).hexdigest())
"""
    out = _isolated(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True", "True"]
