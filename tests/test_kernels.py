"""Backend agreement: the compiled kernels must match the pure reference.

The compiled tests build the committed ``_fast.c`` into a temporary
directory (never into the source tree, which would switch every later run
to the compiled backend) and skip where no C compiler or ``Python.h`` is
available.
"""

import importlib.util
import os
import pathlib
import shutil
import subprocess
import sys
import sysconfig

import pytest

from higgsres._kernels import pure
from higgsres.solver import SeedStream

PACKAGE = pathlib.Path(pure.__file__).resolve().parent.parent
FAST_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX")


@pytest.fixture(scope="session")
def fast_so(tmp_path_factory):
    """Path of the compiled kernel module built from ``_fast.c``."""
    compiler = shutil.which("cc") or shutil.which("gcc")
    include = pathlib.Path(sysconfig.get_paths()["include"])
    if compiler is None or not (include / "Python.h").is_file():
        pytest.skip("no C compiler or Python.h to build the compiled kernels")
    so = tmp_path_factory.mktemp("fast") / f"_fast{FAST_SUFFIX}"
    build = subprocess.run(
        [compiler, "-O0", "-shared", "-fPIC", f"-I{include}",
         str(PACKAGE / "_kernels" / "_fast.c"), "-o", str(so)],
        capture_output=True,
    )
    if build.returncode != 0:
        pytest.skip(f"building _fast.c failed: {build.stderr.decode()[-300:]}")
    return so


@pytest.fixture(scope="session")
def _fast(fast_so):
    spec = importlib.util.spec_from_file_location("higgsres._kernels._fast", fast_so)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.BACKEND == "compiled"
    return module


def _random_triple(rng):
    return pure.gq_norm(rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(1, 12))


def _random_poly(rng, max_len=6):
    return pure.p_norm([_random_triple(rng) for _ in range(rng.randint(0, max_len))])


def test_scalar_ops_agree(_fast):
    rng = SeedStream("kernel-scalars")
    for _ in range(300):
        x, y = _random_triple(rng), _random_triple(rng)
        assert pure.gq_add(x, y) == _fast.gq_add(x, y)
        assert pure.gq_sub(x, y) == _fast.gq_sub(x, y)
        assert pure.gq_mul(x, y) == _fast.gq_mul(x, y)
        if not pure.gq_is_zero(y):
            assert pure.gq_div(x, y) == _fast.gq_div(x, y)
        if not pure.gq_is_zero(x):
            assert pure.gq_inv(x) == _fast.gq_inv(x)


def test_poly_ops_agree(_fast):
    rng = SeedStream("kernel-polys")
    for _ in range(120):
        p, q = _random_poly(rng), _random_poly(rng)
        assert pure.p_add(p, q) == _fast.p_add(p, q)
        assert pure.p_sub(p, q) == _fast.p_sub(p, q)
        assert pure.p_mul(p, q) == _fast.p_mul(p, q)
        if q:
            assert pure.p_divmod(p, q) == _fast.p_divmod(p, q)
            assert pure.p_gcd(p, q) == _fast.p_gcd(p, q)
        t = _random_triple(rng)
        assert pure.p_shift(p, t) == _fast.p_shift(p, t)
        assert pure.p_eval(p, t) == _fast.p_eval(p, t)
        if q and not pure.gq_is_zero(q[0]):
            n = rng.randint(1, 6)
            assert pure.p_series_div(p, q, n) == _fast.p_series_div(p, q, n)


def test_echelon_agrees_and_is_sound(_fast):
    rng = SeedStream("kernel-echelon")
    for _ in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(2, 6)
        npivot = rng.randint(1, ncols)  # trailing columns carried along
        rows = [
            [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        rows_pure = [list(r) for r in rows]
        rows_fast = [list(r) for r in rows]
        piv_pure = pure.zi_echelon(rows_pure, npivot)
        piv_fast = _fast.zi_echelon(rows_fast, npivot)
        assert piv_pure == piv_fast
        assert rows_pure == rows_fast
        # echelon shape: below each pivot the column is zero
        for r, c in piv_pure:
            assert c < npivot
            for i in range(r + 1, nrows):
                assert rows_pure[i][c] == (0, 0)


def test_pure_divexact_round_trip():
    rng = SeedStream("kernel-divexact")
    for _ in range(100):
        x = (rng.randint(-30, 30), rng.randint(-30, 30))
        y = (rng.randint(-9, 9), rng.randint(-9, 9))
        if y == (0, 0):
            continue
        prod = pure.zi_mul(x, y)
        assert pure.zi_divexact(prod, y) == x


def test_backends_produce_identical_reports(fixtures_dir, fast_so, tmp_path):
    # the CLI run from two copies of the package: one with the compiled
    # module beside pure.py, one without it
    def package_copy(name, so=None):
        root = tmp_path / name
        shutil.copytree(PACKAGE, root / "higgsres", ignore=shutil.ignore_patterns("__pycache__", "*.so"))
        if so is not None:
            shutil.copy(so, root / "higgsres" / "_kernels" / so.name)
        return dict(os.environ, PYTHONPATH=str(root))

    script = (
        "import sys, higgsres, higgsres.cli; print(higgsres.KERNEL_BACKEND); "
        "sys.exit(higgsres.cli.main(sys.argv[1:]))"
    )
    cmd = [
        sys.executable,
        "-c",
        script,
        "random-suite",
        str(fixtures_dir / "f1.json"),
        "--seed",
        "9",
        "--trials",
        "3",
        "--format",
        "json",
    ]
    compiled = subprocess.run(cmd, capture_output=True, check=True, env=package_copy("compiled", fast_so))
    fallback = subprocess.run(cmd, capture_output=True, check=True, env=package_copy("pure"))
    backend, report = compiled.stdout.split(b"\n", 1)
    assert backend == b"compiled"
    assert fallback.stdout == b"pure\n" + report
