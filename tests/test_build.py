"""The C tick builds itself on first import: once, atomically, only with gcc,
and in the per-user cache where the package directory cannot be written.

Each build test imports a private copy of the package in a fresh
interpreter, so the library built for the test session is never touched.
One test pins what ``import groupform`` loads; the last runs pytest itself
under the project's configuration.
"""

import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import groupform
from groupform.dynamics import _build

PACKAGE = Path(groupform.__file__).parent
IMPORT = "import groupform; print(groupform.__file__)"


def package_copy(tmp_path) -> Path:
    """The package's sources, without any built library, under ``tmp_path``."""
    copy = tmp_path / "groupform"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("_tick_*", "__pycache__"))
    return copy


def start_import(copy: Path, **env) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(copy.parent), **env)
    return subprocess.Popen(
        [sys.executable, "-c", IMPORT], env=env, cwd=copy.parent,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def run_import(copy: Path, **env) -> subprocess.CompletedProcess:
    proc = start_import(copy, **env)
    stdout, stderr = proc.communicate(timeout=60)
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


def built_files(copy: Path) -> list[str]:
    """Names in the copy that are not sources: the library and any leftover."""
    sources = {p.name for p in PACKAGE.iterdir() if p.suffix in (".py", ".c")}
    return sorted(p.name for p in copy.iterdir() if p.name not in sources and p.name != "__pycache__")


def test_first_import_leaves_one_library_and_no_temp_file(tmp_path):
    copy = package_copy(tmp_path)
    done = run_import(copy)
    assert done.returncode == 0, done.stderr
    assert Path(done.stdout.strip()).parent == copy
    (library,) = built_files(copy)
    assert library.startswith("_tick_") and library.endswith(".so")


def test_second_import_runs_no_gcc(tmp_path):
    copy = package_copy(tmp_path)
    assert run_import(copy).returncode == 0
    (library,) = built_files(copy)
    mtime = (copy / library).stat().st_mtime_ns
    no_tools = tmp_path / "empty"
    no_tools.mkdir()
    done = run_import(copy, PATH=str(no_tools))
    assert done.returncode == 0, done.stderr
    assert built_files(copy) == [library]
    assert (copy / library).stat().st_mtime_ns == mtime


def test_concurrent_first_imports_both_succeed(tmp_path):
    copy = package_copy(tmp_path)
    procs = [start_import(copy) for _ in range(2)]
    for proc in procs:
        _, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 0, stderr
    (library,) = built_files(copy)
    assert library.endswith(".so")


def test_import_without_gcc_fails_naming_gcc(tmp_path):
    copy = package_copy(tmp_path)
    no_tools = tmp_path / "empty"
    no_tools.mkdir()
    done = run_import(copy, PATH=str(no_tools))
    assert done.returncode != 0
    assert "ImportError" in done.stderr and "gcc" in done.stderr
    assert built_files(copy) == []


def test_changed_compile_flags_build_a_second_library(tmp_path):
    # no bytecode cache, so the edited dynamics.py is what the second import runs
    copy = package_copy(tmp_path)
    assert run_import(copy, PYTHONDONTWRITEBYTECODE="1").returncode == 0
    (first,) = built_files(copy)
    dynamics = copy / "dynamics.py"
    source = dynamics.read_text()
    assert source.count('"-O2"') == 1
    dynamics.write_text(source.replace('"-O2"', '"-O1"'))
    done = run_import(copy, PYTHONDONTWRITEBYTECODE="1")
    assert done.returncode == 0, done.stderr
    (second,) = set(built_files(copy)) - {first}
    assert second.startswith("_tick_") and second.endswith(".so")
    assert built_files(copy) == [second]


def test_changed_source_builds_a_second_library(tmp_path):
    copy = package_copy(tmp_path)
    assert run_import(copy).returncode == 0
    (first,) = built_files(copy)
    with open(copy / "_tick.c", "a") as source:
        source.write("/* edited */\n")
    done = run_import(copy)
    assert done.returncode == 0, done.stderr
    (second,) = set(built_files(copy)) - {first}
    assert second.startswith("_tick_") and second.endswith(".so")
    assert built_files(copy) == [second]


def unwritable_package_copy(tmp_path) -> Path:
    """A package copy whose library target lies under a regular file, so
    that its directory cannot be written, by root either."""
    copy = package_copy(tmp_path)
    (copy / "not_a_directory").write_text("")
    dynamics = copy / "dynamics.py"
    source = dynamics.read_text()
    assert source.count('_SOURCE.with_name(f"_tick_{build_hash}.so")') == 1
    dynamics.write_text(source.replace(
        '_SOURCE.with_name(f"_tick_{build_hash}.so")',
        '_SOURCE.with_name("not_a_directory") / f"_tick_{build_hash}.so"',
    ))
    return copy


@pytest.mark.parametrize(
    "xdg_cache_home, cache", [("cache", "cache/groupform"), ("", "home/.cache/groupform")], ids=["XDG_CACHE_HOME", "HOME"],
)
def test_unwritable_package_builds_into_the_user_cache(tmp_path, xdg_cache_home, cache):
    copy = unwritable_package_copy(tmp_path)
    env = dict(XDG_CACHE_HOME=xdg_cache_home and str(tmp_path / xdg_cache_home), HOME=str(tmp_path / "home"))
    cache = tmp_path / cache
    done = run_import(copy, **env)
    assert done.returncode == 0, done.stderr
    (library,) = os.listdir(cache)
    assert library.startswith("_tick_") and library.endswith(".so")
    assert built_files(copy) == ["not_a_directory"]
    # the next import loads the cached library and runs no gcc
    mtime = (cache / library).stat().st_mtime_ns
    no_tools = tmp_path / "empty"
    no_tools.mkdir()
    done = run_import(copy, PATH=str(no_tools), **env)
    assert done.returncode == 0, done.stderr
    assert os.listdir(cache) == [library]
    assert (cache / library).stat().st_mtime_ns == mtime


def test_unwritable_package_and_cache_is_an_import_error_naming_both(tmp_path):
    copy = unwritable_package_copy(tmp_path)
    not_a_cache = tmp_path / "file"
    not_a_cache.write_text("")
    done = run_import(copy, XDG_CACHE_HOME=str(not_a_cache))
    assert done.returncode != 0
    assert "ImportError: cannot build _tick_" in done.stderr
    assert f"in {copy / 'not_a_directory'}: " in done.stderr
    assert f"in {not_a_cache / 'groupform'}: " in done.stderr


def test_unwritable_target_is_an_import_error_naming_its_directory(tmp_path):
    # a directory path under a regular file cannot be written, by root either
    not_a_directory = tmp_path / "file"
    not_a_directory.write_text("")
    with pytest.raises(ImportError, match=r"cannot build _tick_0123456789abcdef\.so in ") as info:
        _build(not_a_directory / "_tick_0123456789abcdef.so")
    assert str(not_a_directory) in str(info.value)
    assert isinstance(info.value.__cause__, NotADirectoryError)


# what ``import groupform`` adds to a numpy process, then the pool it loads
# only when a run asks for two workers
IMPORT_SET = textwrap.dedent("""
    import sys
    import numpy

    before = set(sys.modules)
    import groupform
    print(" ".join(sorted(set(sys.modules) - before)))

    job = groupform.Job([((30,), 0.7, 3), ((4, 5), 0.9, 4)], 40, 5)
    assert groupform.sample_points(job, workers=2) == groupform.sample_points(job, workers=1)
""")


def test_import_loads_no_pool_json_or_openssl():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", IMPORT_SET], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "groupform.montecarlo" in loaded
    # the benchmark imports only the package, so edits to the CLI and check layers stay out of its process
    assert loaded.isdisjoint({"groupform.cli", "groupform.verify"}), loaded
    assert loaded.isdisjoint({"multiprocessing", "socket", "selectors", "signal", "json", "hashlib", "_hashlib"}), loaded


# step against step_oracle on seeded states, the displacement near 2**63 and
# a merge above 2**63 - 1, run by the package copy under test
UNDER_SANITIZER = textwrap.dedent("""
    import numpy as np
    from groupform import LatticeState, TorusShape, step, step_oracle
    from groupform.dynamics import _COMPILE, tick_kernel

    assert "-fsanitize=undefined" in _COMPILE
    rng = np.random.default_rng(2026)
    for k in range(300):
        dims = tuple(int(d) for d in (rng.integers(3, 13, 1) if k % 2 else rng.integers(3, 7, 2)))
        values = rng.integers(0, 5, dims)
        if k % 10 == 0:  # one group near 2**63 and one unit group
            values[:] = 0
            values.flat[rng.choice(values.size, 2, replace=False)] = (2**63 - 2, 1)
        state = LatticeState(TorusShape(dims), values)
        assert step(state) == step_oracle(state), (dims, values.tolist())
    x = 2**62 + 3
    try:
        tick_kernel(TorusShape((5,)))(np.array([x, x, 0, 0, 0], dtype=np.int64))
    except OverflowError:
        pass
    else:
        raise AssertionError("a merge above 2**63 - 1 did not overflow")
""")


def test_tick_runs_clean_under_undefined_behaviour_sanitizer(tmp_path):
    # the added flags change the library's name, so this builds its own
    copy = package_copy(tmp_path)
    dynamics = copy / "dynamics.py"
    source = dynamics.read_text()
    assert source.count('"-fPIC")') == 1
    dynamics.write_text(source.replace('"-fPIC")', '"-fPIC", "-fsanitize=undefined", "-fno-sanitize-recover=undefined")'))
    env = dict(os.environ, PYTHONPATH=str(copy.parent), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", UNDER_SANITIZER], env=env, cwd=copy.parent,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "runtime error" not in done.stderr


FAILING_PROPERTY = textwrap.dedent("""
    from hypothesis import given, strategies as st


    @given(st.integers())
    def test_fails(n):
        assert n < 0
""")


def test_failing_hypothesis_test_is_reported_not_an_internal_error(tmp_path):
    # the project's warnings-as-errors filter must survive hypothesis's report
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(pyproject), "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr
