"""The C tick builds itself on first import: once, atomically, and only with gcc.

Each test imports a private copy of the package in a fresh interpreter, so
the library built for the test session is never touched.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import groupform

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
