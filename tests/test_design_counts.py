"""The unreached-names row of `scripts/design_counts.py` on a tiny source tree."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "design_counts", Path(__file__).resolve().parents[1] / "scripts" / "design_counts.py")
design_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(design_counts)

MODULE = '''
__all__ = ["entry", "deep", "tabled", "orphan", "read_by_orphan", "recursive"]


def entry():
    return _helper()


def _helper():
    return deep()


def deep():
    return 1


def tabled():
    return 2


TABLE = (tabled,)


def orphan():
    return read_by_orphan()


def read_by_orphan():
    return 3


def recursive(n):
    return recursive(n - 1) if n else 0
'''


def test_a_name_read_only_by_unreached_code_is_unreached(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text(MODULE)
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "run.py").write_text("from pkg.mod import entry\nentry()\n")
    # a test reads everything, and reaches nothing
    (tmp_path / "scripts" / "test_run.py").write_text(
        "from pkg import mod\nmod.orphan(), mod.recursive(2)\n")
    # entry from a script, deep through entry's private helper, tabled from
    # module-level code; orphan is read by no one, read_by_orphan only by
    # orphan, recursive only by itself
    assert design_counts.unreached_names(tmp_path) == ["orphan", "read_by_orphan", "recursive"]
