"""The package's public export list."""

import subprocess
import sys
from pathlib import Path

import milnor_mu

SRC_PATH = Path(__file__).resolve().parent.parent / "src"


def test_every_export_resolves_once_in_sorted_order():
    names = milnor_mu.__all__
    assert [name for name in names if not hasattr(milnor_mu, name)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def test_the_value_sets_built_on_first_read_are_the_quotient_module_s(monkeypatch):
    # drop any value set built so far, so that the reads below build it
    for name in ("MU_RP7", "MU_RP7_SUM_14M2"):
        monkeypatch.delattr(milnor_mu.quotient, name, raising=False)
        first = getattr(milnor_mu, name)
        assert first is getattr(milnor_mu, name) is getattr(milnor_mu.quotient, name)
        assert first is vars(milnor_mu.quotient)[name]


def test_dir_lists_the_value_sets_before_their_first_read():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import milnor_mu; "
            "print(*[name for name in milnor_mu.__all__ if name not in dir(milnor_mu)], "
            "'MU_RP7' in dir(milnor_mu.quotient), 'fractions' in sys.modules)")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(SRC_PATH)],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout == "True False\n"


def test_a_star_import_binds_every_export():
    namespace = {}
    exec("from milnor_mu import *", namespace)
    assert [name for name in milnor_mu.__all__ if name not in namespace] == []
    assert namespace["MU_RP7"] is milnor_mu.quotient.MU_RP7
