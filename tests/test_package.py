"""The package namespace resolves lazily, and each catalog name list has one source."""

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symtensor
from symtensor import catalog, groups, verification
from symtensor.cli import main
from symtensor.spaces import SPACES

HERE = Path(__file__).resolve().parent
SRC = str(HERE.parent / "src")

# every exported name, by home module
EXPORTS = {
    "core": ("FlatOperator", "FlatTensor", "SnappedValue", "act", "image_basis", "kron_power",
             "rational_snap"),
    "groups": ("GroupElement", "QuadratureRule", "SymmetryGroup", "closure_check", "haar_rule",
               "integrate", "resolve_group"),
    "spaces": ("SPACES", "TensorSpace", "membership_residual", "symmetrize"),
    "characters": ("character_closed_form", "character_direct", "fix_dimension"),
    "projector": ("StructureEntry", "StructureReport", "averaged_projector",
                  "extract_isotropic_moduli", "isotropic_nine_matrix", "moduli_from_matrix",
                  "project", "structure_report"),
    "voigt": ("anti", "axl", "induced_matrix"),
}


def fresh(code: str) -> str:
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestLazyExports:
    def test_import_loads_no_submodule_and_no_numpy(self):
        out = fresh("import sys, symtensor; "
                    "print(sorted(m for m in sys.modules "
                    "if m == 'numpy' or m.startswith('symtensor.')))")
        assert out.strip() == "[]"

    def test_cli_import_loads_no_numpy(self):
        assert fresh("import sys, symtensor.cli; print('numpy' in sys.modules)").strip() == "False"

    @pytest.mark.parametrize("home", list(EXPORTS))
    def test_names_are_their_home_objects(self, home):
        module = importlib.import_module(f"symtensor.{home}")
        for name in EXPORTS[home]:
            assert getattr(symtensor, name) is getattr(module, name), name

    def test_all_and_dir(self):
        names = {name for names in EXPORTS.values() for name in names}
        assert len(names) == 32 and set(symtensor.__all__) == names
        assert names <= set(dir(symtensor)) and "__version__" in dir(symtensor)
        assert symtensor.__version__ == "0.1.0"

    def test_moduli_function_has_one_home(self):
        from symtensor import projector
        assert symtensor.extract_isotropic_moduli is projector.extract_isotropic_moduli
        assert projector.extract_isotropic_moduli is catalog.extract_isotropic_moduli

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
            getattr(symtensor, "nonexistent")
        assert not hasattr(symtensor, "nonexistent")

    def test_star_and_submodule_imports(self):
        out = fresh("from symtensor import *\n"
                    "from symtensor import verification\n"
                    "import symtensor\n"
                    "assert all(name in globals() for name in symtensor.__all__)\n"
                    "print(len(symtensor.__all__), verification.__name__)")
        assert out.split() == ["32", "symtensor.verification"]


class TestSingleSourcedNames:
    def test_space_names(self):
        from symtensor import spaces
        assert tuple(SPACES) == catalog.SPACE_NAMES
        assert spaces.CATALOG_NAMES is catalog.SPACE_NAMES

    def test_group_names(self):
        assert groups.GROUPS_2D is catalog.GROUPS_2D
        assert groups.GROUPS_3D is catalog.GROUPS_3D

    def test_row_categories(self):
        assert verification.ROW_CATEGORIES is catalog.ROW_CATEGORIES

    @pytest.mark.parametrize("command", ["symtensor", "dim", "structure", "project", "moduli",
                                         "maps", "verify-paper"])
    def test_help_is_pinned(self, command, monkeypatch):
        # reference_help.json pins every help text at 80 columns
        monkeypatch.setenv("COLUMNS", "80")
        expected = json.loads((HERE / "reference_help.json").read_text("utf-8"))[command]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
            main(["--help"] if command == "symtensor" else [command, "--help"])
        assert exc.value.code == 0
        assert out.getvalue() == expected
