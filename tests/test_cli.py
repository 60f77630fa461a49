import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from symtensor.cli import main
from symtensor.groups import resolve_group
from symtensor.projector import structure_report
from symtensor.spaces import SPACES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC = str(Path(__file__).resolve().parents[1] / "src")
# runs cli.main on its arguments in a fresh interpreter, then prints the
# command's stdout and the modules loaded by then as one JSON line
COLD_RUN = """
import contextlib, io, json, sys
from symtensor import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(sys.argv[1:])
print(json.dumps([code, out.getvalue(), sorted(sys.modules)]))
"""


def run_cold(*argv):
    """stdout of one command that exits 0 in a fresh interpreter, and the
    set of modules it loaded."""
    done = subprocess.run([sys.executable, "-c", COLD_RUN, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=300)
    assert done.returncode == 0, done.stderr
    code, out, loaded = json.loads(done.stdout)
    assert code == 0, done.stderr
    return out, set(loaded)


class TestDim:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "dim", "--space", "ela3", "--group", "cubic")
        assert code == 0 and out.strip() == "3"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "dim", "--space", "v2bar", "--group", "so2-e3",
                           "--format", "json")
        assert code == 0
        assert json.loads(out) == {"space": "v2bar", "group": "so2-e3", "dim": 31}

    def test_high2_d2(self, capsys):
        code, out, _ = run(capsys, "dim", "--space", "high2", "--group", "d2")
        assert code == 0 and out.strip() == "20"

    def test_unknown_group_exits_2(self, capsys):
        code, _, err = run(capsys, "dim", "--space", "ela3", "--group", "icosahedral")
        assert code == 2 and err.startswith("error: unknown group name 'icosahedral'")

    def test_unknown_space_exits_2(self, capsys):
        code, _, err = run(capsys, "dim", "--space", "nope", "--group", "cubic")
        assert code == 2 and err.startswith("error: unknown space name 'nope'")

    @pytest.mark.parametrize("flag,name,message", [
        ("--group", "Hex ", "unknown group name 'Hex '; known: trivial, z2, z3, z4, z6, d2, d3, "
                            "d4, d6, so2, o2, cubic, so2-e3, o2-e3, so3"),
        ("--space", " piezo", "unknown space name ' piezo'; known: sym2, sym3, ela2, ela3, "
                              "major3, v1, v1bar, v2, v2bar, high2"),
    ])
    def test_unknown_name_messages(self, capsys, flag, name, message):
        # the one catalog lookup, through the library and the command line alike
        from symtensor.groups import group_kind
        from symtensor.spaces import lookup
        calls = ([lambda: resolve_group(name, 3), lambda: group_kind(name)]
                 if flag == "--group" else [lambda: lookup(name)])
        for call in calls:
            with pytest.raises(KeyError) as err:
                call()
            assert err.value.args == (message,)
        pair = {"--space": "ela3", "--group": "so3", flag: name}
        code, _, err = run(capsys, "dim", "--space", pair["--space"], "--group", pair["--group"])
        assert (code, err) == (2, f"error: {message}\n")

    def test_ambient_mismatch_exits_2(self, capsys):
        code, _, err = run(capsys, "dim", "--space", "ela2", "--group", "cubic")
        assert code == 2 and err.startswith("error: group 'cubic' does not act on 2D spaces")

    def test_quadrature_failure_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr("symtensor.characters.integrate", lambda *args: 4.5)
        for command in ("dim", "structure"):
            code, out, err = run(capsys, command, "--space", "ela3", "--group", "so3")
            assert code == 3 and out == ""
            assert len(err.splitlines()) == 1
            assert err.startswith("error: quadrature not converged")

    def test_axis_group(self, capsys):
        code, out, _ = run(capsys, "dim", "--space", "ela3", "--group", "so2-e3",
                           "--axis", "1,0,0")
        assert code == 0 and out.strip() == "5"

    @pytest.mark.parametrize("space,group", [("sym2", "d4"), ("ela3", "so3"),
                                             ("ela3", "cubic"), ("ela3", "trivial"),
                                             ("sym2", "z2")])
    def test_axis_without_axial_group_exits_2(self, capsys, space, group):
        for command in ("dim", "structure"):
            code, out, err = run(capsys, command, "--space", space, "--group", group,
                                 "--axis", "1,0,0")
            assert code == 2 and out == "" and "axis applies only" in err
            assert err.endswith(f"not to {group}\n")

    @pytest.mark.parametrize("axis", ["nan,0,1", "0,inf,1", "1,1,-inf"])
    def test_non_finite_axis_exits_2(self, capsys, axis):
        for command in ("dim", "structure"):
            code, out, err = run(capsys, command, "--space", "ela3", "--group", "so2-e3",
                                 "--axis", axis)
            assert code == 2 and out == "" and "finite components" in err

    @pytest.mark.parametrize("axis", ["1e200,1e200,0", "1e-200,1e-200,0"])
    def test_axis_of_extreme_scale(self, capsys, axis):
        # both are the direction (1, 1, 0); no norm of the typed vector is taken
        assert run(capsys, "dim", "--space", "ela3", "--group", "z3", "--axis", axis) == (
            0, "7\n", "")

    @pytest.mark.parametrize("group", ["so3", "cubic"])
    @pytest.mark.parametrize("degree", ["0", "-2", "8"])
    def test_degree_below_one_exits_2(self, capsys, group, degree):
        # there is no quadrature-degree option: any --degree is refused
        with pytest.raises(SystemExit) as exc:
            main(["dim", "--space", "ela3", "--group", group, "--degree", degree])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: --degree {degree}" in captured.err


class TestStructure:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "structure", "--space", "ela3", "--group", "so3")
        assert code == 0
        assert "C11 = C12 + 2 C44" in out

    def test_cubic_text(self, capsys):
        code, out, _ = run(capsys, "structure", "--space", "ela3", "--group", "cubic")
        assert code == 0 and "C44" in out

    def test_non_projector_exits_4(self, capsys, monkeypatch):
        from symtensor import projector
        from symtensor.core import FlatOperator
        averaged = projector.averaged_projector

        def doubled(space, group):
            a = averaged(space, group)
            return FlatOperator(2.0 * a.matrix)

        monkeypatch.setattr(projector, "averaged_projector", doubled)
        code, out, err = run(capsys, "structure", "--space", "ela3", "--group", "cubic")
        assert code == 4 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: operator is not idempotent")

    def test_json_schema_roundtrip(self, capsys):
        code, out, _ = run(capsys, "structure", "--space", "major3", "--group", "o2-e3",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"space", "group", "dim", "shape", "entries", "constraints"}
        assert payload["dim"] == 8 and payload["shape"] == [9, 9]
        assert "C11 = C12 + C88 + C89" in payload["constraints"]
        for row in payload["entries"]:
            for entry in row:
                assert entry["kind"] in ("zero", "free", "dependent")
                if entry["kind"] == "dependent":
                    assert all({"coef", "value", "label"} <= set(term) for term in entry["combo"])

    def test_latex(self, capsys):
        code, out, _ = run(capsys, "structure", "--space", "ela2", "--group", "d4",
                           "--format", "latex")
        assert code == 0 and out.startswith("\\begin{pmatrix}")

    def test_unregistered_space_exits_2(self, capsys):
        code, _, err = run(capsys, "structure", "--space", "v1", "--group", "cubic")
        assert code == 2 and err.startswith("error: no slot map registered for space 'v1'")

    @pytest.mark.parametrize("fmt", ["text", "json", "latex"])
    def test_unsnapped_display_exits_6(self, capsys, fmt):
        code, out, err = run(capsys, "structure", "--space", "ela3", "--group", "so2-e3",
                             "--axis", "0.3,0.1,1", "--format", fmt)
        assert code == 6
        assert "(unsnapped)" in out
        if fmt == "json":
            assert set(json.loads(out)) == {"space", "group", "dim", "shape", "entries",
                                            "constraints"}
        axis = np.array([0.3, 0.1, 1.0]) / np.linalg.norm([0.3, 0.1, 1.0])
        count = structure_report(SPACES["ela3"], resolve_group("so2-e3", 3, axis=axis)).unsnapped
        assert err.splitlines() == [f"error: {count} displayed coefficients matched no "
                                    "rational or surd form and are printed unsnapped"]

    @pytest.mark.parametrize("space,group,axis", [
        ("ela3", "so2-e3", "1e-6,0,1"),
        ("major3", "so2-e3", "1e-6,0,1"),
        ("v2bar", "so2-e3", "1e-6,0,1"),
        ("ela3", "so2-e3", "1e-7,1e-7,1"),
        ("v2bar", "z4", "0.3,0.1,1"),
        ("v2bar", "d2", "0.3,0.1,1"),
    ])
    def test_huge_coefficient_exits_6(self, capsys, space, group, axis):
        # combinations of order 1e6 and more used to raise out of the snap
        code, out, err = run(capsys, "structure", "--space", space, "--group", group,
                             "--axis", axis)
        assert code == 6 and out.startswith(f"space {space}")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_near_e3_axis_exits_6(self, capsys):
        # a free slot that cleared the residual cut by a hair, next to a far
        # more independent one, used to fail the extraction check (exit 4)
        code, out, err = run(capsys, "structure", "--space", "v2bar", "--group", "so2-e3",
                             "--axis", "0.001,0,1")
        assert code == 6 and out.startswith("space v2bar") and "(unsnapped)" in out
        assert len(err.splitlines()) == 1 and err.endswith("are printed unsnapped\n")

    def test_snapped_tilted_display_exits_0(self, capsys):
        code, out, err = run(capsys, "structure", "--space", "ela3", "--group", "so2-e3",
                             "--axis", "1,1,1")
        assert code == 0 and err == ""
        assert "with C11 = C12 - C14 + C15 + 2 C44 - 2 C45" in out


class TestProject:
    def test_worked_example(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        src.write_text(json.dumps({"space": "sym2", "n": 2, "k": 2,
                                   "coeffs": [1.0, 2.0, 2.0, 5.0]}))
        dst = tmp_path / "out.json"
        code, _, err = run(capsys, "project", "--space", "sym2", "--group", "so2",
                           "--input", str(src), "--output", str(dst))
        assert code == 0
        payload = json.loads(dst.read_text())
        got = np.array(payload["coeffs"]).reshape(2, 2)
        assert np.allclose(got, 3.0 * np.eye(2), atol=1e-12)
        assert payload["invariance_residual"] < 1e-12
        assert "invariance residual" in err

    def test_invariant_input_passthrough(self, tmp_path, capsys):
        coeffs = np.eye(2).reshape(-1).tolist()
        src = tmp_path / "in.json"
        src.write_text(json.dumps({"n": 2, "k": 2, "coeffs": coeffs}))
        code, out, _ = run(capsys, "project", "--space", "sym2", "--group", "o2",
                           "--input", str(src))
        assert code == 0
        assert np.allclose(json.loads(out)["coeffs"], coeffs, atol=1e-12)

    def test_membership_failure_exits_5(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        src.write_text(json.dumps({"n": 2, "k": 2, "coeffs": [1.0, 2.0, 3.0, 5.0]}))
        code, _, err = run(capsys, "project", "--space", "sym2", "--group", "so2",
                           "--input", str(src))
        assert code == 5 and "outside the space" in err

    @pytest.mark.parametrize("value", [1e308, 1.5e308])  # both overflow in the group average
    def test_overflowing_average_exits_5(self, tmp_path, capsys, value):
        src = tmp_path / "in.json"
        src.write_text(json.dumps({"coeffs": [value] * 4}))
        code, out, err = run(capsys, "project", "--space", "sym2", "--group", "so2",
                             "--input", str(src))
        assert (code, out) == (5, "")
        assert err == "error: the group average overflows the double range\n"

    def test_large_finite_average_exits_0(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        src.write_text(json.dumps({"coeffs": [1e300] * 4}))
        code, out, _ = run(capsys, "project", "--space", "sym2", "--group", "so2",
                           "--input", str(src))
        assert code == 0
        assert np.allclose(json.loads(out)["coeffs"], [1e300, 0.0, 0.0, 1e300], atol=1e285)

    def test_malformed_file_exits_5(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        src.write_text("{not json")
        code, _, _ = run(capsys, "project", "--space", "sym2", "--group", "so2",
                         "--input", str(src))
        assert code == 5

    @pytest.mark.parametrize("text", [
        "5",
        '[1.0, 0.0, 0.0, 1.0]',
        '{"space": 5, "coeffs": [1.0, 0.0, 0.0, 1.0]}',
        '{"n": null, "coeffs": [1.0, 0.0, 0.0, 1.0]}',
        '{"coeffs": {"a": 1.0}}',
        '{"n": 2.9, "k": 2.5, "coeffs": [1.0, 0.0, 0.0, 1.0]}',
        '{"n": 2.0, "k": 2, "coeffs": [1.0, 0.0, 0.0, 1.0]}',
        '{"n": 2, "k": "2", "coeffs": [1.0, 0.0, 0.0, 1.0]}',
        '{"n": true, "k": 2, "coeffs": [1.0, 0.0, 0.0, 1.0]}',
        '{"space": "sym2", "coeffs": ["1", true, true, "2"]}',
        '{"coeffs": ["1", "0", "0", "1"]}',
        '{"coeffs": [true, false, false, true]}',
        '{"coeffs": [[1.0, 0.0], [0.0, 1.0]]}',
        '{"coeffs": "1 0 0 1"}',
        '{"coeffs": [1%s, 0, 0, 1]}' % ("0" * 400),
    ])
    def test_malformed_tensor_exits_5(self, tmp_path, capsys, text):
        src = tmp_path / "in.json"
        src.write_text(text)
        code, out, err = run(capsys, "project", "--space", "sym2", "--group", "so2",
                             "--input", str(src))
        assert code == 5 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("target", ["missing/out.json", "."])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, target):
        src = tmp_path / "in.json"
        src.write_text(json.dumps({"coeffs": [1.0, 0.0, 0.0, 1.0]}))
        code, _, err = run(capsys, "project", "--space", "sym2", "--group", "so2",
                           "--input", str(src), "--output", str(tmp_path / target))
        assert code == 2
        assert err.startswith("error: cannot write output")

    def test_space_header_mismatch_exits_5(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        src.write_text(json.dumps({"space": "ela3", "n": 2, "k": 2,
                                   "coeffs": [1.0, 0.0, 0.0, 1.0]}))
        code, _, err = run(capsys, "project", "--space", "sym2", "--group", "so2",
                           "--input", str(src))
        assert code == 5 and "declares" in err


class TestModuli:
    def test_inline_values(self, capsys):
        code, out, _ = run(capsys, "moduli", "--values",
                           '{"C12": 1, "C44": 3, "C45": 1}')
        assert code == 0
        assert json.loads(out) == {"lambda": 1.0, "mu": 2.0, "mu_c": 1.0}

    @pytest.mark.parametrize("source,text,message", [
        ("--values", "[1]", "JSON object"),
        ("--values", "5", "JSON object"),
        ("--values", '{"C12": null, "C44": 1, "C45": 1}', "NoneType"),
        ("--values", '{"C12": "one", "C44": 1, "C45": 1}', "'one'"),
        ("--input", '[{"C12": 1, "C44": 3, "C45": 1}]', "JSON object"),
        ("--values", '{"C12": NaN, "C44": 1, "C45": 1}', "C12 must be a finite number"),
        ("--values", '{"C12": 1, "C44": Infinity, "C45": 1}', "C44 must be a finite number"),
        ("--values", '{"C12": 1, "C44": 3, "C11": -Infinity}', "C11 must be a finite number"),
        ("--values", '{"C12": true, "C44": 1, "C45": 1}', "C12 must be a finite number"),
        ("--input", '{"C12": 1, "C44": 1, "C45": false}', "C45 must be a finite number"),
        ("--values", '{"C12": 1, "C44": 1e308, "C45": 1e308}', "overflow"),
        ("--values", '{"C12": -1e308, "C44": -1e308, "C11": 1e308}', "overflow"),
        ("--values", '{"C12": 1, "C44": 3, "C45": 1, "C11": 100}', "contradicts"),
        ("--values", '{"C12": 1e308, "C44": 1e308, "C45": 1, "C11": 5}', "contradicts"),
        ("--values", '{"C12": 1e308, "C44": -1e308, "C45": 1e308, "C11": 5}', "contradicts"),
        ("--values", '{"C12":1,"C44":3,"C54":1,"C11":5}', "unknown symbol 'C54'"),
        ("--values", '{"C12":1,"C44":3,"C45":1,"lambda":9}', "unknown symbol 'lambda'"),
    ])
    def test_malformed_values_exit_5(self, tmp_path, capsys, source, text, message):
        if source == "--input":
            path = tmp_path / "values.json"
            path.write_text(text)
            text = str(path)
        code, out, err = run(capsys, "moduli", source, text)
        assert code == 5 and out == "" and err.startswith("error: ") and message in err

    def test_missing_values_exit_5(self, capsys):
        code, _, err = run(capsys, "moduli", "--values", '{"C12": 1}')
        assert code == 5 and err.startswith("error: missing required symbol 'C44'")
        code, _, err = run(capsys, "moduli", "--values", '{"C12": 1, "C44": 3}')
        assert code == 5 and err == "error: assignment must provide C45 or C11\n"

    @pytest.mark.parametrize("argv", [
        ("--values", '{"C12":1,"C44":3,"C45":1}', "--input", "/nonexistent.json"),
        (),
    ])
    def test_one_source_required(self, capsys, argv):
        # --values and --input are alternatives: both, or neither, is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["moduli", *argv])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_undecodable_input_exit_5(self, tmp_path, capsys):
        path = tmp_path / "values.json"
        path.write_bytes(b'\xff\xfe{"C12": 1, "C44": 3, "C45": 1}')
        code, out, err = run(capsys, "moduli", "--input", str(path))
        assert code == 5 and out == "" and err.startswith("error: ") and "utf-8" in err

    def test_empty_values_is_bad_json(self, capsys):
        code, out, err = run(capsys, "moduli", "--values", "")
        assert code == 5 and out == "" and err.startswith("error: bad --values JSON")

    def test_runs_without_numpy(self):
        # the moduli come from the values alone: no display, no numerical module
        out, loaded = run_cold("moduli", "--values", '{"C12":1,"C44":3,"C45":1}')
        assert out == '{"lambda": 1.0, "mu": 2.0, "mu_c": 1.0}\n'
        assert not loaded & {"numpy", "symtensor.projector", "symtensor.verification"}


class TestMaps:
    def test_dump_json(self, capsys):
        code, out, _ = run(capsys, "maps", "--dump")
        assert code == 0
        tables = json.loads(out)
        assert "extended18" in tables and len(tables["extended18"]["slots"]) == 18
        assert tables["voigt6"]["slots"][3]["components"] == [[2, 3], [3, 2]]

    def test_summary(self, capsys):
        code, out, _ = run(capsys, "maps")
        assert code == 0 and "mandel6" in out


class TestVerifyPaper:
    def test_dims_subset_passes(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--rows", "dims")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("[")]
        assert len(lines) == 24
        assert all(l.startswith("[PASS]") for l in lines)

    def test_unknown_category_exits_2(self, capsys):
        code, _, err = run(capsys, "verify-paper", "--rows", "bogus")
        assert code == 2

    def test_fault_injection_fails_rows(self, capsys, monkeypatch):
        # corrupting a symmetrizer generator must surface as failed rows
        from symtensor.spaces import SPACES, TensorSpace
        broken = TensorSpace("ela3", 3, 4, ((1, 0, 2, 3),))  # major symmetry dropped
        monkeypatch.setitem(SPACES, "ela3", broken)
        try:
            code, out, _ = run(capsys, "verify-paper", "--rows", "characters")
            assert code == 1
            assert any(l.startswith("[FAIL] characters ela3") for l in out.splitlines())
        finally:
            monkeypatch.undo()

    @pytest.mark.parametrize("rows", [",", "", " , "])
    def test_rows_naming_no_category_exit_2(self, capsys, rows):
        code, out, err = run(capsys, "verify-paper", "--rows", rows)
        assert code == 2 and out == "" and "names no category" in err


class TestClosedStdout:
    """A stdout closed by its reader is an unwritable output: exit 2, one error line."""

    @pytest.mark.parametrize("argv", [
        ("maps", "--dump"),
        ("structure", "--space", "v2bar", "--group", "trivial", "--format", "json"),
        ("verify-paper", "--rows", "voigt"),
        ("dim", "--space", "ela3", "--group", "so3"),  # still buffered at exit
    ], ids=["maps-dump", "structure-json", "verify-paper", "dim"])
    def test_exits_2_with_one_error_line(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        try:
            done = subprocess.run([sys.executable, "-m", "symtensor.cli", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  env=env, timeout=300)
        finally:
            os.close(write_end)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


class TestCommandImports:
    """Each command loads only the modules it runs, in a fresh interpreter."""

    @pytest.mark.parametrize("argv,unused", [
        (("dim", "--space", "ela3", "--group", "so3"),
         {"symtensor.projector", "symtensor.voigt", "symtensor.verification"}),
        (("structure", "--space", "ela3", "--group", "cubic"), {"symtensor.verification"}),
        (("maps",), {"symtensor.characters", "symtensor.groups", "symtensor.projector",
                     "symtensor.verification"}),
    ], ids=["dim", "structure", "maps"])
    def test_unused_modules_stay_unloaded(self, argv, unused):
        _, loaded = run_cold(*argv)
        assert not unused & loaded

    def test_project_skips_verification(self, tmp_path):
        src = tmp_path / "in.json"
        src.write_text(json.dumps({"space": "sym3", "coeffs": np.eye(3).reshape(-1).tolist()}))
        out, loaded = run_cold("project", "--space", "sym3", "--group", "so3",
                               "--input", str(src))
        assert np.allclose(json.loads(out)["coeffs"], np.eye(3).reshape(-1), atol=1e-12)
        assert "symtensor.verification" not in loaded


class TestSlotwiseAction:
    """No command path forms a dense Kronecker power or the dense symmetrizer."""

    @pytest.fixture
    def no_dense_operators(self, monkeypatch):
        import sys
        from symtensor import core
        from symtensor.spaces import TensorSpace

        def refuse(*args, **kwargs):
            raise AssertionError("dense operator built")

        original = core.kron_power  # read once: the loop rebinds core.kron_power itself
        for name, module in list(sys.modules.items()):
            if name == "symtensor" or name.startswith("symtensor."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, refuse)
        # a data descriptor on the class outranks a value cached on the instance
        monkeypatch.setattr(TensorSpace, "projector", property(refuse))

    def test_verify_paper_rows(self, capsys, no_dense_operators):
        code, out, _ = run(capsys, "verify-paper", "--rows", "characters,projector,oracle")
        lines = [l for l in out.splitlines() if l.startswith("[")]
        assert code == 0 and len(lines) > 100
        assert all(l.startswith("[PASS]") for l in lines)

    def test_project_v2bar_cubic(self, tmp_path, capsys, no_dense_operators):
        from symtensor.spaces import SPACES, symmetrize
        sp = SPACES["v2bar"]
        t = symmetrize(sp, np.random.default_rng(3).normal(size=sp.n**sp.k))
        src = tmp_path / "in.json"
        src.write_text(json.dumps({"space": "v2bar", "coeffs": t.coeffs.tolist()}))
        code, out, err = run(capsys, "project", "--space", "v2bar", "--group", "cubic",
                             "--input", str(src))
        assert code == 0 and "invariance residual" in err
        assert json.loads(out)["invariance_residual"] < 1e-12
