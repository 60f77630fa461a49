import json

import numpy as np
import pytest

from symtensor.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert code == 2 and "unknown group" in err

    def test_unknown_space_exits_2(self, capsys):
        code, _, err = run(capsys, "dim", "--space", "nope", "--group", "cubic")
        assert code == 2 and "unknown space" in err

    def test_ambient_mismatch_exits_2(self, capsys):
        code, _, err = run(capsys, "dim", "--space", "ela2", "--group", "cubic")
        assert code == 2

    def test_quadrature_failure_exits_3(self, capsys):
        code, _, err = run(capsys, "dim", "--space", "v2bar", "--group", "so3",
                           "--degree", "1")
        assert code == 3 and "quadrature" in err

    def test_axis_group(self, capsys):
        code, out, _ = run(capsys, "dim", "--space", "ela3", "--group", "so2-e3",
                           "--axis", "1,0,0")
        assert code == 0 and out.strip() == "5"

    @pytest.mark.parametrize("space,group", [("sym2", "d4"), ("ela3", "so3"),
                                             ("ela3", "cubic"), ("ela3", "trivial")])
    def test_axis_without_axial_group_exits_2(self, capsys, space, group):
        for command in ("dim", "structure"):
            code, out, err = run(capsys, command, "--space", space, "--group", group,
                                 "--axis", "1,0,0")
            assert code == 2 and out == "" and "axis applies only" in err

    @pytest.mark.parametrize("axis", ["nan,0,1", "0,inf,1", "1,1,-inf"])
    def test_non_finite_axis_exits_2(self, capsys, axis):
        for command in ("dim", "structure"):
            code, out, err = run(capsys, command, "--space", "ela3", "--group", "so2-e3",
                                 "--axis", axis)
            assert code == 2 and out == "" and "finite components" in err

    def test_so3_degree_above_cap_exits_2(self, capsys):
        code, out, err = run(capsys, "dim", "--space", "ela3", "--group", "so3",
                             "--degree", "13")
        assert code == 2 and out == "" and "max_poly_degree" in err

    def test_circle_degree_above_so3_cap(self, capsys):
        code, out, _ = run(capsys, "dim", "--space", "ela3", "--group", "o2-e3",
                           "--degree", "13")
        assert code == 0 and out.strip() == "5"

    @pytest.mark.parametrize("space,group,degree,order", [("ela3", "so2-e3", "1", 4),
                                                          ("v2bar", "o2-e3", "2", 6),
                                                          ("high2", "so2", "2", 6)])
    def test_degree_below_order_exits_3(self, capsys, space, group, degree, order):
        code, out, err = run(capsys, "dim", "--space", space, "--group", group,
                             "--degree", degree)
        assert code == 3 and out == ""
        assert f"degree {degree} is below the order {order}" in err

    def test_degree_at_order(self, capsys):
        code, out, _ = run(capsys, "dim", "--space", "ela3", "--group", "o2-e3",
                           "--degree", "4")
        assert code == 0 and out.strip() == "5"

    @pytest.mark.parametrize("space,group", [("sym2", "z2"), ("ela3", "cubic"),
                                             ("ela3", "trivial")])
    def test_degree_under_finite_group_exits_2(self, capsys, space, group):
        code, out, err = run(capsys, "dim", "--space", space, "--group", group,
                             "--degree", "50")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "continuous groups" in err

    @pytest.mark.parametrize("group", ["so3", "cubic"])
    @pytest.mark.parametrize("degree", ["0", "-2"])
    def test_degree_below_one_exits_2(self, capsys, group, degree):
        with pytest.raises(SystemExit) as exc:
            main(["dim", "--space", "ela3", "--group", group, "--degree", degree])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "degree must be >= 1" in captured.err


class TestStructure:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "structure", "--space", "ela3", "--group", "so3")
        assert code == 0
        assert "C11 = C12 + 2 C44" in out

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
        assert code == 2 and "slot map" in err


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
        assert code == 5


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
        import symtensor.verification as verification
        from symtensor.spaces import SPACES, TensorSpace
        broken = TensorSpace("ela3", 3, 4, ((1, 0, 2, 3),))  # major symmetry dropped
        monkeypatch.setitem(SPACES, "ela3", broken)
        verification._report.cache_clear()
        try:
            code, out, _ = run(capsys, "verify-paper", "--rows", "characters")
            assert code == 1
            assert any(l.startswith("[FAIL] characters ela3") for l in out.splitlines())
        finally:
            monkeypatch.undo()
            verification._report.cache_clear()

    @pytest.mark.parametrize("rows", [",", "", " , "])
    def test_rows_naming_no_category_exit_2(self, capsys, rows):
        code, out, err = run(capsys, "verify-paper", "--rows", rows)
        assert code == 2 and out == "" and "names no category" in err


class TestTolerance:
    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SYMTENSOR_TOL", "1e-8")
        code, out, _ = run(capsys, "structure", "--space", "ela3", "--group", "cubic")
        assert code == 0 and "C44" in out

    def test_bad_env_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("SYMTENSOR_TOL", "0.5")
        with pytest.raises(SystemExit):
            main(["structure", "--space", "ela3", "--group", "cubic"])

    @pytest.mark.parametrize("value", ["abc", "1e-3"])
    @pytest.mark.parametrize("argv", [
        ("structure", "--space", "ela3", "--group", "cubic"),
        ("moduli", "--values", '{"C12": 1, "C44": 3, "C45": 1}'),
    ])
    def test_bad_env_exits_2(self, capsys, monkeypatch, value, argv):
        monkeypatch.setenv("SYMTENSOR_TOL", value)
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad SYMTENSOR_TOL")


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
