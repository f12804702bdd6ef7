import json

import numpy as np
import pytest

from ddsim import similarity_residual
from ddsim.cli import main


def write_json(tmp_path, name, rows):
    n = len(rows)
    path = tmp_path / name
    path.write_text(json.dumps({"n": n, "rows": rows}))
    return str(path)


def write_csv(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_twice(capsys, argv):
    """Invoke twice and require byte-identical stdout."""
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert (code1, out1) == (code2, out2)
    return code1, out1


def test_classify_strict_achievable(tmp_path, capsys):
    path = write_json(tmp_path, "a.json", [[-2, 1], [0, -3]])
    code, out = run_twice(capsys, ["classify", "--input", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "StrictAchievable"
    assert len(doc["evidence"]) == 2
    assert doc["eigenstructure"]["real"][0]["value"] == -3


def test_classify_impossible(tmp_path, capsys):
    path = write_json(tmp_path, "a.json", [[-1, 2], [-2, -1]])
    code, out = run_twice(capsys, ["classify", "--input", path])
    assert code == 3
    assert json.loads(out)["verdict"] == "Impossible"


def test_classify_singular_exit_code(tmp_path, capsys):
    path = write_json(tmp_path, "a.json", [[0, 0], [0, 1]])
    code, out = run_twice(capsys, ["classify", "--input", path])
    assert code == 4
    assert json.loads(out)["verdict"] == "OutOfScopeSingular"


def test_classify_malformed_csv(tmp_path, capsys):
    path = write_csv(tmp_path, "bad.csv", "1,oops\n3,4\n")
    code, out, err = run(capsys, ["classify", "--input", path])
    assert code == 1
    assert out == ""
    assert "line 1" in err and "column 2" in err


def test_classify_ragged_csv(tmp_path, capsys):
    path = write_csv(tmp_path, "bad.csv", "1,2,3\n4,5\n6,7,8\n")
    code, _, err = run(capsys, ["classify", "--input", path])
    assert code == 1
    assert "line 2" in err


def test_transform_strict_real(tmp_path, capsys):
    path = write_json(tmp_path, "a.json", [[-2, 1], [0, -3]])
    code, out = run_twice(capsys, ["transform", "--input", path,
                                   "--target", "strict", "--mode", "real"])
    assert code == 0
    doc = json.loads(out)
    assert doc["target"] == "Strict" and doc["mode"] == "real"
    assert all(m > 0 for m in doc["dominance"]["margins"])
    assert doc["residual"] <= 1e-6


def test_transform_round_trips_residual(tmp_path, capsys):
    path = write_json(tmp_path, "a.json", [[-2, 1], [0, -3]])
    code, out, _ = run(capsys, ["transform", "--input", path])
    assert code == 0
    doc = json.loads(out)
    p = np.array(doc["P"])
    b = np.array(doc["B"])
    a = np.array([[-2.0, 1.0], [0.0, -3.0]])
    assert abs(similarity_residual(a, p, b) - doc["residual"]) <= 1e-12


def test_transform_complex_rotation(tmp_path, capsys):
    path = write_json(tmp_path, "a.json", [[0, 1], [-1, 0]])
    code, out = run_twice(capsys, ["transform", "--input", path,
                                   "--mode", "complex"])
    assert code == 0
    doc = json.loads(out)
    assert doc["B"]["re"] == [[0, 0], [0, 0]]
    assert doc["B"]["im"] == [[1, 0], [0, -1]]
    p = np.array(doc["P"]["re"]) + 1j * np.array(doc["P"]["im"])
    b = np.array(doc["B"]["re"]) + 1j * np.array(doc["B"]["im"])
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert abs(similarity_residual(a, p, b) - doc["residual"]) <= 1e-12


def test_transform_real_rotation_refused(tmp_path, capsys):
    path = write_json(tmp_path, "a.json", [[0, 1], [-1, 0]])
    code, out, err = run(capsys, ["transform", "--input", path,
                                  "--target", "strict", "--mode", "real"])
    assert code == 3
    assert out == ""
    assert "NotAchievable" in err


def test_transform_complex_singular_out_of_scope(tmp_path, capsys):
    path = write_json(tmp_path, "a.json", [[0, 0], [0, 1]])
    code, _, err = run(capsys, ["transform", "--input", path, "--mode", "complex"])
    assert code == 4
    assert "SingularInput" in err


def test_gershgorin_rotation_discs(tmp_path, capsys):
    path = write_json(tmp_path, "a.json", [[-1, 2], [-2, -1]])
    out_path = tmp_path / "discs.svg"
    code, out, _ = run(capsys, ["gershgorin", "--input", path,
                                "--out", str(out_path)])
    assert code == 0
    svg = out_path.read_text()
    first = svg
    code, _, _ = run(capsys, ["gershgorin", "--input", path,
                              "--out", str(out_path)])
    assert out_path.read_text() == first
    # two coincident circles plus eigenvalue crosses and the origin marker
    assert svg.count("<circle") == 2
    assert svg.count("<line") == 2 + 4
    assert 'r="333.3333"' in svg  # radius 2 at scale 800 / (4 * 1.2)


def test_gershgorin_diagonal_zero_radius(tmp_path, capsys):
    path = write_json(tmp_path, "a.json", [[-2, 0], [0, -3]])
    out_path = tmp_path / "discs.svg"
    code, _, _ = run(capsys, ["gershgorin", "--input", path,
                              "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text().count('r="0.0000"') == 2


def test_gershgorin_triangular(tmp_path, capsys):
    path = write_json(tmp_path, "a.json", [[-2, 1], [0, -3]])
    out_path = tmp_path / "discs.svg"
    code, _, _ = run(capsys, ["gershgorin", "--input", path,
                              "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text().count("<circle") == 2


def test_special_m_scale(tmp_path, capsys):
    path = write_csv(tmp_path, "a.csv", "-2,1\n1,-2\n")
    code, out = run_twice(capsys, ["special", "--input", path, "m-scale"])
    assert code == 0
    doc = json.loads(out)
    assert doc["K"] == [[1, 0], [0, 1]]
    assert doc["B"] == [[-2, 1], [1, -2]]
    assert doc["dominance"]["margins"] == [1, 1]
    assert doc["diagonal_sign"] == "AllNegative"


def test_special_tests_document(tmp_path, capsys):
    path = write_csv(tmp_path, "a.csv", "-2,-1\n-1,-2\n")
    code, out = run_twice(capsys, ["special", "--input", path, "tests"])
    assert code == 0
    assert json.loads(out) == {"z": True, "metzler": False, "m_matrix": False,
                               "h_matrix": True, "hurwitz": True}


def test_special_scale_refused(tmp_path, capsys):
    path = write_csv(tmp_path, "a.csv", "1,1\n0,1\n")
    code, out, err = run(capsys, ["special", "--input", path, "m-scale"])
    assert code == 3
    assert "PreconditionViolated" in err


def test_format_flag_overrides_extension(tmp_path, capsys):
    path = write_csv(tmp_path, "matrix.txt", "-2,1\n0,-3\n")
    code, out, _ = run(capsys, ["classify", "--input", path, "--format", "csv"])
    assert code == 0
    assert json.loads(out)["verdict"] == "StrictAchievable"


def test_out_flag_writes_document(tmp_path, capsys):
    path = write_json(tmp_path, "a.json", [[-2, 1], [0, -3]])
    out_path = tmp_path / "verdict.json"
    code, out, _ = run(capsys, ["classify", "--input", path,
                                "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text() == out


def test_unused_seed_flag_is_rejected(tmp_path, capsys):
    path = write_json(tmp_path, "a.json", [[-2, 1], [0, -3]])
    with pytest.raises(SystemExit) as info:
        main(["classify", "--input", path, "--seed", "1"])
    assert info.value.code == 2
    assert "--seed" in capsys.readouterr().err
