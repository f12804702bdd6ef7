import argparse
import hashlib
import json
import warnings

import numpy as np
import pytest

from _gen import spectrum_matrix
import ddsim.cli
import ddsim.errors
from ddsim import (build_complex_dd_transform, build_real_dd_transform, is_diag_dominant,
                   jordan_residual_tol, similarity_residual)
from ddsim.cli import main
from ddsim.errors import MatrixParseError
from ddsim.io import dumps, load_matrix
from ddsim.spectral import _forget


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


def test_json_boolean_n_is_rejected(tmp_path, capsys):
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"n": True, "rows": [[-2]]}))
    code, out, err = run(capsys, ["classify", "--input", str(path)])
    assert (code, out) == (1, "")
    assert '"n" must be a positive integer' in err


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


#: Matrices whose printed certificates the round-trip test checks.
_CERTIFIED = {
    "tri": [[-2, 1], [0, -3]],
    # a pair chain
    "pair": [[2, 4, 3, -2], [-4, 0, -2, -1], [-3, -6, -4, 4], [-6, 1, -4, -2]],
    # Jordan chains alone in their matrices, whose (A - lambda I)^2 is all
    # rounding; eig splits the second into -1 +/- 3e-8j
    "alone": [[-4, 2], [-2, 0]],
    "split": [[-5, 4], [-4, 3]],
    # a triple eigenvalue whose members' sum overflows
    "rep": [[-6e307, 0, 0], [0, -6e307, 0], [0, 0, -6e307]],
}


@pytest.mark.parametrize("name, mode", [
    ("tri", "real"), ("tri", "complex"), ("pair", "complex"), ("alone", "real"),
    ("alone", "complex"), ("split", "real"), ("split", "complex"), ("rep", "real"),
    ("rep", "complex"),
])
def test_transform_round_trips_residual(tmp_path, capsys, name, mode):
    # the printed residual is the one P and B give, within the Jordan limit,
    # the printed B is strictly dominant, and P and B are the builder's own
    path = write_json(tmp_path, "a.json", _CERTIFIED[name])
    code, out, _ = run(capsys, ["transform", "--input", path, "--mode", mode])
    assert code == 0
    doc = json.loads(out)
    p, b = (np.array(doc[k]["re"]) + 1j * np.array(doc[k]["im"]) if mode == "complex"
            else np.array(doc[k]) for k in ("P", "B"))
    a = np.array(_CERTIFIED[name], dtype=float)
    residual = similarity_residual(a, p, b)
    assert abs(residual - doc["residual"]) <= 1e-12
    assert residual <= jordan_residual_tol(a)
    assert is_diag_dominant(b).strict
    cert = (build_complex_dd_transform if mode == "complex" else build_real_dd_transform)(a)
    np.testing.assert_array_equal(p, cert.P)
    np.testing.assert_array_equal(b, cert.B)


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


@pytest.mark.parametrize("transform", [["--mode", "complex"], ["--target", "strict"],
                                       ["--target", "nonstrict"]],
                         ids=["complex", "real-strict", "real-nonstrict"])
@pytest.mark.parametrize("diagonal, code", [([-5e-10, 3e-8], 0), ([-4e-8, 4.1e-8], 4),
                                            ([0.0, 1.0], 4)],
                         ids=["member-in-band", "mean-in-band", "zero"])
def test_classify_and_complex_transform_agree_on_singularity(tmp_path, capsys, diagonal, code,
                                                             transform):
    path = write_json(tmp_path, "a.json", np.diag(diagonal).tolist())
    assert run(capsys, ["classify", "--input", path])[0] == code
    transform_code, _, err = run(capsys, ["transform", "--input", path, *transform])
    assert transform_code == code
    assert err.startswith("out of scope: SingularInput: ") is (code == 4)


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


_FLOAT_MAX = 1.7976931348623157e308


@pytest.mark.parametrize("rows, circles, radius", [
    # the frame spans x from -1e308 to 2e308, which overflows: radius 1e308
    # at scale 800 / (3e308 * 1.2)
    ([[1e308, 1e308], [0, -1e308]], 2, "222.2222"),
    # the first disc's radius overflows, and the frame spans 2 * 2e308
    ([[0, 1e308, 1e308], [0, 0, 0], [0, 0, 0]], 3, "333.3333"),
    # eigvals gives the eigenvalues M * (1 +/- j) infinite imaginary parts
    ([[_FLOAT_MAX, _FLOAT_MAX], [-_FLOAT_MAX, _FLOAT_MAX]], 2, "333.3333"),
], ids=["frame", "radius", "eigenvalues"])
def test_gershgorin_near_the_float_limit(tmp_path, capsys, rows, circles, radius):
    # drawn from the values divided by a power of two, every pixel is where
    # it belongs
    path = write_json(tmp_path, "a.json", rows)
    out_path = tmp_path / "discs.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["gershgorin", "--input", path,
                                      "--out", str(out_path)])
    assert (code, err) == (0, "")
    svg = out_path.read_text()
    assert svg.count("<circle") == circles
    assert "nan" not in svg and "inf" not in svg
    assert f'r="{radius}"' in svg


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
    assert info.value.code == 64
    assert "--seed" in capsys.readouterr().err


def parse_error(capsys, argv):
    """Run an argv that argparse must reject; return (exit code, stderr)."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    return info.value.code, captured.err


def test_every_library_error_has_an_outcome():
    base = ddsim.errors.DdsimError
    assert [t for t in vars(ddsim.errors).values()
            if isinstance(t, type) and issubclass(t, base) and t is not base
            and t not in ddsim.cli._FAILURES] == []


def test_numerical_failure_and_usage_error_exit_codes_differ(tmp_path, capsys):
    # eigenvalues 1.5x the clustering band apart: the grouping is ambiguous
    gap = 1.5e-7 * (1.0 + np.sqrt(2.0))
    path = write_json(tmp_path, "a.json", [[1.0, 0.0], [0.0, 1.0 + gap]])
    code, out, err = run(capsys, ["classify", "--input", path])
    assert (code, out) == (2, "")
    assert err.startswith("numerical failure: ClusterAmbiguity: ")
    code, err = parse_error(capsys, ["classify", "--input", path, "--tol", "nan"])
    assert code == 64
    assert "--tol" in err


@pytest.mark.parametrize("rows, head, error", [
    # two clusters within twice the clustering tolerance
    *(([[-1, 0], [0, -1.00000036]], head, "ClusterAmbiguity")
      for head in (["classify"], ["transform"], ["transform", "--mode", "complex"])),
    # a pair whose multiplicities disagree
    *(([[-2e-7, 1e-7], [-1e-7, -2e-7]], head, "IllConditionedJordan")
      for head in (["classify"], ["transform"], ["transform", "--mode", "complex"])),
    # a length-3 real chain whose second power of A - lambda I overflows
    ([[-2e155, 1e155, 0], [0, -2e155, 1e155], [0, 0, -2e155]], ["transform"],
     "IllConditionedJordan"),
], ids=["ambiguous-classify", "ambiguous-transform", "ambiguous-complex",
        "inconsistent-classify", "inconsistent-transform", "inconsistent-complex",
        "chain-transform"])
def test_typed_numerical_failures_exit_2(tmp_path, capsys, rows, head, error):
    path = write_json(tmp_path, "a.json", rows)
    code, out, err = run(capsys, [*head, "--input", path])
    assert (code, out) == (2, "")
    assert err.splitlines()[0].startswith(f"numerical failure: {error}: ")


def test_unparsable_tol_is_a_usage_error(tmp_path, capsys):
    path = write_json(tmp_path, "a.json", [[-2, 1], [0, -3]])
    code, err = parse_error(capsys, ["classify", "--input", path, "--tol", "abc"])
    assert code == 64
    assert "invalid float value: 'abc'" in err


BOUNDARY_PAIR = [[-1, 1], [-1, -1]]


@pytest.mark.parametrize("head", [["classify"], ["transform"], ["special", "tests"]])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_non_finite_or_negative_tol_is_rejected(tmp_path, capsys, head, tol):
    path = write_json(tmp_path, "a.json", BOUNDARY_PAIR)
    code, err = parse_error(capsys, [*head, "--input", path, f"--tol={tol}"])
    assert code == 64
    assert "--tol" in err


def test_finite_tol_is_accepted(tmp_path, capsys):
    path = write_json(tmp_path, "a.json", BOUNDARY_PAIR)
    default = run(capsys, ["classify", "--input", path])
    assert default[0] == 0
    assert json.loads(default[1])["verdict"] == "NonStrictOnly"
    assert run(capsys, ["classify", "--input", path, "--tol", "1e-9"]) == default
    assert run(capsys, ["classify", "--input", path, "--tol", "0"])[0] == 0


@pytest.mark.parametrize("head", [["classify"], ["transform", "--mode", "complex"]])
def test_negative_zero_tol_prints_what_zero_tol_does(tmp_path, capsys, head):
    # a zero eigenvalue and a boundary pair: both bands are printed
    path = write_json(tmp_path, "a.json", [[0, 0, 0], [0, -1, 1], [0, -1, -1]])
    ends = []
    for tol in ("-0", "0"):
        _forget()
        ends.append(run(capsys, [*head, "--input", path, "--tol", tol]))
    assert ends[0] == ends[1]
    assert "-0.000e+00" not in ends[0][1] + ends[0][2]


@pytest.mark.parametrize("target", ["strict", "nonstrict"])
def test_complex_mode_takes_the_strict_target_only(tmp_path, capsys, target):
    # a complex certificate is always strict; asking for another is a usage error
    path = write_json(tmp_path, "a.json", [[-2, 1], [0, -3]])
    argv = ["transform", "--input", path, "--mode", "complex", "--target", target]
    if target == "strict":
        assert run(capsys, argv) == run(capsys, argv[:-2])
    else:
        code, err = parse_error(capsys, argv)
        assert code == 64
        assert "--target" in err


def test_gershgorin_takes_no_tol(tmp_path, capsys):
    path = write_json(tmp_path, "a.json", [[-2, 1], [0, -3]])
    code, err = parse_error(capsys, ["gershgorin", "--input", path, "--tol", "1e-9",
                                     "--out", str(tmp_path / "discs.svg")])
    assert code == 64
    assert "--tol" in err


@pytest.mark.parametrize("readable", [True, False], ids=["readable", "missing"])
def test_gershgorin_checks_out_before_any_work(tmp_path, capsys, monkeypatch, readable):
    path = (write_json(tmp_path, "a.json", [[-2, 1], [0, -3]]) if readable
            else str(tmp_path / "missing.json"))
    solves = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: solves.append(a) or eigvals(a))
    code, err = parse_error(capsys, ["gershgorin", "--input", path])
    assert code == 64
    assert "--out" in err
    assert solves == []


def test_gershgorin_help_names_out_as_the_svg_file(capsys, monkeypatch):
    # wide enough that argparse keeps the help on one line
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as info:
        main(["gershgorin", "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert "SVG output file (required)" in out
    assert "also write the output document here" not in out


@pytest.fixture
def criterion_9_argvs(tmp_path):
    """The argv list of acceptance criterion 9 (CLI golden runs)."""
    tri = write_json(tmp_path, "tri.json", [[-2, 1], [0, -3]])
    rot = write_json(tmp_path, "rot.json", [[-1, 2], [-2, -1]])
    skew = write_json(tmp_path, "skew.json", [[0, 1], [-1, 0]])
    metzler = write_json(tmp_path, "metzler.json", [[-2, 1], [1, -2]])
    return [
        ["classify", "--input", tri],
        ["classify", "--input", rot],
        ["transform", "--input", tri, "--target", "strict", "--mode", "real"],
        ["transform", "--input", skew, "--mode", "complex"],
        ["transform", "--input", skew, "--mode", "real"],
        ["special", "--input", metzler, "m-scale"],
    ]


#: The matrices of acceptance criterion 9, and two separated spectra.
_GOLDEN_MATRICES = {
    "tri": [[-2, 1], [0, -3]],
    "rot": [[-1, 2], [-2, -1]],
    "skew": [[0, 1], [-1, 0]],
    "metzler": [[-2, 1], [1, -2]],
    "n8": spectrum_matrix(np.random.default_rng(8), 8).tolist(),
    "n12": spectrum_matrix(np.random.default_rng(12), 12, dominant_pairs_only=False).tolist(),
}
#: Exit code and SHA-256 of the stdout of ``classify`` on each matrix,
#: recorded while ``classify`` still solved with ``eigvals`` and the
#: certificate builders with ``eig``.
CLASSIFY_GOLDEN = [
    ("tri", 0, "2b4db29937889d83496d5f0f47f0c3402873d678a511598b391d5d67f8510110"),
    ("rot", 3, "3ed9dab644fe282de734eb512646d93531852c42b1d0b54cd699badd7135696d"),
    ("skew", 3, "d0cb72c7762d6e73060fb123de62b25fcbfb3e66cf2a73bd5c71bb93c25e7a79"),
    ("metzler", 0, "7e8d99c8775699de4fd936054a069377a1cbeb8ad82265fca2bf60dfc7332291"),
    ("n8", 0, "81c75b3b7a9f29e17ca5952f3b28049edecba730c7aa884bafae1cd645aec328"),
    ("n12", 3, "9db52c9201125fb160caa414de29dd2ab9296d9e935cfb3eb3083dd24a21e431"),
]


@pytest.mark.parametrize("name, exit_code, stdout_sha", CLASSIFY_GOLDEN)
def test_classify_matches_recorded_stdout(tmp_path, capsys, name, exit_code, stdout_sha):
    path = write_json(tmp_path, f"{name}.json", _GOLDEN_MATRICES[name])
    code, out, err = run(capsys, ["classify", "--input", path])
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (exit_code, stdout_sha, "")


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    ddsim.cli._parser.__wrapped__()
    per_build = len(built)
    assert per_build == 5  # the top-level parser and one per subcommand
    built.clear()
    ddsim.cli._parser.cache_clear()

    path = write_json(tmp_path, "a.json", [[-2, 1], [0, -3]])
    svg = str(tmp_path / "discs.svg")
    argvs = [["classify", "--input", path],
             ["transform", "--input", path],
             ["gershgorin", "--input", path, "--out", svg],
             ["special", "--input", path, "tests"]]
    for _ in range(5):
        for argv in argvs:
            assert main(argv) == 0
    capsys.readouterr()
    assert len(built) == per_build


def test_shared_parser_gives_the_same_bytes_in_any_order(capsys, criterion_9_argvs):
    forward = [run(capsys, argv) for argv in criterion_9_argvs]
    code, _ = parse_error(capsys, ["classify", "--input", criterion_9_argvs[0][2],
                                   "--tol", "nan"])
    assert code == 64
    backward = [run(capsys, argv) for argv in reversed(criterion_9_argvs)]
    assert backward[::-1] == forward


BIG_INT = "1" + "0" * 400  # a JSON integer literal too large for a float


@pytest.mark.parametrize("name, content, message", [
    ("empty.csv", "\n\n", "line 1, column 1: empty input"),
    ("inf.csv", "1,inf\n2,3\n", "line 1, column 2: non-finite value"),
    ("bad.json", "{", "invalid JSON: "),
    ("list.json", "[[1]]", 'expected an object with "n" and "rows"'),
    ("rows.json", '{"n": 2, "rows": [[1, 2]]}', '"rows" must hold 2 rows'),
    ("short.json", '{"n": 2, "rows": [[1, 2], [3]]}', "row 2: expected 2 values"),
    ("text.json", '{"n": 1, "rows": [["1"]]}', "row 1, column 1: not a number"),
    ("nan.json", '{"n": 1, "rows": [[NaN]]}', "row 1, column 1: non-finite value"),
    ("big.json", f'{{"n": 1, "rows": [[{BIG_INT}]]}}',
     "row 1, column 1: non-finite value"),
    ("over.json", '{"n": 2, "rows": [[1e308, 1e308], [-1e308, 1e308]]}',
     "matrix Frobenius norm overflows the largest float"),
])
def test_parse_errors_exit_1(tmp_path, capsys, name, content, message):
    path = write_csv(tmp_path, name, content)
    code, out, err = run(capsys, ["classify", "--input", path])
    assert (code, out) == (1, "")
    assert err.startswith(f"parse error: {message}")


@pytest.mark.parametrize("name, content", [
    ("missing.json", None),
    ("latin1.csv", "-2,\xe9\n0,-3\n".encode("latin-1")),
])
def test_unreadable_input_exits_1(tmp_path, capsys, name, content):
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    code, out, err = run(capsys, ["classify", "--input", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith(f"parse error: cannot read {path}: ")


@pytest.mark.parametrize("name, text", [
    ("tri.csv", "-2,1\n0,-3\n"),
    ("tri.json", '{"n": 2, "rows": [[-2, 1], [0, -3]]}'),
], ids=["csv", "json"])
def test_byte_order_mark_reads_as_the_plain_file(tmp_path, capsys, name, text):
    plain = write_json(tmp_path, "plain.json", _GOLDEN_MATRICES["tri"])
    expected = run(capsys, ["classify", "--input", plain])
    golden = {name: sha for name, _, sha in CLASSIFY_GOLDEN}["tri"]
    assert hashlib.sha256(expected[1].encode()).hexdigest() == golden
    path = tmp_path / name
    path.write_bytes(("\ufeff" + text).encode("utf-8"))
    assert run(capsys, ["classify", "--input", str(path)]) == expected


def test_byte_order_mark_after_the_first_line_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "mark.csv"
    path.write_bytes("-2,1\n\ufeff0,-3\n".encode("utf-8"))
    code, out, err = run(capsys, ["classify", "--input", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("parse error: line 2, column 1: not a decimal literal: '\\ufeff0'")


def test_classify_large_entries_exit_0(tmp_path, capsys):
    path = write_json(tmp_path, "a.json", [[1e160, 0.0], [0.0, -2e160]])
    code, out, err = run(capsys, ["classify", "--input", path])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["verdict"] == "StrictAchievable"
    assert [e["value"] for e in doc["eigenstructure"]["real"]] == [-2e160, 1e160]


def _matrix_rows(a) -> list:
    """The float-list form the handlers once built for a real matrix, kept
    as the reference the array emission must match byte for byte."""
    return [[float(v) for v in row] for row in np.asarray(a, dtype=float)]


def _complex_matrix_doc(a) -> dict:
    """The reference ``{"re": rows, "im": rows}`` form of a complex matrix."""
    arr = np.asarray(a)
    return {"re": _matrix_rows(arr.real), "im": _matrix_rows(arr.imag)}


def _complex(re, im):
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def _arrays():
    rng = np.random.default_rng(15)
    yield np.array([[-0.0]])
    yield np.array([[0.1 + 0.2]])                      # 0.30000000000000004
    yield np.array([[-0.0, 1 / 3], [2.0 ** -1074, -1e300]])
    yield rng.standard_normal((12, 12))
    yield _complex([[-0.0]], [[-0.0]])
    yield _complex([[1 / 3, -0.0], [0.0, -1.0]], [[-0.0, 2 / 3], [1e-300, 0.1 + 0.2]])
    yield _complex(rng.standard_normal((12, 12)), rng.standard_normal((12, 12)))


@pytest.mark.parametrize("a", list(_arrays()),
                         ids=["1x1-minus-zero", "1x1-17-digits", "2x2-extremes", "12x12",
                              "1x1-complex-zeros", "2x2-complex", "12x12-complex"])
def test_arrays_emit_as_the_float_lists_they_replaced(a):
    if np.iscomplexobj(a):
        doc, reference = {"re": a.real, "im": a.imag}, _complex_matrix_doc(a)
    else:
        doc, reference = a, _matrix_rows(a)
    # a row stands for the dominance margins, a 1-D array
    text = dumps({"M": doc, "margins": a.real[0]})
    assert text == dumps({"M": reference, "margins": [float(m) for m in a.real[0]]})


@pytest.mark.parametrize("doc, error, message", [
    ({1: 2.0}, TypeError, "non-string key: 1"),
    ({"x": {1.5, 2.5}}, TypeError, "cannot serialize set"),
    ({"x": [None]}, TypeError, "cannot serialize NoneType"),
    ([1.0, float("nan")], ValueError, "cannot serialize non-finite value"),
])
def test_dumps_refuses_what_json_cannot_hold(doc, error, message):
    with pytest.raises(error, match=message):
        dumps(doc)


def test_load_matrix_refuses_an_unknown_format(tmp_path):
    path = write_json(tmp_path, "a.json", [[1.0]])
    with pytest.raises(MatrixParseError, match="unknown format 'xml'"):
        load_matrix(path, "xml")
