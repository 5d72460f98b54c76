import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from planefit.cli import main

STARS_CSV = Path(__file__).parent / "data" / "stars.csv"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fit_stars_sum_l1(tmp_path, capsys):
    out_path = tmp_path / "fit.json"
    code, _, _ = run_cli([
        "fit", "--input", str(STARS_CSV), "--criterion", "SUM", "--residual", "l1",
        "--output", str(out_path),
    ], capsys)
    assert code == 0
    record = json.loads(out_path.read_text())
    assert record["schema"] == "2"
    assert record["gcod"] == pytest.approx(0.6505853, abs=1e-6)
    slope = -record["beta_regression"][1] / record["beta_regression"][2]
    assert slope == pytest.approx(7.0, abs=1e-6)


def test_fit_collinear_gcod_one(tmp_path, capsys):
    csv = tmp_path / "line.csv"
    x = np.arange(3.0)
    csv.write_text("x1,y\n" + "\n".join(f"{a},{2 * a + 1}" for a in x) + "\n")
    code, out, _ = run_cli([
        "fit", "--input", str(csv), "--criterion", "SUM", "--residual", "vertical",
    ], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["gcod"] == pytest.approx(1.0, abs=1e-9)


def test_fit_has_no_node_limit_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--input", str(STARS_CSV), "--criterion", "SUM", "--residual", "l1",
              "--node-limit", "10"])
    assert exc.value.code == 2
    assert "--node-limit" in capsys.readouterr().err


def test_malformed_row_reports_line(tmp_path, capsys):
    csv = tmp_path / "bad.csv"
    csv.write_text("x1,y\na,b\n")
    code, _, err = run_cli([
        "fit", "--input", str(csv), "--criterion", "SUM", "--residual", "l1",
    ], capsys)
    assert code == 2
    assert "line 2" in err


def test_field_count_mismatch(tmp_path, capsys):
    csv = tmp_path / "bad2.csv"
    csv.write_text("x1,y\n1.0,2.0\n3.0\n")
    code, _, err = run_cli([
        "fit", "--input", str(csv), "--criterion", "SUM", "--residual", "vertical",
    ], capsys)
    assert code == 2
    assert "line 3" in err


def test_non_finite_input_names_the_file_and_line(tmp_path, capsys):
    # a nan or inf is caught where it is read: no mirror completion of a
    # block file, no numpy warning, no error that names neither file nor line
    fit = ["fit", "--input", str(STARS_CSV), "--criterion", "SUM"]
    for value in ("nan", "inf", "-inf"):
        ball = tmp_path / f"ball-{value}.txt"
        ball.write_text(f"1 0\n\n{value} 0\n0 1\n")
        csv = tmp_path / f"data-{value}.csv"
        csv.write_text(f"x1,y\n1.0,2.0\n3.0,{value}\n")
        for args, path, line in ((fit + ["--residual", f"block:{ball}"], ball, "line 3"),
                                 (["fit", "--input", str(csv), "--criterion", "SUM",
                                   "--residual", "vertical"], csv, "line 3")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, _, err = run_cli(args, capsys)
            assert code == 2
            assert "mirrored" not in err
            error = json.loads(err)["error"]
            assert f"{path}, {line}" in error and repr(value) in error


def test_unparsable_param_names_param(capsys):
    for criterion in ("kC", "AkC", "LQS", "LTS"):
        code, _, err = run_cli(["fit", "--input", str(STARS_CSV), "--criterion", criterion,
                                "--param", "x", "--residual", "vertical"], capsys)
        assert code == 2
        error = json.loads(err)["error"]
        assert "--param" in error and criterion in error and "'x'" in error


def test_unknown_residual_is_input_error(capsys):
    code, _, err = run_cli([
        "fit", "--input", str(STARS_CSV), "--criterion", "SUM", "--residual", "l7",
    ], capsys)
    assert code == 2
    assert "residual" in err


def test_gen_fit_round_trip(tmp_path, capsys):
    csv = tmp_path / "synthetic.csv"
    code, _, _ = run_cli(["gen", "--n", "40", "--d", "2", "--corruption", "Y",
                          "--seed", "1", "--output", str(csv)], capsys)
    assert code == 0
    header = csv.read_text().splitlines()[0]
    assert header == "x1,y"
    assert len(csv.read_text().splitlines()) == 41
    code, out, _ = run_cli([
        "fit", "--input", str(csv), "--criterion", "LTS", "--param", "0.5",
        "--residual", "vertical", "--multistart", "40",
    ], capsys)
    assert code == 0
    record = json.loads(out)
    slope = record["beta_regression"][1]
    assert slope == pytest.approx(-1.0, abs=0.1)


def test_gen_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(["gen", "--n", "25", "--d", "3", "--corruption", "X", "--seed", "9",
             "--output", str(a)], capsys)
    run_cli(["gen", "--n", "25", "--d", "3", "--corruption", "X", "--seed", "9",
             "--output", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_dependent_col_reordering(tmp_path, capsys):
    csv = tmp_path / "cols.csv"
    # response stored first; --dependent-col moves it to the last slot
    csv.write_text("y,x1\n1.0,0.0\n3.0,1.0\n5.0,2.0\n")
    out_path = tmp_path / "record.json"
    code, _, _ = run_cli([
        "fit", "--input", str(csv), "--criterion", "SUM", "--residual", "vertical",
        "--dependent-col", "y", "--output", str(out_path),
    ], capsys)
    assert code == 0
    record = json.loads(out_path.read_text())
    assert record["beta_regression"][1] == pytest.approx(2.0, abs=1e-9)
    # verify re-reads the input with the recorded response column
    code, out, _ = run_cli(["verify", "--record", str(out_path)], capsys)
    assert code == 0
    assert json.loads(out)["match"] is True


def test_verify_round_trip(tmp_path, capsys):
    out_path = tmp_path / "record.json"
    run_cli(["fit", "--input", str(STARS_CSV), "--criterion", "kC", "--param", "35",
             "--residual", "linf", "--output", str(out_path)], capsys)
    code, out, _ = run_cli(["verify", "--record", str(out_path)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["match"] is True

    # tampering with phi_star must fail verification
    record = json.loads(out_path.read_text())
    record["phi_star"] *= 1.05
    out_path.write_text(json.dumps(record))
    code, out, _ = run_cli(["verify", "--record", str(out_path)], capsys)
    assert code == 1


def test_verify_solves_the_constant_model_once(tmp_path, capsys, monkeypatch):
    # phi0 serves both the GCoD index and the phi* check
    from planefit import cli, omp1d

    out_path = tmp_path / "record.json"
    run_cli(["fit", "--input", str(STARS_CSV), "--criterion", "MED", "--residual", "l1",
             "--output", str(out_path)], capsys)
    calls = []
    solve_omp = omp1d.solve_omp

    def counted(*args):
        calls.append(args)
        return solve_omp(*args)

    for module in (omp1d, cli):
        monkeypatch.setattr(module, "solve_omp", counted, raising=False)
    code, _, _ = run_cli(["verify", "--record", str(out_path)], capsys)
    assert code == 0
    assert len(calls) == 1


def test_verify_checks_a_tiny_phi_star(tmp_path, capsys):
    # at data x 1e-8, SOS x l1 has phi* = 3.7e-16: the check must not pass it
    # under a fixed absolute floor of 1e-9
    obs = np.loadtxt(STARS_CSV, delimiter=",", skiprows=1) * 1e-8
    csv = tmp_path / "tiny.csv"
    csv.write_text("x,y\n" + "\n".join(f"{a!r},{b!r}" for a, b in obs.tolist()) + "\n")
    out_path = tmp_path / "record.json"
    code, _, _ = run_cli(["fit", "--input", str(csv), "--criterion", "SOS", "--residual", "l1",
                          "--output", str(out_path)], capsys)
    assert code == 0
    code, out, _ = run_cli(["verify", "--record", str(out_path)], capsys)
    assert (code, json.loads(out)["match"]) == (0, True)
    record = json.loads(out_path.read_text())
    assert 0.0 < record["phi_star"] < 1e-14
    record["phi_star"] *= 2.0
    out_path.write_text(json.dumps(record))
    code, out, _ = run_cli(["verify", "--record", str(out_path)], capsys)
    assert (code, json.loads(out)["match"]) == (1, False)


def test_verify_checks_the_bounds(tmp_path, capsys):
    out_path = tmp_path / "record.json"
    run_cli(["fit", "--input", str(STARS_CSV), "--criterion", "SUM", "--residual", "ltau:2",
             "--N", "8", "--output", str(out_path)], capsys)
    code, out, _ = run_cli(["verify", "--record", str(out_path)], capsys)
    assert code == 0
    assert json.loads(out)["bounds_ok"] is True

    # a lower end above phi_star must fail verification, though phi_star matches
    record = json.loads(out_path.read_text())
    record["bounds"][0] = record["phi_star"] * 1.01
    out_path.write_text(json.dumps(record))
    code, out, _ = run_cli(["verify", "--record", str(out_path)], capsys)
    report = json.loads(out)
    assert (code, report["match"], report["bounds_ok"]) == (1, True, False)


@pytest.mark.parametrize("criterion", ["MAX", "kC"])
def test_emit_lp(tmp_path, capsys, criterion):
    """The exported disjunct holds the fitted plane, so its LP, parsed back
    and solved, reproduces phi*: one centrum term, t1 and s1_i, in a pair
    of rows per point."""
    lp_path = tmp_path / "model.lp"
    out_path = tmp_path / "r.json"
    code, _, _ = run_cli([
        "fit", "--input", str(STARS_CSV), "--criterion", criterion, "--residual", "l1",
        "--emit-lp", str(lp_path), "--output", str(out_path),
    ], capsys)
    assert code == 0
    text = lp_path.read_text()
    assert text.startswith("Minimize")
    from planefit.lp import parse_lp_file, solve_lp

    model = parse_lp_file(lp_path)
    assert model.n_vars == 2 + 1 + 47
    assert {"t1", "s1_1", "s1_47"} <= set(model.names) and "e1" not in model.names
    assert 2 * 47 <= len(model.rows) < 3 * 47
    solved = solve_lp(model)
    assert solved.is_optimal
    assert solved.objective == pytest.approx(json.loads(out_path.read_text())["phi_star"], rel=1e-9)


def test_block_file_symmetry_completion(tmp_path, capsys):
    blockfile = tmp_path / "ball.txt"
    blockfile.write_text("1 0\n0 1\n")  # mirrors added with a warning
    code, out, err = run_cli([
        "fit", "--input", str(STARS_CSV), "--criterion", "SUM",
        "--residual", f"block:{blockfile}",
    ], capsys)
    assert code == 0
    assert "mirrored" in err
    record = json.loads(out)
    assert record["gcod"] == pytest.approx(0.6505853, abs=1e-6)


def test_cv_output_shape(tmp_path, capsys):
    code, out, _ = run_cli([
        "cv", "--input", str(STARS_CSV), "--criterion", "SUM", "--residual", "vertical",
        "--cv", "5", "--seed", "3", "--format", "json",
    ], capsys)
    assert code == 0
    record = json.loads(out)
    stats = record["eps90"]
    assert stats["min"] <= stats["median"] <= stats["max"]
    assert len(stats["folds"]) == 5


def test_cv_deterministic(tmp_path, capsys):
    args = ["cv", "--input", str(STARS_CSV), "--criterion", "SUM",
            "--residual", "l1", "--cv", "4", "--seed", "5"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_batch_grid_small(tmp_path, capsys):
    csv = tmp_path / "mini.csv"
    run_cli(["gen", "--n", "12", "--d", "2", "--corruption", "Y", "--seed", "2",
             "--output", str(csv)], capsys)
    out_path = tmp_path / "grid.csv"
    code, _, _ = run_cli(["batch", "--input", str(csv), "--seed", "1",
                          "--N", "16", "--output", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 43  # header + 7 criteria x 6 residuals
    assert lines[0].startswith("criterion,residual,")
    # no cell errors on clean input
    assert all(ln.endswith(",") or ln.split(",")[-1] == "" for ln in lines[1:])


def test_batch_deterministic(tmp_path, capsys):
    csv = tmp_path / "mini.csv"
    run_cli(["gen", "--n", "10", "--d", "2", "--corruption", "X", "--seed", "4",
             "--output", str(csv)], capsys)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(["batch", "--input", str(csv), "--seed", "6", "--N", "8",
             "--output", str(a)], capsys)
    run_cli(["batch", "--input", str(csv), "--seed", "6", "--N", "8",
             "--output", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_csv_round_trip_bit_exact(tmp_path, capsys):
    from planefit.cli import read_csv_dataset
    from planefit.evaluation import synthetic_generate

    csv = tmp_path / "exact.csv"
    run_cli(["gen", "--n", "35", "--d", "3", "--corruption", "X", "--seed", "13",
             "--output", str(csv)], capsys)
    data, _ = read_csv_dataset(str(csv))
    want = synthetic_generate(35, 3, "X", seed=13)
    assert np.array_equal(data.matrix, want.matrix)


def test_strip_norm_override(capsys):
    base = ["fit", "--input", str(STARS_CSV), "--criterion", "SUM",
            "--residual", "l1", "--strip-eps", "0.3"]
    _, out1, _ = run_cli(base, capsys)
    _, out2, _ = run_cli(base + ["--strip-norm", "vertical"], capsys)
    a, b = json.loads(out1), json.loads(out2)
    assert a["phi_star"] == b["phi_star"]
    assert a["strip"]["eps90"] != b["strip"]["eps90"]


def test_console_script_entry_point():
    exe = shutil.which("planefit")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "gen", "--n", "5", "--d", "2", "--corruption", "Y",
                           "--seed", "0"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("x1,y")


def test_fit_request_and_cli_share_the_default_n():
    import dataclasses

    from planefit.cli import build_parser
    from planefit.solvers import MULTISTART, NODE_LIMIT, POLYTOPE_VERTICES, FitRequest

    parser = build_parser()
    fit_args = parser.parse_args(["fit", "--input", "x.csv", "--criterion", "SUM",
                                  "--residual", "ltau:2"])
    batch_args = parser.parse_args(["batch", "--input", "x.csv"])
    default = {f.name: f.default for f in dataclasses.fields(FitRequest)}
    assert fit_args.N == batch_args.N == default["polytope_vertices"] == POLYTOPE_VERTICES == 32
    assert (fit_args.multistart == batch_args.multistart == default["multistart"]
            == MULTISTART == 16)
    assert default["node_limit"] == NODE_LIMIT == 100_000


def test_fit_csv_is_the_batch_row_and_batch_json_is_the_csv(tmp_path, capsys):
    csv = tmp_path / "mini.csv"
    run_cli(["gen", "--n", "12", "--d", "2", "--corruption", "Y", "--seed", "2",
             "--output", str(csv)], capsys)
    common = ["--input", str(csv), "--seed", "3", "--N", "8"]
    code, grid_csv, _ = run_cli(["batch", *common], capsys)
    assert code == 0
    code, grid_json, _ = run_cli(["batch", *common, "--format", "json"], capsys)
    assert code == 0
    header, *rows = grid_csv.splitlines()
    grid = json.loads(grid_json)
    assert (grid["schema"], grid["seed"]) == ("2", 3)
    assert [",".join(cell) for cell in grid["grid"]] == [header] * len(rows)
    assert [",".join(cell.values()) for cell in grid["grid"]] == rows
    for criterion, residual in (("MED", "ltau:2"), ("SUM", "vertical"), ("1.5SUM", "l1")):
        code, out, _ = run_cli(["fit", *common, "--criterion", criterion,
                                "--residual", residual, "--format", "csv"], capsys)
        assert code == 0
        row = next(r for r in rows if r.startswith(f"{criterion},{residual},"))
        assert out == f"{header}\n{row}\n"


def test_cv_csv_columns(capsys):
    code, out, _ = run_cli(["cv", "--input", str(STARS_CSV), "--criterion", "SUM",
                            "--residual", "l1", "--cv", "4", "--seed", "5", "--format", "csv"],
                           capsys)
    assert code == 0
    header, row = out.splitlines()
    assert header == "criterion,residual,k,min,max,median,mean"
    cells = row.split(",")
    assert cells[:3] == ["SUM", "l1", "4"]
    low, high, median, mean = map(float, cells[3:])
    assert low <= median <= high and low <= mean <= high


def test_timing_alone_adds_the_wall_time(capsys):
    args = ["fit", "--input", str(STARS_CSV), "--criterion", "MED", "--residual", "linf"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second
    assert "wall_time_s" not in json.loads(first)
    _, timed, _ = run_cli(args + ["--timing"], capsys)
    timed = json.loads(timed)
    assert timed.pop("wall_time_s") > 0.0
    assert timed == json.loads(first)


def test_emit_lp_exports_the_fitted_ltau_polygon(tmp_path, capsys):
    """An l-tau fit exports its disjunct of the inscribed N-gon's polar, so
    the LP re-solves to the record's lower bound, the block value rho*."""
    from planefit.lp import parse_lp_file, solve_lp

    lp_path = tmp_path / "model.lp"
    code, out, _ = run_cli(["fit", "--input", str(STARS_CSV), "--criterion", "SUM",
                            "--residual", "ltau:3/2", "--emit-lp", str(lp_path)], capsys)
    assert code == 0
    lower = json.loads(out)["bounds"][0]
    solved = solve_lp(parse_lp_file(lp_path))
    assert solved.is_optimal
    assert solved.objective == pytest.approx(lower, rel=1e-12, abs=0.0)


def test_verify_checks_only_schema_2_records(tmp_path, capsys):
    record_path = tmp_path / "record.json"
    run_cli(["fit", "--input", str(STARS_CSV), "--criterion", "SUM", "--residual", "ltau:3/2",
             "--output", str(record_path)], capsys)
    record = json.loads(record_path.read_text())
    relabelled = dict(record, schema="9")
    # the schema-"1" form of the same fit: l-tau as "ltau" with its tau in config
    old = dict(record, schema="1", config=dict(record["config"], residual="ltau", tau="3/2"))
    unlabelled = {k: v for k, v in record.items() if k != "schema"}
    for stale, schema in ((relabelled, "'9'"), (old, "'1'"), (unlabelled, "None")):
        record_path.write_text(json.dumps(stale))
        code, _, err = run_cli(["verify", "--record", str(record_path)], capsys)
        assert code == 2
        error = json.loads(err)["error"]
        assert f"schema {schema}" in error and "verify checks schema '2'" in error


def test_verify_names_a_missing_record_key(tmp_path, capsys):
    # each key verify reads is checked once: a record without it is an input
    # error (exit 2) naming it, not a traceback that exits 1
    record_path = tmp_path / "record.json"
    run_cli(["fit", "--input", str(STARS_CSV), "--criterion", "SUM", "--residual", "l1",
             "--output", str(record_path)], capsys)
    record = json.loads(record_path.read_text())
    for key in ("config.criterion", "config.residual", "beta_raw", "phi_star", "gcod"):
        if key.startswith("config."):
            config = {k: v for k, v in record["config"].items() if k != key[len("config."):]}
            damaged = dict(record, config=config)
        else:
            damaged = {k: v for k, v in record.items() if k != key}
        record_path.write_text(json.dumps(damaged))
        code, _, err = run_cli(["verify", "--record", str(record_path)], capsys)
        assert code == 2, key
        assert repr(key) in json.loads(err)["error"]


def test_verify_names_a_malformed_record_field(tmp_path, capsys):
    # a field of the wrong form is bad input (exit 2) naming the field, not
    # a failed check (exit 1) nor a report holding NaN
    record_path = tmp_path / "record.json"
    run_cli(["fit", "--input", str(STARS_CSV), "--criterion", "SUM", "--residual", "ltau:2",
             "--N", "8", "--output", str(record_path)], capsys)
    record = json.loads(record_path.read_text())
    beta = record["beta_raw"]
    for key, value, words in (
            ("beta_raw", [beta[0], None, beta[2]], ("d + 1 = 3",)),
            ("beta_raw", beta + [1.0], ("d + 1 = 3",)),
            ("beta_raw", beta[:2], ("d + 1 = 3",)),
            ("beta_raw", "x", ("d + 1 = 3",)),
            ("bounds", [1.0], ("pair",)),
            ("bounds", 1.0, ("pair",)),
            ("bounds", [1.0, None], ("pair",)),
            ("phi_star", None, ("finite number",))):
        record_path.write_text(json.dumps(dict(record, **{key: value})))
        code, out, err = run_cli(["verify", "--record", str(record_path)], capsys)
        assert (code, out) == (2, ""), (key, value)
        error = json.loads(err)["error"]
        assert repr(key) in error and all(word in error for word in words), error


def test_ltau_fit_in_d3_names_the_polytope_field(tmp_path, capsys):
    data3 = tmp_path / "d3.csv"
    run_cli(["gen", "--n", "20", "--d", "3", "--corruption", "Y", "--seed", "1",
             "--output", str(data3)], capsys)
    code, _, err = run_cli(["fit", "--input", str(data3), "--criterion", "SUM",
                            "--residual", "ltau:2"], capsys)
    assert code == 2
    error = json.loads(err)["error"]
    assert "d = 2 only" in error and "FitRequest.polytope_vertices" in error
    assert "approx_polytope" not in error


def test_block_file_of_the_wrong_dimension_is_an_input_error(tmp_path, capsys):
    octahedron = tmp_path / "octa.txt"
    octahedron.write_text("1 0 0\n0 1 0\n0 0 1\n")
    square = tmp_path / "square.txt"
    square.write_text("1 1\n1 -1\n")
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("1 0\n\n0 1 0\n")
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    data3 = tmp_path / "d3.csv"
    run_cli(["gen", "--n", "20", "--d", "3", "--corruption", "Y", "--seed", "1",
             "--output", str(data3)], capsys)
    for ball, data, words in ((octahedron, STARS_CSV, ("3-d", "2-d")),
                              (square, data3, ("2-d", "3-d")),
                              (ragged, STARS_CSV, ("line 3", "3 coordinates", "of 2")),
                              (empty, STARS_CSV, ("no vertices",))):
        fit = ["fit", "--input", str(data), "--criterion", "SUM"]
        for args in (fit + ["--residual", f"block:{ball}"],
                     fit + ["--residual", "l1", "--strip-norm", f"block:{ball}"]):
            code, _, err = run_cli(args, capsys)
            assert code == 2
            error = json.loads(err.splitlines()[-1])["error"]
            assert str(ball) in error and all(word in error for word in words)


def test_unwritable_outputs_exit_2_with_a_json_error(tmp_path, capsys):
    missing = tmp_path / "missing"
    fit = ["fit", "--input", str(STARS_CSV), "--criterion", "SUM", "--residual", "l1"]
    for args, path in (
            (fit + ["--output", str(missing / "r.json")], missing / "r.json"),
            (fit + ["--emit-lp", str(missing / "x.lp")], missing / "x.lp"),
            (["gen", "--n", "20", "--d", "2", "--corruption", "Y",
              "--output", str(missing / "g.csv")], missing / "g.csv")):
        code, _, err = run_cli(args, capsys)
        assert code == 2
        assert str(path) in json.loads(err)["error"]
