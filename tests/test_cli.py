import csv
import json
import time

import numpy as np
import pytest

import lowdp.cli
from lowdp.cli import ingest, main, write_points_csv
from lowdp.errors import IngestError, SolverError
from lowdp.noise import SeededGenerator
from lowdp.pca import BLOCK
from lowdp.planted import planted_subspace_dataset


def _write_csv(path, rows, header=None):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        if header:
            writer.writerow(header)
        writer.writerows(rows)


def test_ingest_zeros(tmp_path):
    path = tmp_path / "zeros.csv"
    _write_csv(path, [[0.0, 0.0]] * 3)
    data, info = ingest(path)
    assert data.dim == 2 and data.size == 3
    assert (data.points == 0.0).all()
    assert info["rescale"] is False


def test_ingest_header_detected(tmp_path):
    path = tmp_path / "h.csv"
    _write_csv(path, [[0.1, 0.2], [0.3, 0.4]], header=["x0", "x1"])
    data, _ = ingest(path)
    assert data.size == 2


def test_ingest_out_of_range_names_cell(tmp_path):
    path = tmp_path / "bad.csv"
    _write_csv(path, [[0.1, 0.2], [0.3, 1.5]])
    with pytest.raises(IngestError, match="row 2, column 2"):
        ingest(path)


def test_ingest_non_numeric_names_cell(tmp_path):
    path = tmp_path / "nan.csv"
    _write_csv(path, [[0.1, 0.2], [0.3, "oops"]])
    with pytest.raises(IngestError, match="row 2, column 2"):
        ingest(path)


def test_ingest_malformed_first_row_is_not_a_header(tmp_path):
    # a header is a row none of whose cells is a number
    path = tmp_path / "first.csv"
    _write_csv(path, [[0.5, "0.x"], [0.1, 0.2], [0.3, 0.4]])
    with pytest.raises(IngestError, match="non-numeric cell at row 1, column 2: '0.x'"):
        ingest(path)


@pytest.mark.parametrize("rescale", [False, True])
def test_ingest_nan_names_cell(tmp_path, rescale):
    path = tmp_path / "nan.csv"
    _write_csv(path, [[0.1, 0.2], [0.3, 0.4], ["nan", 0.5]])
    with pytest.raises(IngestError, match="value nan at row 3, column 1 is not finite"):
        ingest(path, rescale=rescale)


def test_ingest_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    with open(path, "w") as handle:
        handle.write("0.1,0.2\n0.3\n")
    with pytest.raises(IngestError, match="row 2"):
        ingest(path)


def test_ingest_rescale_minmax(tmp_path):
    path = tmp_path / "scale.csv"
    _write_csv(path, [[2.0], [3.0], [4.0]])
    data, info = ingest(path, rescale=True)
    assert np.allclose(np.sort(data.points.ravel()), [0.0, 0.5, 1.0])
    assert info["columns"][0] == {"min": 2.0, "max": 4.0}


def test_csv_round_trip_bitwise(tmp_path):
    data, _ = planted_subspace_dataset(20, 3, 2, SeededGenerator(0))
    path = tmp_path / "points.csv"
    write_points_csv(path, data.points)
    back, _ = ingest(path)
    assert np.array_equal(back.points, data.points)


def test_csv_writer_bytes_pinned_and_round_trip_exact(tmp_path):
    points = np.array([[0.0, 5e-324, 0.1], [1.0, 1e-300, 0.0]])
    path = tmp_path / "pinned.csv"
    write_points_csv(path, points)
    assert path.read_bytes() == b"x0,x1\r\n0.0,1.0\r\n5e-324,1e-300\r\n0.1,0.0\r\n"
    back, _ = ingest(path)
    assert back.points.tobytes() == points.tobytes()


def test_csv_writer_blocks_equal_one_shot_formatting(tmp_path):
    points = np.random.default_rng(8).random((3, 2 * BLOCK + 3))
    points[1, ::7] = 1e-300
    path = tmp_path / "blocks.csv"
    write_points_csv(path, points)
    rows = "".join(",".join(map(repr, row)) + "\r\n" for row in points.T.tolist())
    assert path.read_bytes() == ("x0,x1,x2\r\n" + rows).encode()


def test_ingest_blocks_equal_one_parse_of_every_row(tmp_path):
    rng = np.random.default_rng(9)
    rows = (rng.random((2 * BLOCK + 5, 3)) * 7 - 2).tolist()
    path = tmp_path / "wide.csv"
    _write_csv(path, rows, header=["a", "b", "c"])
    values = np.array(rows)
    data, info = ingest(path, rescale=True)
    lo, hi = values.min(axis=0), values.max(axis=0)
    assert data.points.tobytes() == np.ascontiguousarray(((values - lo) / (hi - lo)).T).tobytes()
    assert info["columns"] == [{"min": a, "max": b} for a, b in zip(lo.tolist(), hi.tolist())]


def test_ingest_errors_name_rows_in_later_blocks(tmp_path):
    rows = [["0.5", "0.5", "0.5"] for _ in range(2 * BLOCK + 5)]
    path = tmp_path / "late.csv"
    rows[BLOCK + 1][2] = "1.5"
    _write_csv(path, rows)
    with pytest.raises(IngestError, match=f"value 1.5 at row {BLOCK + 2}, column 3 is outside"):
        ingest(path)
    # a cell that does not parse is reported before any value out of range
    rows[2 * BLOCK + 2][1] = "oops"
    _write_csv(path, rows)
    with pytest.raises(IngestError, match=f"non-numeric cell at row {2 * BLOCK + 3}, column 2: 'oops'"):
        ingest(path)
    rows[BLOCK + 3] = ["0.5"]
    _write_csv(path, rows, header=["x0", "x1", "x2"])
    with pytest.raises(IngestError, match=f"row {BLOCK + 4} has 1 cells, expected 3"):
        ingest(path)


def _generate_args(inp, out, extra=()):
    return [
        "generate", "--input", str(inp), "--out", str(out),
        "--epsilon", "2.0", "--dprime", "2", "--subroutine", "pmm", "--seed", "7",
        *extra,
    ]


def test_generate_writes_outputs_and_is_deterministic(tmp_path):
    data, _ = planted_subspace_dataset(200, 4, 2, SeededGenerator(1))
    inp = tmp_path / "input.csv"
    write_points_csv(inp, data.points)

    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(_generate_args(inp, out1)) == 0
    assert main(_generate_args(inp, out2)) == 0
    assert (out1 / "synthetic.csv").read_bytes() == (out2 / "synthetic.csv").read_bytes()
    assert (out1 / "run_record.json").read_bytes() == (out2 / "run_record.json").read_bytes()

    record = json.loads((out1 / "run_record.json").read_text())
    assert record["provenance"]["d_prime"] == 2
    assert record["provenance"]["seed"] == 7
    assert "timings_seconds" not in record


def test_generate_auto_dprime_recorded(tmp_path):
    data, _ = planted_subspace_dataset(600, 5, 2, SeededGenerator(2))
    inp = tmp_path / "input.csv"
    write_points_csv(inp, data.points)
    out = tmp_path / "auto"
    code = main([
        "generate", "--input", str(inp), "--out", str(out),
        "--epsilon", "3.0", "--dprime", "auto", "--tau", "0.2", "--seed", "1",
    ])
    assert code == 0
    record = json.loads((out / "run_record.json").read_text())
    assert record["provenance"]["d_prime_mode"] == "auto"
    assert isinstance(record["provenance"]["d_prime"], int)


def test_generate_validation_exit_codes(tmp_path):
    missing = tmp_path / "missing.csv"
    out = tmp_path / "o"
    assert main(_generate_args(missing, out)) == 2

    bad = tmp_path / "bad.csv"
    _write_csv(bad, [[0.5, 1.7], [0.1, 0.2]])
    assert main(_generate_args(bad, out)) == 2

    data, _ = planted_subspace_dataset(50, 3, 2, SeededGenerator(3))
    inp = tmp_path / "ok.csv"
    write_points_csv(inp, data.points)
    code = main([
        "generate", "--input", str(inp), "--out", str(out),
        "--epsilon", "0.001", "--dprime", "2", "--seed", "0",
    ])
    assert code == 2  # eps * n regime validation


@pytest.mark.parametrize("dprime", ["abc", "2.5", "0"])
def test_generate_rejects_bad_dprime_as_usage_error(tmp_path, capsys, dprime):
    data, _ = planted_subspace_dataset(50, 3, 2, SeededGenerator(3))
    inp = tmp_path / "ok.csv"
    write_points_csv(inp, data.points)
    args = _generate_args(inp, tmp_path / "o")
    args[args.index("--dprime") + 1] = dprime
    assert main(args) == 2
    assert "--dprime" in capsys.readouterr().err


@pytest.mark.parametrize(
    "grid",
    [("--n-grid", "abc"), ("--n-grid", "128,2.5"), ("--n-grid", ","), ("--epsilon-grid", "x")],
    ids=["n-grid-word", "n-grid-fraction", "n-grid-empty", "epsilon-grid-word"],
)
def test_sweep_rejects_bad_grid_as_usage_error(tmp_path, capsys, grid):
    out = tmp_path / "sweep-bad"
    args = [
        "sweep", "--out", str(out), "--dim", "4", "--planted-dprime", "2",
        "--n-grid", "128", "--trials", "1", "--dprime", "2", "--subroutine", "pmm",
    ]
    args += grid
    assert main(args) == 2
    assert not out.exists()
    assert grid[0] in capsys.readouterr().err


def _planted_csv(tmp_path, n=50, d=3, planted=2):
    data, _ = planted_subspace_dataset(n, d, planted, SeededGenerator(3))
    inp = tmp_path / "ok.csv"
    write_points_csv(inp, data.points)
    return inp


def test_validation_errors_exit_2(tmp_path, capsys):
    one_row = tmp_path / "one.csv"
    _write_csv(one_row, [[0.5, 0.5]])
    assert main(_generate_args(one_row, tmp_path / "o1")) == 2
    assert "n >= 2" in capsys.readouterr().err

    # a lattice over the anchor cap names the flag that coarsens it
    inp = _planted_csv(tmp_path, n=200, d=4, planted=3)
    args = _generate_args(inp, tmp_path / "o2", extra=("--delta-scale", "0.001"))
    args[args.index("--dprime") + 1] = "3"
    args[args.index("--subroutine") + 1] = "psmm"
    assert main(args) == 2
    assert "--delta-scale" in capsys.readouterr().err


@pytest.mark.parametrize("error", [SolverError("no optimum"), RuntimeError("bug")], ids=["solver", "unexpected"])
def test_runtime_failures_exit_3(tmp_path, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(lowdp.cli, "generate", fail)
    assert main(_generate_args(_planted_csv(tmp_path), tmp_path / "o")) == 3


COUNT_FLAGS = {
    "generate": ["--m-target", "--eval-k", "--eval-repeats", "--eval-max-cells"],
    "sweep": ["--trials", "--jobs", "--dim", "--planted-dprime", "--eval-k", "--eval-repeats", "--eval-max-cells"],
    "audit": ["--samples"],
}


@pytest.mark.parametrize(
    "command, flag, value",
    [(c, f, v) for c, flags in COUNT_FLAGS.items() for f in flags for v in ("0", "-2")],
)
def test_count_flags_reject_nonpositive_values(tmp_path, capsys, command, flag, value):
    out = tmp_path / "out"
    if command == "generate":
        base = _generate_args(_planted_csv(tmp_path), out)
    elif command == "sweep":
        base = [
            "sweep", "--out", str(out), "--dim", "4", "--planted-dprime", "2",
            "--n-grid", "128", "--trials", "1", "--dprime", "2", "--subroutine", "pmm",
        ]
    else:
        base = ["audit", "--mechanism", "integer-laplace-count", "--epsilon", "1", "--out", str(out)]
    assert main([*base, f"{flag}={value}"]) == 2
    assert not out.exists()
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "epsilon, extra, message",
    [
        ("1e308", (), "cap of depth"),
        ("inf", (), "finite"),
        ("2.0", ("--m-target", "3"), "m_target"),
        ("1e308", ("--subroutine", "psmm"), "eps * n = 1.333e+308 and d' = 2 set delta"),
    ],
    ids=["over-deep-pmm-tree", "infinite-epsilon", "m-target-on-pmm", "psmm-lattice-at-huge-budget"],
)
def test_refusals_exit_2_within_a_second(tmp_path, capsys, epsilon, extra, message):
    inp = tmp_path / "four.csv"
    _write_csv(inp, [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6], [0.7, 0.8]])
    args = _generate_args(inp, tmp_path / "o", extra=extra)
    args[args.index("--epsilon") + 1] = epsilon
    start = time.perf_counter()
    assert main(args) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert message in err and len(err) < 300


def test_zero_noise_flag_is_gone(tmp_path):
    assert main(_generate_args(_planted_csv(tmp_path), tmp_path / "o", extra=("--zero-noise",))) == 2


def test_generate_with_evaluation(tmp_path):
    data, _ = planted_subspace_dataset(80, 4, 2, SeededGenerator(4))
    inp = tmp_path / "input.csv"
    write_points_csv(inp, data.points)
    out = tmp_path / "eval"
    code = main(_generate_args(inp, out, extra=("--evaluate",)))
    assert code == 0
    record = json.loads((out / "run_record.json").read_text())
    assert record["w1"] is not None
    assert record["w1_estimator"] == "exact"


def test_generate_rejects_nonpositive_eval_k(tmp_path):
    data, _ = planted_subspace_dataset(80, 4, 2, SeededGenerator(4))
    inp = tmp_path / "input.csv"
    write_points_csv(inp, data.points)
    # a 10-cell limit sends the evaluation to the sampled estimator
    code = main(_generate_args(inp, tmp_path / "eval", extra=("--evaluate", "--eval-max-cells", "10", "--eval-k", "0")))
    assert code == 2


def test_evaluate_command(tmp_path):
    data, _ = planted_subspace_dataset(40, 3, 2, SeededGenerator(5))
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_points_csv(a, data.points)
    write_points_csv(b, np.clip(data.points + 0.05, 0, 1))
    out = tmp_path / "eval.json"
    code = main([
        "evaluate", "--input", str(a), "--synthetic", str(b), "--out", str(out), "--w2",
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["w1"] == pytest.approx(0.05, abs=0.02)
    assert report["w1_estimator"] == "exact"
    assert report["w2"] is not None


def test_evaluate_w2_honours_eval_max_cells(tmp_path):
    # 2,050^2 cells are over the solver's default limit but within the flag's
    rng = np.random.default_rng(12)
    a, b, out = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "eval.json"
    write_points_csv(a, rng.random((2, 2050)))
    write_points_csv(b, rng.random((2, 2050)))
    flags = ["--input", str(a), "--synthetic", str(b), "--out", str(out), "--w2", "--eval-max-cells", "5000000"]
    assert main(["evaluate", *flags]) == 0
    report = json.loads(out.read_text())
    assert report["w1_estimator"] == "exact"
    assert report["w2"] >= report["w1"] > 0  # sup-metric W1 <= l2 W1 <= l2 W2


def test_sweep_single_point(tmp_path):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--out", str(out), "--dim", "5", "--planted-dprime", "2",
        "--n-grid", "256", "--trials", "1", "--dprime", "2", "--subroutine", "pmm",
        "--seed", "3", "--eval-k", "128",
    ])
    assert code == 0
    with (out / "results.csv").open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 1
    assert rows[0]["n"] == "256"
    assert float(rows[0]["w1"]) > 0
    summary = json.loads((out / "summary.json").read_text())
    [group] = summary["groups"]
    assert (group["d_prime"], group["epsilon"], group["n"], group["trials"]) == (2, 1.0, 256, 1)


def test_sweep_rows_record_distinct_seeds(tmp_path):
    out = tmp_path / "sweep2"
    code = main([
        "sweep", "--out", str(out), "--dim", "4", "--planted-dprime", "2",
        "--n-grid", "1024,128", "--trials", "2", "--dprime", "2", "--subroutine", "pmm",
        "--seed", "3", "--eval-k", "64",
    ])
    assert code == 0
    with (out / "results.csv").open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 4
    assert len({row["seed"] for row in rows}) == 4
    assert all(float(row["stage_w1"]) > 0 for row in rows)
    summary = json.loads((out / "summary.json").read_text())
    assert "2" in summary["slopes"]
    assert isinstance(summary["stage_slopes"]["2"], float)
    assert all(group["mean_stage_w1"] > 0 for group in summary["groups"])
    # "1024" sorts before "128" as a string; the groups keep numeric order
    assert [(group["n"], group["trials"]) for group in summary["groups"]] == [(128, 2), (1024, 2)]


def test_sweep_stage_term_ignores_eval_flags(tmp_path):
    runs = {"exact": [], "sampled": ["--metric", "l2", "--eval-k", "32", "--eval-max-cells", "1"]}
    for name, extra in runs.items():
        flags = ["--dim", "4", "--planted-dprime", "2", "--n-grid", "128", "--trials", "2", "--dprime", "2", *extra]
        assert main(["sweep", "--out", str(tmp_path / name), "--subroutine", "pmm", *flags]) == 0
        with (tmp_path / name / "results.csv").open() as handle:
            runs[name] = list(csv.DictReader(handle))
        assert [row["w1_estimator"] for row in runs[name]] == [name, name]
    assert [row["stage_w1"] for row in runs["exact"]] == [row["stage_w1"] for row in runs["sampled"]]


def test_sweep_deterministic_wrt_jobs(tmp_path):
    args = lambda out, jobs: [
        "sweep", "--out", str(out), "--dim", "4", "--planted-dprime", "2",
        "--n-grid", "128,256", "--trials", "2", "--dprime", "2", "--subroutine", "pmm",
        "--seed", "9", "--eval-k", "64", "--jobs", str(jobs),
    ]
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(args(out1, 1)) == 0
    assert main(args(out2, 3)) == 0
    with (out1 / "results.csv").open() as h1, (out2 / "results.csv").open() as h2:
        rows1 = [{k: v for k, v in row.items() if k != "generate_seconds"} for row in csv.DictReader(h1)]
        rows2 = [{k: v for k, v in row.items() if k != "generate_seconds"} for row in csv.DictReader(h2)]
    assert all(row["stage_w1"] for row in rows1)
    assert rows1 == rows2


def test_sweep_rejects_epsilon_and_names_epsilon_grid(tmp_path, capsys):
    out = tmp_path / "sweep-eps"
    code = main([
        "sweep", "--out", str(out), "--dim", "4", "--planted-dprime", "2",
        "--n-grid", "128", "--trials", "1", "--dprime", "2", "--subroutine", "pmm",
        "--epsilon", "5",
    ])
    assert code == 2
    assert not out.exists()
    assert "--epsilon-grid" in capsys.readouterr().err


def test_sweep_runs_at_epsilon_grid_budgets(tmp_path):
    out = tmp_path / "sweep-grid"
    code = main([
        "sweep", "--out", str(out), "--dim", "4", "--planted-dprime", "2",
        "--n-grid", "128", "--trials", "1", "--dprime", "2", "--subroutine", "pmm",
        "--epsilon-grid", "5", "--eval-k", "64",
    ])
    assert code == 0
    with (out / "results.csv").open() as handle:
        rows = list(csv.DictReader(handle))
    assert [float(row["epsilon"]) for row in rows] == [5.0]


def test_run_record_replays_to_identical_output(tmp_path):
    # the record's config snapshot + seed reproduce the synthetic file exactly
    from lowdp.pipeline import PipelineConfig, generate

    data, _ = planted_subspace_dataset(150, 4, 2, SeededGenerator(6))
    inp = tmp_path / "input.csv"
    write_points_csv(inp, data.points)
    out = tmp_path / "replay"
    assert main(_generate_args(inp, out)) == 0

    record = json.loads((out / "run_record.json").read_text())
    config = PipelineConfig(**record["provenance"]["config"])
    replayed = generate(data, config)
    original, _ = ingest(out / "synthetic.csv")
    assert np.array_equal(replayed.points, original.points)


def test_audit_command(tmp_path):
    out = tmp_path / "audit.json"
    code = main([
        "audit", "--mechanism", "integer-laplace-count", "--epsilon", "1.0",
        "--samples", "100000", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["within_bound"]


def test_empty_synthetic_output_writes_header_and_warning(tmp_path):
    # two points with a noisy root count clipped to zero: the documented
    # degenerate case emits an empty CSV (header only) plus a warning flag
    inp = tmp_path / "tiny.csv"
    _write_csv(inp, [[0.2, 0.4], [0.8, 0.6]])
    out = tmp_path / "empty"
    code = main([
        "generate", "--input", str(inp), "--out", str(out),
        "--epsilon", "3.0", "--dprime", "1", "--subroutine", "pmm", "--seed", "2",
    ])
    assert code == 0
    lines = (out / "synthetic.csv").read_text().strip().splitlines()
    assert lines == ["x0,x1"]
    record = json.loads((out / "run_record.json").read_text())
    assert record["provenance"]["warning"] == "empty-output"
    assert record["provenance"]["m"] == 0


def test_evaluate_accepts_the_empty_release_generate_writes(tmp_path):
    inp = tmp_path / "tiny.csv"
    _write_csv(inp, [[0.2, 0.4], [0.8, 0.6]])
    out = tmp_path / "empty"
    flags = ["--epsilon", "3.0", "--dprime", "1", "--subroutine", "pmm", "--seed", "2", "--evaluate"]
    assert main(["generate", "--input", str(inp), "--out", str(out), *flags]) == 0
    assert json.loads((out / "run_record.json").read_text())["w1_estimator"] == "empty"
    report = tmp_path / "eval.json"
    code = main(["evaluate", "--input", str(inp), "--synthetic", str(out / "synthetic.csv"), "--out", str(report), "--w2"])
    assert code == 0
    record = json.loads(report.read_text())
    assert (record["w1"], record["w1_estimator"], record["w2"]) == (None, "empty", None)


def test_evaluate_one_synthetic_point_gets_its_exact_w1(tmp_path):
    inp, syn, report = tmp_path / "in.csv", tmp_path / "one.csv", tmp_path / "eval.json"
    _write_csv(inp, [[0.2, 0.4], [0.8, 0.6], [0.5, 0.1]])
    _write_csv(syn, [[0.5, 0.5]], header=["x0", "x1"])
    assert main(["evaluate", "--input", str(inp), "--synthetic", str(syn), "--out", str(report)]) == 0
    record = json.loads(report.read_text())
    # every input point moves to the one synthetic point: mean sup distance (0.3 + 0.3 + 0.4) / 3
    assert record["w1_estimator"] == "exact"
    assert record["w1"] == pytest.approx(1.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([], "1 columns, expected 2"),
        ([[0.5, "x"]], "non-numeric cell at row 1, column 2"),
        ([[0.5, 1.5]], "column 2 is outside"),
    ],
)
def test_evaluate_checks_the_synthetic_cells(tmp_path, capsys, rows, message):
    inp, syn = tmp_path / "in.csv", tmp_path / "syn.csv"
    _write_csv(inp, [[0.2, 0.4], [0.8, 0.6]])
    _write_csv(syn, rows, header=["x0"] if not rows else None)
    assert main(["evaluate", "--input", str(inp), "--synthetic", str(syn), "--out", str(tmp_path / "e.json")]) == 2
    assert message in capsys.readouterr().err


def test_evaluate_input_still_needs_two_points(tmp_path, capsys):
    inp, syn = tmp_path / "in.csv", tmp_path / "syn.csv"
    _write_csv(inp, [[0.2, 0.4]])
    _write_csv(syn, [[0.2, 0.4], [0.8, 0.6]])
    assert main(["evaluate", "--input", str(inp), "--synthetic", str(syn), "--out", str(tmp_path / "e.json")]) == 2
    assert "n >= 2" in capsys.readouterr().err
