import csv
import json

import numpy as np
import pytest

from lowdp.cli import ingest, main, write_points_csv
from lowdp.errors import IngestError
from lowdp.noise import SeededGenerator
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
    assert "groups" in summary


def test_sweep_rows_record_distinct_seeds(tmp_path):
    out = tmp_path / "sweep2"
    code = main([
        "sweep", "--out", str(out), "--dim", "4", "--planted-dprime", "2",
        "--n-grid", "128,256", "--trials", "2", "--dprime", "2", "--subroutine", "pmm",
        "--seed", "3", "--eval-k", "64",
    ])
    assert code == 0
    with (out / "results.csv").open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 4
    assert len({row["seed"] for row in rows}) == 4
    summary = json.loads((out / "summary.json").read_text())
    assert "2" in summary["slopes"]


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
