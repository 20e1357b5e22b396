"""End-to-end CLI behavior: reports, formats, exit codes, reproducibility."""

import gc
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chbound
from chbound.cli import build_parser, main
from chbound.entropy_core import BoundParams, chernoff_bound, kl_div
from conftest import distinct_sums_model

BOUND_N20 = 0.19288568522336422  # mpmath oracle for exp(-20 D(0.7 || 0.5))


@pytest.fixture(scope="session")
def specs(tmp_path_factory):
    root = tmp_path_factory.mktemp("specs")
    docs = {
        "b4": {"kind": "boolean_iid", "n": 4, "params": {"p": 0.5}},
        "b10": {"kind": "boolean_iid", "n": 10, "params": {"p": 0.4}},
        "b20": {"kind": "boolean_iid", "n": 20, "params": {"p": 0.5}},
        "pair": {"kind": "planted_clique", "n": 2, "params": {"p": 0.5, "k": 2}},
        "shared10": {"kind": "planted_clique", "n": 10, "params": {"p": 0.7, "k": 10}},
        "table": {
            "kind": "explicit_table",
            "params": {
                "support": [{"x": [0, 1], "p": 0.5}, {"x": [1, 0], "p": 0.5}]
            },
        },
    }
    paths = {}
    for name, doc in docs.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


def cli_process(*argv, code=None, threads=None):
    """``python -m chbound.cli *argv`` (or ``python -c code``) in a fresh
    interpreter with this package's sources on the path, OPENBLAS_NUM_THREADS
    at ``threads`` if given, and block-buffered standard streams, so a report
    that is never flushed is lost."""
    src = str(Path(chbound.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    head = ["-c", code] if code else ["-m", "chbound.cli"]
    return subprocess.run([sys.executable, *head, *argv], env=env, capture_output=True,
                          timeout=300, check=False)


def blas_thread_outputs(*argv, workers=(), codes=(0,)):
    """Standard output of ``python -m chbound.cli *argv`` at
    OPENBLAS_NUM_THREADS 1 and 2, each also at every ``--workers`` value in
    ``workers``; each run must exit with one of ``codes`` and print a report."""
    outputs = []
    for threads in ("1", "2"):
        for extra in [["--workers", w] for w in workers] or [[]]:
            proc = cli_process(*argv, *extra, threads=threads)
            assert proc.returncode in codes and proc.stdout, proc.stderr
            outputs.append(proc.stdout)
    return outputs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, f"expected a report on stdout, stderr: {err}"
    return code, json.loads(out)


class TestBound:
    def test_interior_report(self, capsys):
        code, doc = run_json(capsys, "bound", "--n", "20", "--c", "0.5", "--t", "0.2")
        assert code == 0
        assert doc["schema_version"] == "1"
        assert doc["command"] == "bound"
        res = doc["result"]
        assert res["case"] == "interior"
        assert res["bound"] == pytest.approx(BOUND_N20, rel=1e-13)
        assert res["threshold"] == pytest.approx(14.0)
        assert res["lambda_star"] == pytest.approx(0.2 / (0.5 * 0.7), rel=1e-12)
        assert res["g_value"] == pytest.approx(math.exp(-kl_div(0.7, 0.5)), rel=1e-12)

    def test_boundary_case(self, capsys):
        code, doc = run_json(capsys, "bound", "--n", "4", "--c", "0.5", "--t", "0.5")
        assert code == 0
        assert doc["result"]["case"] == "boundary"
        assert doc["result"]["bound"] == pytest.approx(0.5**4, rel=1e-15)
        assert doc["result"]["lambda_star"] is None

    def test_degenerate_case(self, capsys):
        code, doc = run_json(capsys, "bound", "--n", "4", "--c", "0", "--t", "0")
        assert code == 0 and doc["result"]["case"] == "degenerate"
        assert doc["result"]["bound"] == 1.0
        _, doc = run_json(capsys, "bound", "--n", "4", "--c", "0", "--t", "0.3")
        assert doc["result"]["bound"] == 0.0

    def test_scalar_broadcast_matches_explicit_list(self, capsys):
        _, short = run_json(capsys, "bound", "--n", "3", "--c", "0.5", "--t", "0.2")
        _, full = run_json(capsys, "bound", "--n", "3", "--c", "0.5,0.5,0.5", "--t", "0.2")
        assert short["result"] == full["result"]

    def test_shifted_range_parameters(self, capsys):
        code, doc = run_json(
            capsys, "bound", "--n", "3", "--a", "-0.25", "--b", "1",
            "--c", "0.55,0.275,0.25", "--t", "0.2",
        )
        assert code == 0
        assert doc["result"]["case"] == "interior"
        assert 0.0 < doc["result"]["bound"] < 1.0

    def test_invalid_parameters_exit_2(self, capsys):
        code, out, err = run(capsys, "bound", "--n", "4", "--c", "2", "--t", "0.1")
        assert code == 2 and not out and "error:" in err
        code, _, _ = run(capsys, "bound", "--n", "4", "--c", "0.5,0.5", "--t", "0.1")
        assert code == 2
        code, _, _ = run(capsys, "bound", "--n", "4", "--c", "0.5", "--t", "-0.1")
        assert code == 2
        code, out, err = run(capsys, "bound", "--n", "4", "--c", "abc", "--t", "0.1")
        assert code == 2 and not out and "--c must be a number or comma list" in err

    def test_missing_required_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--n", "4", "--t", "0.1"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestVerify:
    def test_independent_model_passes(self, specs, capsys):
        code, doc = run_json(
            capsys, "verify", "--spec", specs["b4"], "--c", "0.5", "--t", "0.25"
        )
        assert code == 0
        res = doc["result"]
        assert res["all_passed"] and res["hypothesis_ok"] and res["explained"]
        assert res["failed_links"] == [] and res["certificates_failing"] == []
        assert res["certificates_total"] == 16
        assert len(res["links"]) == 4
        assert all(link["passed"] for link in res["links"])
        assert res["tail_probability"] == pytest.approx(5 / 16, rel=1e-12)
        assert res["tail_le_bound"] is True
        assert doc["config"]["lambda"] == pytest.approx(2 / 3, rel=1e-12)

    def test_dependent_model_is_explained_not_internal(self, specs, capsys):
        code, doc = run_json(
            capsys, "verify", "--spec", specs["pair"], "--c", "0.5", "--t", "0.25"
        )
        assert code == 0  # the failure is fully explained by a bad certificate
        res = doc["result"]
        assert not res["all_passed"] and not res["hypothesis_ok"]
        assert res["explained"] is True
        assert res["failed_links"] == ["certified_moments_vs_process"]
        assert [c["subset"] for c in res["certificates_failing"]] == [[0, 1]]
        failing = res["certificates_failing"][0]
        assert failing["exact_moment"] == pytest.approx(0.5)
        assert failing["bound_product"] == pytest.approx(0.25)

    def test_explicit_lambda_and_subset_cap(self, specs, capsys):
        code, doc = run_json(
            capsys, "verify", "--spec", specs["b4"], "--c", "0.5", "--t", "0.25",
            "--lambda", "0.3", "--max-subset-size", "2",
        )
        assert code == 0
        assert doc["result"]["lambda"] == 0.3
        assert doc["result"]["certificates_total"] == 11  # sizes 0..2 of 4

    def test_n_crosscheck(self, specs, capsys):
        code, _, err = run(
            capsys, "verify", "--spec", specs["b4"], "--n", "3", "--c", "0.5", "--t", "0.25"
        )
        assert code == 2 and "does not match spec" in err

    def test_unreadable_or_malformed_spec(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "verify", "--spec", str(tmp_path / "none.json"),
            "--c", "0.5", "--t", "0.25",
        )
        assert code == 2 and "cannot read spec" in err
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "verify", "--spec", str(bad), "--c", "0.5", "--t", "0.25")
        assert code == 2 and "not valid JSON" in err

    @pytest.mark.parametrize("data", [
        b'\xef\xbb\xbf{"kind": "boolean_iid", "n": 3, "params": {"p": 0.5}}',
        '{"kind": "boolean_iid", "n": 3, "params": {"p": 0.5}}'.encode("utf-16"),
    ], ids=["utf8_bom", "utf16"])
    def test_spec_bytes_are_strict_utf8(self, tmp_path, capsys, data):
        # the spec is read as bytes and decoded as UTF-8 text, as it was read
        # before; bytes that are no UTF-8 are refused (they were a traceback)
        path = tmp_path / "spec.json"
        path.write_bytes(data)
        code, out, err = run(capsys, "verify", "--spec", str(path), "--c", "0.5", "--t", "0.25")
        assert code == 2 and not out and "not valid JSON" in err

    def test_large_support_needs_atom_cap(self, tmp_path, capsys):
        # 2^20 distinct atom sums: the fold's last step pairs 2^19 sums with 2 rows
        spec = tmp_path / "distinct20.json"
        spec.write_text(json.dumps({"kind": "independent", "n": 20, "params": {
            "marginals": distinct_sums_model(20).marginals}}))
        code, out, err = run(capsys, "verify", "--spec", str(spec), "--c", "0.5", "--t", "0.2")
        assert code == 4 and not out and "over atom_cap=1000000" in err
        code, doc = run_json(
            capsys, "verify", "--spec", str(spec), "--c", "0.5", "--t", "0.2",
            "--atom-cap", str(1 << 20), "--max-subset-size", "1",
        )
        assert code == 0 and doc["config"]["atom_cap"] == 1 << 20
        assert doc["result"]["all_passed"]
        assert doc["result"]["bound"] == pytest.approx(BOUND_N20, rel=1e-13)

    def test_table_rows_over_atom_cap(self, tmp_path, capsys):
        spec = tmp_path / "table11.json"
        spec.write_text(json.dumps({"kind": "explicit_table", "params": {
            "support": [{"x": [i / 10], "p": 1 / 11} for i in range(11)]}}))
        argv = ["--spec", str(spec), "--c", "0.5", "--t", "0.2"]
        code, out, err = run(capsys, "verify", *argv, "--atom-cap", "10")
        assert code == 4 and not out and "11 rows of factor 0, over atom_cap=10" in err
        code, doc = run_json(capsys, "verify", *argv, "--atom-cap", "11")
        assert code == 0 and doc["result"]["all_passed"]
        # sampling still runs; the exact fields stay empty
        code, doc = run_json(capsys, "simulate", *argv, "--atom-cap", "10", "--samples", "100")
        assert code == 0 and doc["result"]["exact"] is None and doc["result"]["abs_z"] is None

    def test_boolean_n200_at_default_cap(self, tmp_path, capsys):
        # 2^200 atoms, but the fold holds at most 201 sums
        spec = tmp_path / "b200.json"
        spec.write_text(json.dumps({"kind": "boolean_iid", "n": 200, "params": {"p": 0.4}}))
        code, doc = run_json(capsys, "verify", "--spec", str(spec), "--c", "0.4", "--t", "0.1",
                             "--max-subset-size", "2")
        assert code == 0 and doc["config"]["atom_cap"] == 10**6
        assert doc["result"]["tail_le_bound"] is True and doc["result"]["all_passed"]
        assert doc["result"]["certificates_total"] == 1 + 200 + 200 * 199 // 2

    def test_report_independent_of_blas_threads(self, tmp_path):
        # OpenBLAS splits dot products of 16384+ elements across threads,
        # which would change the rounding of every exact sum with the count.
        rng = np.random.default_rng(7)
        values, weights = rng.random((16384, 4)), rng.random(16384)
        support = [{"x": x, "p": p} for x, p in zip(values.tolist(), weights / weights.sum())]
        spec = tmp_path / "table.json"
        spec.write_text(json.dumps({"kind": "explicit_table", "params": {"support": support}}))
        outputs = blas_thread_outputs("verify", "--spec", str(spec), "--c", "0.3", "--t", "0.2")
        assert json.loads(outputs[0])["result"]["certificates_failing"]
        assert outputs[0] == outputs[1]

    def test_wide_report_independent_of_blas_threads(self, tmp_path):
        # Certificates of a 2^16-atom model from the closed form, chain sums
        # from the folded law: no step may depend on BLAS threading.
        spec = tmp_path / "b16.json"
        spec.write_text(json.dumps({"kind": "boolean_iid", "n": 16, "params": {"p": 0.5}}))
        outputs = blas_thread_outputs("verify", "--spec", str(spec), "--c", "0.5",
                                      "--t", "0.25", "--max-subset-size", "2")
        assert json.loads(outputs[0])["result"]["certificates_total"] == 137
        assert outputs[0] == outputs[1]

    def test_spec_on_stdin(self, specs, capsys, monkeypatch):
        doc = {"kind": "boolean_iid", "n": 4, "params": {"p": 0.5}}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, report = run_json(capsys, "verify", "--spec", "-", "--c", "0.5", "--t", "0.25")
        assert code == 0 and report["result"]["all_passed"]

    def test_table_on_a_real_stdin(self, specs):
        # a table piped to a real stdin gives the report read from its file
        argv = ["verify", "--c", "0.5", "--t", "0.25"]
        src = str(Path(chbound.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        piped = subprocess.run([sys.executable, "-m", "chbound.cli", *argv, "--spec", "-"],
                               input=Path(specs["table"]).read_bytes(), env=env,
                               capture_output=True, timeout=300, check=True)
        from_file = cli_process(*argv, "--spec", specs["table"])
        assert from_file.returncode == 0
        assert piped.stdout.replace(b'"-"', json.dumps(specs["table"]).encode()) == from_file.stdout


class TestSimulate:
    def test_lambda_zero_product_is_one(self, specs, capsys):
        code, doc = run_json(
            capsys, "simulate", "--spec", specs["b4"], "--c", "0.5", "--t", "0.25",
            "--lambda", "0", "--samples", "1000",
        )
        assert code == 0
        res = doc["result"]
        assert res["mean"] == 1.0 and res["std_error"] == 0.0
        assert res["exact"] == 1.0 and res["abs_z"] is None

    def test_estimate_consistent_with_exact(self, specs, capsys):
        code, doc = run_json(
            capsys, "simulate", "--spec", specs["b4"], "--c", "0.5", "--t", "0.25",
            "--samples", "40000", "--seed", "7",
        )
        assert code == 0
        res = doc["result"]
        assert res["exact"] is not None and res["abs_z"] is not None
        assert res["abs_z"] < 5.0
        assert res["n_samples"] == 40000 and not res["conditional_on_tail"]

    def test_conditional_mode(self, specs, capsys):
        code, doc = run_json(
            capsys, "simulate", "--spec", specs["b4"], "--c", "0.5", "--t", "0.25",
            "--conditional", "--samples", "2000", "--seed", "3",
        )
        assert code == 0
        res = doc["result"]
        assert res["conditional_on_tail"] and res["n_samples"] == 2000
        assert res["exact"] is None and res["abs_z"] is None
        assert 0.0 < res["mean"] <= 1.0

    def test_conditional_zero_tail_exhausts_budget(self, specs, capsys):
        code, out, err = run(
            capsys, "simulate", "--spec", specs["table"], "--c", "0.5", "--t", "0.25",
            "--conditional", "--samples", "100", "--max-proposals", "20000",
        )
        assert code == 4 and not out and "error:" in err

    def test_conditional_impossible_tail_fails_fast(self, specs, capsys):
        # the largest atom sum is 1, the threshold 1.4; the default budget of
        # 10^7 proposals is not drawn
        code, out, err = run(
            capsys, "simulate", "--spec", specs["table"], "--c", "0.4", "--t", "0.3",
            "--conditional", "--samples", "100",
        )
        assert code == 4 and not out
        assert "No atom the model can draw reaches the threshold 1.4" in err
        assert "cannot help" in err

    @pytest.mark.parametrize("support", [
        [{"x": "01", "p": 1.0}], [{"x": [0, 1], "p": "1"}], [{"x": ["1.5", 2], "p": 1}],
    ])
    def test_strings_are_not_numbers(self, tmp_path, capsys, support):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "explicit_table", "params": {"support": support}}))
        code, out, err = run(capsys, "verify", "--spec", str(path), "--c", "0.5", "--t", "0.25")
        assert code == 2 and not out
        assert "explicit_table atoms must be (vector, probability) pairs" in err

    @pytest.mark.parametrize("doc,parts", [
        ({"kind": "planted_clique", "n": 10, "params": {"p": 0.7, "k": 3}}, 1),
        ({"kind": "exchangeable_mixture", "n": 6, "params": {"rho": 0.3, "p": 0.4}}, 2),
    ])
    def test_exact_field_folds_each_part_once(self, tmp_path, capsys, monkeypatch, doc, parts):
        # The weighted fold answers both whether the model fits and its exact mean.
        calls = []
        fold = chbound.JointModel._fold_factors
        monkeypatch.setattr(chbound.JointModel, "_fold_factors",
                            lambda self, *args: calls.append(self) or fold(self, *args))
        spec = tmp_path / "model.json"
        spec.write_text(json.dumps(doc))
        code, report = run_json(capsys, "simulate", "--spec", str(spec), "--c", "0.5",
                                "--t", "0.1", "--samples", "1000")
        assert code == 0 and report["result"]["exact"] is not None
        assert len(calls) == len({id(part) for part in calls}) == parts

    def test_worker_count_is_invisible_in_output(self, specs, capsys, tmp_path):
        outs = []
        for w in ("1", "2"):
            path = tmp_path / f"sim{w}.json"
            code, out, _ = run(
                capsys, "simulate", "--spec", specs["b4"], "--c", "0.5", "--t", "0.25",
                "--samples", "20000", "--seed", "11", "--workers", w,
                "--out", str(path),
            )
            assert code == 0 and out == ""  # --out suppresses stdout
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_report_independent_of_blas_threads_and_workers(self, tmp_path):
        # The same 16384-atom table as the verify guard: the estimate and the
        # exact field must not depend on BLAS threading or on --workers.
        rng = np.random.default_rng(7)
        values, weights = rng.random((16384, 4)), rng.random(16384)
        support = [{"x": x, "p": p} for x, p in zip(values.tolist(), weights / weights.sum())]
        spec = tmp_path / "table.json"
        spec.write_text(json.dumps({"kind": "explicit_table", "params": {"support": support}}))
        outputs = blas_thread_outputs("simulate", "--spec", str(spec), "--c", "0.3", "--t", "0.2",
                                      "--samples", "100000", "--seed", "5", workers=("1", "2"))
        assert json.loads(outputs[0])["result"]["exact"] is not None
        assert outputs.count(outputs[0]) == 4

    @pytest.mark.parametrize("mode", [[], ["--conditional"]], ids=["plain", "conditional"])
    def test_planted_report_independent_of_blas_threads_and_workers(self, tmp_path, mode):
        # Planted n=50 draws its rows through the byte-per-coin sampler, in
        # several blocks: neither BLAS threading nor --workers may move it.
        spec = tmp_path / "planted50.json"
        spec.write_text(json.dumps({"kind": "planted_clique", "n": 50,
                                    "params": {"p": 0.5, "k": 5}}))
        outputs = blas_thread_outputs("simulate", "--spec", str(spec), "--c", "0.5", "--t", "0.1",
                                      "--samples", "30000", "--seed", "5", *mode,
                                      workers=("1", "2"))
        assert json.loads(outputs[0])["result"]["conditional_on_tail"] == bool(mode)
        assert outputs.count(outputs[0]) == 4

    def test_boolean_conditional_report_independent_of_blas_threads_and_workers(self, tmp_path):
        # Boolean n=20 in conditional mode weighs its rows by their count of
        # ones, in several blocks: neither BLAS threading nor --workers may move it.
        spec = tmp_path / "boolean20.json"
        spec.write_text(json.dumps({"kind": "boolean_iid", "n": 20, "params": {"p": 0.5}}))
        outputs = blas_thread_outputs("simulate", "--spec", str(spec), "--c", "0.5", "--t", "0.15",
                                      "--samples", "5000", "--seed", "5", "--block-size", "4096",
                                      "--conditional", workers=("1", "2"))
        assert json.loads(outputs[0])["result"]["conditional_on_tail"]
        assert outputs.count(outputs[0]) == 4


class TestDetect:
    def test_shared_bit_model_found(self, specs, capsys):
        code, doc = run_json(
            capsys, "detect", "--spec", specs["shared10"], "--c", "0.4", "--t", "0.3",
            "--alpha", "0.16", "--seed", "0",
        )
        assert code == 0
        res = doc["result"]
        assert res["verdict"] == "found" and len(res["subset"]) >= 1
        assert res["empirical_moment"] > res["threshold"]
        assert doc["config"]["lambda"] == pytest.approx(0.3 / (0.6 * 0.7), rel=1e-12)

    def test_independent_model_not_found(self, specs, capsys):
        code, doc = run_json(
            capsys, "detect", "--spec", specs["b10"], "--c", "0.4", "--t", "0.3",
            "--alpha", "0.16", "--seed", "0",
        )
        assert code == 3
        assert doc["result"]["verdict"] == "not_found"
        assert doc["result"]["subset"] == []

    def test_budget_overrides_are_echoed(self, specs, capsys):
        code, doc = run_json(
            capsys, "detect", "--spec", specs["shared10"], "--c", "0.4", "--t", "0.3",
            "--alpha", "0.16", "--seed", "0", "--lambda", "0.7",
            "--m-search", "4000", "--m-confirm", "2000", "--margin", "0.05",
        )
        cfg = doc["config"]
        assert cfg["lambda"] == 0.7
        assert cfg["m_search"] == 4000 and cfg["m_confirm"] == 2000
        assert cfg["margin_threshold"] == 0.05
        assert doc["result"]["samples_used"] <= 6000

    def test_alpha_warning_printed_once_at_a_chbound_line(self, tmp_path):
        # A budget override rebuilds the WitnessParams; the warning that alpha
        # is below the tail bound must still appear once, naming chbound code.
        spec = tmp_path / "planted.json"
        spec.write_text(json.dumps({"kind": "planted_clique", "n": 10,
                                    "params": {"p": 0.5, "indices": [1, 4, 8]}}))
        proc = cli_process("detect", "--spec", str(spec), "--c", "0.5", "--t", "0.2",
                           "--alpha", "0.01", "--m-search", "20000")
        stderr = proc.stderr.decode()
        assert proc.returncode in (0, 3), stderr
        assert json.loads(proc.stdout)["command"] == "detect"
        lines = [line for line in stderr.splitlines() if "UserWarning" in line]
        assert len(lines) == 1, stderr
        assert "below the certified tail bound" in lines[0]
        location = Path(lines[0].split(":", 1)[0]).resolve()
        assert location.parent == Path(chbound.__file__).resolve().parent, lines[0]

    def test_unreachable_min_rounds_reports_no_candidates(self, specs, capsys):
        code, doc = run_json(
            capsys, "detect", "--spec", specs["shared10"], "--c", "0.4", "--t", "0.3",
            "--alpha", "0.16", "--m-search", "50", "--min-rounds", "51",
        )
        assert code == 3
        assert doc["result"]["candidates"] == 0
        assert "no non-empty subset" in doc["result"]["note"]
        assert doc["result"]["samples_used"] == 50

    def test_invalid_alpha_exits_2(self, specs, capsys):
        code, _, err = run(
            capsys, "detect", "--spec", specs["b10"], "--c", "0.4", "--t", "0.3",
            "--alpha", "1.5",
        )
        assert code == 2 and "alpha" in err

    @pytest.mark.parametrize("flags,message", [
        (["--a", "-1", "--b", "2", "--c", "0.4", "--t", "0.3"], "needs a_i = 0 and b = 1"),
        (["--c", ",".join(["0.4"] * 9 + ["0.5"]), "--t", "0.3"], "needs one c for every variable"),
        (["--c", "0", "--t", "0.3"], "needs c > 0"),
        (["--c", "0.4", "--t", "0"], "needs t > 0"),
    ])
    def test_problems_detection_cannot_take_exit_2(self, specs, capsys, flags, message):
        # detect takes the shared bound flags; what it cannot search yet is refused.
        code, out, err = run(capsys, "detect", "--spec", specs["b10"], *flags, "--alpha", "0.16")
        assert code == 2 and out == ""
        assert message in err

    def test_report_independent_of_blas_threads_and_workers(self, tmp_path):
        # The same 16384-atom table as the verify guard: the search and the
        # confirm phase must not depend on BLAS threading or on --workers.
        rng = np.random.default_rng(7)
        values, weights = rng.random((16384, 4)), rng.random(16384)
        support = [{"x": x, "p": p} for x, p in zip(values.tolist(), weights / weights.sum())]
        spec = tmp_path / "table.json"
        spec.write_text(json.dumps({"kind": "explicit_table", "params": {"support": support}}))
        outputs = blas_thread_outputs("detect", "--spec", str(spec), "--c", "0.4", "--t", "0.3",
                                      "--alpha", "0.16", "--seed", "5", workers=("1", "2"),
                                      codes=(0, 3))
        assert json.loads(outputs[0])["result"]["candidates"] > 0
        assert outputs.count(outputs[0]) == 4


_NULL_NOTE = "no non-empty subset was drawn at least 5 times in 50000 search rounds"


class TestDetectBenchmarkShapes:
    """``detect`` at the job shapes of the benchmark's detect workload, with
    results frozen from the witness kernel before its tally took native
    64-bit keys, and configs frozen before ``detect`` took the shared bound
    flags: planted n = 10 ends found, Boolean n = 30 draws no set five
    times."""

    PLANTED10 = {"kind": "planted_clique", "n": 10, "params": {"p": 0.7, "k": 10}}
    BOOLEAN30 = {"kind": "boolean_iid", "n": 30, "params": {"p": 0.3}}
    CONFIG = {"alpha": 0.16, "block_size": 8192, "c": 0.4, "lambda": 0.7142857142857143,
              "m_confirm": 20000, "margin_threshold": 3.6946738055472154e-28,
              "min_rounds_per_subset": 5, "t": 0.3}
    PLANTED10_CONFIG = {**CONFIG, "kind": "planted_clique", "n": 10, "m_search": 200000}
    BOOLEAN30_CONFIG = {**CONFIG, "kind": "boolean_iid", "n": 30, "m_search": 50000}

    @pytest.mark.parametrize("doc,extra,seed,code,config,result", [
        (PLANTED10, ["--m-search", "200000"], 3, 0, PLANTED10_CONFIG, {
            "verdict": "found", "subset": [2, 3, 5, 8], "empirical_moment": 0.6982,
            "threshold": 0.025600000000000005, "confirm_std_error": 0.0032459767125228903,
            "samples_used": 220000, "candidates": 992, "note": ""}),
        (PLANTED10, ["--m-search", "200000"], 1234567, 0, PLANTED10_CONFIG, {
            "verdict": "found", "subset": [2, 4, 6, 9], "empirical_moment": 0.6978,
            "threshold": 0.025600000000000005, "confirm_std_error": 0.0032471965161136635,
            "samples_used": 220000, "candidates": 996, "note": ""}),
        (BOOLEAN30, [], 3, 3, BOOLEAN30_CONFIG, {
            "verdict": "not_found", "subset": [], "empirical_moment": 0.0, "threshold": 0.0,
            "confirm_std_error": 0.0, "samples_used": 50000, "candidates": 0,
            "note": _NULL_NOTE}),
        (BOOLEAN30, [], 1234567, 3, BOOLEAN30_CONFIG, {
            "verdict": "not_found", "subset": [], "empirical_moment": 0.0, "threshold": 0.0,
            "confirm_std_error": 0.0, "samples_used": 50000, "candidates": 0,
            "note": _NULL_NOTE}),
    ])
    def test_pinned_results(self, tmp_path, capsys, doc, extra, seed, code, config, result):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        got_code, report = run_json(capsys, "detect", "--spec", str(spec), "--c", "0.4",
                                    "--t", "0.3", "--alpha", "0.16", *extra, "--seed", str(seed))
        assert got_code == code
        assert report["config"] == {**config, "spec": str(spec), "seed": seed}
        assert report["result"] == result


class TestSweep:
    def test_t_sweep_is_monotone_and_dominates_exact_tail(self, specs, capsys):
        code, doc = run_json(
            capsys, "sweep", "--n", "20", "--c", "0.5", "--points", "50",
            "--spec", specs["b20"], "--atom-cap", str(1 << 21),
        )
        assert code == 0
        rows = doc["result"]["rows"]
        assert len(rows) == 50
        assert doc["config"]["t_min"] == 0.0
        assert doc["config"]["t_max"] == pytest.approx(0.5)
        bounds = [r["bound"] for r in rows]
        assert all(lo >= hi - 1e-12 for lo, hi in zip(bounds, bounds[1:]))
        assert all(r["tail_le_bound"] for r in rows)
        assert all(r["exact_tail"] <= r["bound"] + 1e-12 for r in rows)
        last = rows[-1]
        assert last["case"] == "boundary"
        assert last["bound"] == pytest.approx(0.5**20, rel=1e-12)
        assert last["exact_tail"] == pytest.approx(0.5**20, rel=1e-12)

    def test_exact_tails_independent_of_blas_threads(self, specs):
        outputs = blas_thread_outputs("sweep", "--n", "20", "--c", "0.5", "--points", "50",
                                      "--spec", specs["b20"], "--atom-cap", "2097152")
        rows = json.loads(outputs[0])["result"]["rows"]
        assert len(rows) == 50 and all(row["exact_tail"] is not None for row in rows)
        assert outputs[0] == outputs[1]

    def test_single_point_matches_bound_command(self, capsys):
        _, swept = run_json(
            capsys, "sweep", "--n", "20", "--c", "0.5", "--points", "1",
            "--t-min", "0.2", "--t-max", "0.2",
        )
        _, direct = run_json(capsys, "bound", "--n", "20", "--c", "0.5", "--t", "0.2")
        row = swept["result"]["rows"][0]
        assert row["bound"] == direct["result"]["bound"]
        assert row["lambda_star"] == direct["result"]["lambda_star"]

    def test_lambda_sweep_brackets_the_optimum(self, capsys):
        code, doc = run_json(
            capsys, "sweep", "--over", "lambda", "--n", "4", "--c", "0.5",
            "--t", "0.2", "--points", "101", "--lambda-max", "0.99",
        )
        assert code == 0
        rows = doc["result"]["rows"]
        assert len(rows) == 101
        g_star = math.exp(-kl_div(0.7, 0.5))
        assert all(r["g_value"] >= g_star - 1e-12 for r in rows)
        assert all(r["g_power_n"] == pytest.approx(r["g_value"] ** 4, rel=1e-12) for r in rows)
        best = min(rows, key=lambda r: r["g_value"])
        assert abs(best["lambda"] - 0.2 / (0.5 * 0.7)) < 0.01

    def test_validation_failures(self, capsys):
        code, _, err = run(capsys, "sweep", "--n", "4", "--c", "0.5", "--points", "0")
        assert code == 2 and "--points" in err
        code, _, err = run(capsys, "sweep", "--over", "lambda", "--n", "4", "--c", "0.5")
        assert code == 2 and "--t" in err
        code, _, _ = run(
            capsys, "sweep", "--n", "4", "--c", "0.5", "--t-min", "0.4", "--t-max", "0.2"
        )
        assert code == 2
        code, _, err = run(capsys, "sweep", "--over", "lambda", "--n", "4", "--c", "0.5",
                           "--t", "0.5")
        assert code == 2 and "needs interior parameters" in err
        code, _, err = run(capsys, "sweep", "--over", "lambda", "--n", "4", "--c", "0.5",
                           "--t", "0.1", "--lambda-max", "1.0")
        assert code == 2 and "--lambda-max must lie in (0, 1)" in err


class TestOutputFormats:
    def test_csv_key_value_for_scalar_reports(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--n", "4", "--c", "0.5", "--t", "0.2", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "key,value"
        keys = {line.split(",", 1)[0] for line in lines[1:]}
        assert {"schema_version", "command", "result.bound", "result.case"} <= keys

    def test_csv_rows_table_for_sweep(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--n", "4", "--c", "0.5", "--points", "3", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split(",")[:3] == ["t", "case", "bound"]
        assert len(lines) == 4

    def test_json_is_stable_across_runs(self, specs, capsys):
        argv = (
            "simulate", "--spec", specs["b4"], "--c", "0.5", "--t", "0.25",
            "--samples", "5000", "--seed", "2",
        )
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second
        parsed = json.loads(first)
        assert parsed["config"]["seed"] == 2
        assert "workers" not in json.dumps(parsed)  # reports never mention workers

    def test_float_fields_round_trip_exactly(self, capsys):
        # json.dumps emits repr(float), so a parse of the report recovers the
        # exact double the library computed
        _, doc = run_json(capsys, "bound", "--n", "20", "--c", "0.5", "--t", "0.2")
        in_process = chernoff_bound(BoundParams.boolean(20, 0.5, 0.2))
        assert doc["result"]["bound"] == in_process

    @pytest.mark.parametrize("argv", [
        ["bound", "--n", "20", "--c", "0.5", "--t", "0.2"],
        ["bound", "--n", "4", "--c", "0.5", "--t", "0.5"],
        ["verify", "--spec", "{b10}", "--c", "0.4", "--t", "0.3"],
        ["verify", "--spec", "{shared10}", "--c", "0.4", "--t", "0.3", "--max-subset-size", "2"],
        ["simulate", "--spec", "{shared10}", "--c", "0.4", "--t", "0.3", "--samples", "2000"],
        ["simulate", "--spec", "{table}", "--c", "0.4", "--t", "0.1", "--samples", "2000",
         "--conditional", "--atom-cap", "1"],
        ["detect", "--spec", "{shared10}", "--c", "0.4", "--t", "0.3", "--alpha", "0.16"],
        ["detect", "--spec", "{b10}", "--c", "0.4", "--t", "0.3", "--alpha", "0.16"],
        ["sweep", "--n", "10", "--spec", "{b10}", "--c", "0.4", "--points", "5"],
        ["sweep", "--over", "lambda", "--n", "10", "--c", "0.4", "--t", "0.3", "--points", "5"],
    ], ids=["bound", "bound_boundary", "verify", "verify_failing", "simulate",
            "simulate_conditional_no_exact", "detect_found", "detect_not_found", "sweep_t",
            "sweep_lambda"])
    def test_reports_hold_builtin_types_only(self, specs, argv):
        # The report goes to json.dumps or the CSV flattener as it is built:
        # every node must be a builtin of exact type, every key a str.
        args = build_parser().parse_args([arg.format(**specs) for arg in argv])
        report, _ = args.handler(args)
        nodes = [report]
        for node in nodes:
            assert type(node) in (dict, list, str, int, float, bool, type(None)), (node, argv)
            if type(node) is dict:
                assert all(type(key) is str for key in node), (node, argv)
            nodes.extend(node.values() if type(node) is dict else
                         node if type(node) is list else ())


# One job per subcommand; "{name}" stands for the path of specs[name].
ENTRY_JOBS = {
    "bound": ["bound", "--n", "20", "--c", "0.5", "--t", "0.2"],
    "verify": ["verify", "--spec", "{b10}", "--c", "0.4", "--t", "0.3"],
    "simulate": ["simulate", "--spec", "{shared10}", "--c", "0.4", "--t", "0.3",
                 "--samples", "20000", "--seed", "3"],
    "detect": ["detect", "--spec", "{shared10}", "--c", "0.4", "--t", "0.3",
               "--alpha", "0.16", "--seed", "0"],
    "sweep": ["sweep", "--n", "10", "--spec", "{b10}", "--c", "0.4", "--points", "5",
              "--format", "csv"],
}


class TestProcessEntry:
    """``python -m chbound.cli`` runs ``cli.run``: ``main`` with the cyclic
    collector off and the heap frozen before exit.  Its reports, streams and
    exit codes are those of ``main`` in process, which leaves ``gc`` alone."""

    @pytest.mark.parametrize("command", sorted(ENTRY_JOBS))
    def test_process_writes_the_bytes_of_main(self, specs, tmp_path, capsys, command):
        argv = [arg.format(**specs) for arg in ENTRY_JOBS[command]]
        in_file, in_process = tmp_path / "process.out", tmp_path / "main.out"
        proc = cli_process(*argv, "--out", str(in_file))
        assert proc.returncode == main([*argv, "--out", str(in_process)]) == 0, proc.stderr
        assert in_file.read_bytes() == in_process.read_bytes()
        proc = cli_process(*argv)  # the whole report must reach stdout before exit
        code, out, err = run(capsys, *argv)
        assert proc.returncode == code == 0 and proc.stderr == err.encode() == b""
        assert proc.stdout == out.encode() == in_process.read_bytes()

    @pytest.mark.parametrize("spec,argv,exit_code", [
        ("{not json", ["verify", "--c", "0.5", "--t", "0.25"], 2),
        ('{"kind": "boolean_iid", "n": 10, "params": {"p": 0.4}}',
         ["detect", "--c", "0.4", "--t", "0.3", "--alpha", "0.16", "--seed", "0"], 3),
        ('{"kind": "boolean_iid", "n": 25, "params": {"p": 0.5}}',
         ["verify", "--c", "0.5", "--t", "0.2"], 4),
    ])
    def test_exit_codes_match_main(self, tmp_path, capsys, spec, argv, exit_code):
        path = tmp_path / "spec.json"
        path.write_text(spec)
        argv = [*argv, "--spec", str(path)]
        proc = cli_process(*argv)
        code, out, err = run(capsys, *argv)
        assert proc.returncode == code == exit_code
        assert (proc.stdout, proc.stderr) == (out.encode(), err.encode())
        if exit_code == 3:
            assert json.loads(out)["result"]["verdict"] == "not_found"
        else:
            assert not out and err.startswith("error: ")

    def test_main_and_import_leave_the_collector_alone(self, specs, tmp_path):
        state = gc.isenabled(), gc.get_freeze_count()
        for command in ("bound", "simulate"):
            argv = [arg.format(**specs) for arg in ENTRY_JOBS[command]]
            assert main([*argv, "--out", str(tmp_path / "report.json")]) == 0
            assert (gc.isenabled(), gc.get_freeze_count()) == state
        proc = cli_process(code="import gc; before = gc.isenabled(), gc.get_freeze_count(); "
                                "import chbound.cli; "
                                "print(*before, gc.isenabled(), gc.get_freeze_count())")
        assert proc.stdout.split() == [b"True", b"0", b"True", b"0"], proc.stderr

    @pytest.mark.parametrize("command,sizes", [
        (["simulate", "--spec", "{shared10}", "--c", "0.4", "--t", "0.3",
          "--block-size", "1000", "--samples"], ("20000", "200000")),
        (["detect", "--spec", "{b20}", "--c", "0.5", "--t", "0.25", "--alpha", "0.1",
          "--block-size", "1000", "--m-search"], ("2000", "20000")),
    ])
    def test_cyclic_garbage_does_not_grow_with_the_run(self, specs, tmp_path, command, sizes):
        # ``run`` leaves the collector off for the whole process: safe only
        # while a run's cyclic garbage is a fixed amount, whatever its size.
        argv = [arg.format(**specs) for arg in command]
        out = str(tmp_path / "report.json")

        def garbage(size):
            gc.collect()
            gc.disable()
            try:
                assert main([*argv, size, "--out", out]) in (0, 3)
                return gc.collect()
            finally:
                gc.enable()

        garbage(sizes[0])  # the first run imports the layers it calls
        small, large = (garbage(size) for size in sizes)
        assert small == large <= 2000
