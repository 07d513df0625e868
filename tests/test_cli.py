"""End-to-end CLI behavior through bgt.cli.main (no subprocesses)."""

import csv
import json
from fractions import Fraction as F

import pytest

import bgt.cli
from bgt import ResidueSchedule, gen_spiral, load_instance
from bgt.cli import main

INSTANCE_715 = '{"rates": ["7/15", "1/3", "1/5"]}\n'


@pytest.fixture
def inst715(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(INSTANCE_715)
    return str(path)


def _out_doc(capsys):
    return json.loads(capsys.readouterr().out)


def test_oracle_opt_prints_bare_rational(inst715, capsys):
    assert main(["oracle", "opt", inst715]) == 0
    assert capsys.readouterr().out == "4/3\n"


def test_oracle_opt_writes_a_witness(inst715, tmp_path, capsys):
    sched_path = tmp_path / "witness.json"
    assert main(["oracle", "opt", inst715, "--schedule-out", str(sched_path)]) == 0
    capsys.readouterr()
    assert main(["verify", inst715, "--schedule", str(sched_path),
                 "--expect-global", "4/3"]) == 0
    doc = _out_doc(capsys)
    assert doc["global_max_matches"] is True


def test_oracle_pinwheel_json(capsys):
    assert main(["oracle", "pinwheel", "--freqs", "2,4,4"]) == 0
    assert _out_doc(capsys) == {"feasible": True, "freqs": [2, 4, 4]}
    assert main(["oracle", "pinwheel", "--freqs", "2,3,5"]) == 0
    assert _out_doc(capsys)["feasible"] is False


def test_oracle_feasible_cap(inst715, capsys):
    assert main(["oracle", "feasible", inst715, "--cap", "4/3"]) == 0
    assert _out_doc(capsys)["feasible"] is True
    assert main(["oracle", "feasible", inst715, "--cap", "13/10"]) == 0
    assert _out_doc(capsys)["feasible"] is False


def test_approx_main_verify_certifies_uniform16(tmp_path, capsys):
    path = tmp_path / "u16.json"
    path.write_text(json.dumps({"rates": ["1/16"] * 16}))
    assert main(["approx", "main", str(path)]) == 0
    doc = _out_doc(capsys)
    assert doc["global_max"] == "7/4"
    assert doc["bound_satisfied"] is True
    assert doc["final_density"] == "5/8"


def test_approx_main_verify_catches_a_collision_behind_a_certificate(
    inst715, capsys, monkeypatch
):
    real = bgt.cli.main_algorithm

    def colliding(rates):
        # bamboo 3 gets bamboo 2's pair
        sched, diag = real(rates)
        pairs = sched.pairs[:2] + sched.pairs[1:2]
        return ResidueSchedule(pairs), diag

    monkeypatch.setattr(bgt.cli, "main_algorithm", colliding)
    assert main(["approx", "main", inst715]) == 1
    assert "collision" in capsys.readouterr().err


def test_verify_decides_a_main_schedule_with_a_long_hyperperiod(tmp_path, capsys):
    # n = 2100 at head ratio 1/64: the hyperperiod is 36,900,864 rounds
    inst, sched = str(tmp_path / "inst.json"), str(tmp_path / "sched.json")
    gen = ["gen", "random", "--n", "2100", "--seed", "0", "--head-ratio", "1/64"]
    assert main(gen + ["--out", inst]) == 0
    capsys.readouterr()
    assert main(["approx", "main", inst, "--out", sched]) == 0
    built = _out_doc(capsys)
    assert main(["verify", inst, "--schedule", sched]) == 0
    assert _out_doc(capsys)["global_max"] == built["global_max"]


def test_verify_refuses_a_schedule_above_the_check_work_cap(tmp_path, capsys):
    # 2049 bamboos with 2049 distinct periods: disjoint, but too costly to decide
    n = 2049
    inst, sched = tmp_path / "inst.json", tmp_path / "sched.json"
    inst.write_text(json.dumps({"rates": [f"1/{n}"] * n}))
    sched.write_text(json.dumps({"residue": [[i, 4096 * i] for i in range(1, n + 1)]}))
    assert main(["verify", str(inst), "--schedule", str(sched)]) == 1
    assert "cannot validate disjointness" in capsys.readouterr().err


def test_verify_refuses_a_truncated_schedule_entry(tmp_path, inst715, capsys):
    sched = tmp_path / "sched.json"
    sched.write_text('{"residue": [[1.5, 2], [2, 4], [4, 4]]}')
    assert main(["verify", inst715, "--schedule", str(sched)]) == 2
    assert "residue" in capsys.readouterr().err


@pytest.mark.parametrize(
    "residue", ["[[1, 2], [3]]", "[[1, 2], [1, 2, 3]]", "[[1, 2], 5]", "[[1, true]]"]
)
def test_verify_refuses_a_residue_entry_that_is_no_pair(tmp_path, inst715, capsys, residue):
    sched = tmp_path / "sched.json"
    sched.write_text('{"residue": %s}' % residue)
    assert main(["verify", inst715, "--schedule", str(sched)]) == 2
    assert "residue" in capsys.readouterr().err


def test_approx_eightfifths_emits_certificate(inst715, capsys):
    assert main(["approx", "eightfifths", inst715, "--oracle"]) == 0
    doc = _out_doc(capsys)
    assert doc["case"] == 0
    assert doc["bound_satisfied"] is True
    assert "ratio_vs_oracle" in doc
    # case 0 is one lane through a one-slot pattern, certified like any other
    token = doc["certificate"]["tokens"]["A"]
    assert token["scheduler"] == "main"
    assert (token["count"], token["offsets"], token["opt"]) == (1, [0], None)
    assert token["realized"] == doc["global_max"]
    assert len(doc["schedule_prefix"]) == 64


def test_approx_eightfifths_prefix_cycles_a_list_period(tmp_path, capsys):
    inst = tmp_path / "giant.json"
    inst.write_text(json.dumps({"rates": ["3/4", "1/8", "1/8"]}))
    sched_path = tmp_path / "merged.json"
    assert main(["approx", "eightfifths", str(inst), "--m", "2", "--out", str(sched_path)]) == 0
    doc = _out_doc(capsys)
    assert doc["case"] == 6
    sched = json.loads(sched_path.read_text())
    assert sched["preamble"] == [] and len(sched["period"]) == 8
    assert doc["schedule_prefix"] == sched["period"] * 8


def test_simulate_family_rm127_default_rounds(capsys):
    assert main(["simulate", "--family", "rm127", "--k", "10",
                 "--strategy", "reduce-max"]) == 0
    doc = _out_doc(capsys)
    assert doc["per_bamboo_max"][0] == "120/73"


def test_simulate_reduce_fastest_reports_divergence(capsys):
    assert main(["simulate", "--family", "rf-lb", "--x", "1/2", "--eps", "1/4",
                 "--strategy", "reduce-fastest", "--x", "1/2", "--rounds", "40"]) == 0
    assert _out_doc(capsys)["diverging_bamboo"] == 2


def test_simulate_trace_csv(inst715, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    assert main(["simulate", inst715, "--strategy", "reduce-max", "--rounds", "12",
                 "--trace", str(trace)]) == 0
    rows = list(csv.reader(trace.open()))
    assert rows[0] == ["round", "cut", "max_height", "max_height_approx"]
    assert len(rows) == 13
    assert rows[1][1] == "1"  # the fastest bamboo is cut first


def test_malformed_rates_name_the_field(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"rates": ["1/2", "nope"]}')
    assert main(["oracle", "opt", str(path)]) == 2
    assert "rates[1]" in capsys.readouterr().err


def test_a_json_true_rate_is_malformed_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"rates": [true, "1/2"]}')
    assert main(["oracle", "opt", str(path)]) == 2
    assert capsys.readouterr().err.startswith("bgt: malformed input: rates[0]:")


def test_a_non_json_instance_file_is_malformed_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("rates: 1/2, 1/2\n")
    assert main(["oracle", "opt", str(path)]) == 2
    assert capsys.readouterr().err.startswith("bgt: malformed input: document:")


def test_a_missing_instance_path_is_malformed_input(tmp_path, capsys):
    assert main(["oracle", "opt", str(tmp_path / "absent.json")]) == 2
    assert capsys.readouterr().err.startswith("bgt: malformed input: path:")


def test_verify_bound_failure_is_exit_1(tmp_path, inst715, capsys):
    sched = tmp_path / "two.json"
    assert main(["approx", "two", inst715, "--out", str(sched)]) == 0
    capsys.readouterr()
    assert main(["verify", inst715, "--schedule", str(sched), "--bound", "2"]) == 0
    capsys.readouterr()
    assert main(["verify", inst715, "--schedule", str(sched), "--bound", "3/2"]) == 1
    doc = _out_doc(capsys)  # the failing run still emits its report
    assert doc["bound_satisfied"] is False


def test_gen_random_plants_the_head_ratio(tmp_path, capsys):
    path = tmp_path / "r.json"
    assert main(["gen", "random", "--n", "50", "--seed", "3",
                 "--head-ratio", "1/8", "--out", str(path)]) == 0
    rates = load_instance(path.open())
    assert rates.rate(1) / rates.H == F(1, 8)


def test_gen_freqs_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "freqs", "--f1", "64", "--seed", "5", "--out", str(a)]) == 0
    assert main(["gen", "freqs", "--f1", "64", "--seed", "5", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bench_is_deterministic(tmp_path, capsys):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    base = ["bench", "--count", "6", "--seed", "1", "--n-max", "200"]
    assert main(base + ["--out", str(first)]) == 0
    assert main(base + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    rows = list(csv.reader(first.open()))
    assert len(rows) == 7


def test_bench_fills_the_oracle_columns_up_to_the_cap(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--count", "6", "--seed", "3", "--head-ratio", "1/2",
                 "--n-max", "6", "--oracle-max-n", "5", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert sorted({row["n"] for row in rows}) == ["5", "6"]  # both sides of the cap
    for row in rows:
        if int(row["n"]) <= 5:
            realized, opt = F(row["realized_max"]), F(row["oracle_opt"])
            assert F(row["ratio_vs_oracle"]) == realized / opt >= 1
        else:
            assert row["oracle_opt"] == row["ratio_vs_oracle"] == ""


def test_approx_d34_reports_frequencies_below_three_quarters(inst715, capsys):
    assert main(["approx", "d34", inst715]) == 0
    doc = _out_doc(capsys)
    assert doc == {"frequencies": [3, 5, 9], "density": "29/45"}  # delta = 1/3 + 7/15
    assert F(doc["density"]) < F(3, 4)


def test_continuous_gen_run_and_lb(tmp_path, capsys):
    inst = tmp_path / "clusters.json"
    assert main(["continuous", "gen", "clusters", "--n", "8",
                 "--diameter", "1", "--out", str(inst)]) == 0
    capsys.readouterr()
    walk_csv = tmp_path / "walk.csv"
    assert main(["continuous", "run", str(inst), "--algo", "3", "--horizon", "40",
                 "--walk-out", str(walk_csv)]) == 0
    doc = _out_doc(capsys)
    assert doc["bound_satisfied"] is True
    rows = list(csv.reader(walk_csv.open()))
    assert rows[0] == ["step", "point", "time"]
    assert len(rows) > 10
    assert main(["continuous", "lb", str(inst)]) == 0
    lb = _out_doc(capsys)
    assert lb["diameter_bound"] == "1/4"  # D * h_max = 1 * 1/4


def test_continuous_gen_spiral_round_trips(tmp_path, capsys):
    out = tmp_path / "spiral.json"
    assert main(["continuous", "gen", "spiral", "--n", "64", "--out", str(out)]) == 0
    with out.open() as fp:
        assert load_instance(fp) == gen_spiral(64)  # rebuilt and checked from rationals
    assert main(["continuous", "gen", "spiral", "--n", "10"]) == 2
    assert "n must be a power of 8, got 10" in capsys.readouterr().err


def test_oracle_missing_witness_is_exit_1(inst715, capsys, monkeypatch):
    import bgt.oracle

    monkeypatch.setattr(bgt.oracle, "_walk", lambda limits, solved: None)
    assert main(["oracle", "opt", inst715]) == 1
    assert "no witness" in capsys.readouterr().err


def test_oracle_budget_env(inst715, capsys, monkeypatch):
    monkeypatch.setenv("BGT_ORACLE_BUDGET", "2")
    assert main(["oracle", "opt", inst715]) == 1
    assert "budget" in capsys.readouterr().err
    monkeypatch.setenv("BGT_ORACLE_BUDGET", "zero")
    assert main(["oracle", "opt", inst715]) == 2
