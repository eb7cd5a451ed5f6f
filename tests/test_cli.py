"""Config parsing and the batch front end, driven through ``main()``."""
import csv
import json
import subprocess
import sys

import pytest

import time

from parallelobox import cli, meta
from parallelobox.cli import (CSV_COLUMNS, PLOT_SERIES, build_parser,
                              load_manifest, main, parse_config, run_batch)
from parallelobox.errors import ConfigError
from parallelobox.fixtures import box_mesh, dumbbell, l_bracket
from parallelobox.mesh import TriangleMesh, save_stl
from parallelobox.meta import PrinterProfile, RunPlan, RunRecord
from test_preprocess import _env


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# printer config


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "nope.ini")


def test_parse_config_rejects_missing_section(tmp_path):
    """An ini without a [printer] section, a misspelt one say, fails up
    front, naming the file, and the command exits 2 before any model is
    read, rather than running on the default printer."""
    ini = _write(tmp_path / "p.ini", "[printr]\nvolume_x = 40\n")
    with pytest.raises(ConfigError, match=r"p\.ini"):
        parse_config(ini)
    model = tmp_path / "dumbbell.stl"
    save_stl(dumbbell(), model)
    out = tmp_path / "out"
    assert main(_decompose_args(model, out, ["--config", str(ini)])) == 2
    assert not out.exists()


def test_parse_config_overrides(tmp_path):
    ini = _write(tmp_path / "p.ini",
                 "[printer]\nvolume_x = 200\nvolume_z = 300\n"
                 "layer_height = 0.2\n")
    profile = parse_config(ini)
    assert profile.dims == (200.0, 250.0, 300.0)
    assert profile.layer_height == 0.2


@pytest.mark.parametrize("body", [
    "[printer]\nvolume_x = wide\n",
    "[printer]\nspeed_shell = 0\n",
    "[printer]\nlayer_height = -0.25\n",
    "not an ini at all\n",
    "[printer]\nspeed_shel = 40\n",                   # misspelt key
    "[DEFAULT]\nvolume_x = 100\n[printer]\nseeed = 3\n",
])
def test_parse_config_rejects_bad_values(tmp_path, body):
    ini = _write(tmp_path / "p.ini", body)
    with pytest.raises(ConfigError):
        parse_config(ini)


def test_parse_config_leaves_default_section_keys_unchecked(tmp_path):
    """Keys of configparser's DEFAULT section, which other tools' sections
    may share, are not checked; a known one still reaches the profile."""
    ini = _write(tmp_path / "p.ini", "[DEFAULT]\nnozzle = 0.6\nvolume_y = 90\n"
                 "[printer]\nvolume_x = 100\n")
    assert parse_config(ini).dims == (100.0, 90.0, 250.0)


@pytest.mark.parametrize("key, value", [("volume_x", "nan"),
                                        ("speed_shell", "inf"),
                                        ("line_width", "-inf"),
                                        ("speed_shel", "40")])
def test_parse_config_rejects_non_finite_values(tmp_path, key, value):
    """A NaN or infinite printer setting, or a key that is no
    PrinterProfile field, fails up front, naming its key, and the command
    exits 2 before any model is read."""
    ini = _write(tmp_path / "p.ini", f"[printer]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=key):
        parse_config(ini)
    model = tmp_path / "dumbbell.stl"
    save_stl(dumbbell(), model)
    out = tmp_path / "out"
    assert main(_decompose_args(model, out, ["--config", str(ini)])) == 2
    assert not out.exists()


# ---------------------------------------------------------------------------
# manifest


def test_load_manifest_resolves_relative_paths(tmp_path):
    sub = tmp_path / "jobs"
    sub.mkdir()
    manifest = _write(sub / "m.json",
                      json.dumps({"models": ["a.stl", "deep/b.stl"]}))
    raw = load_manifest(manifest)
    assert raw["models"] == [sub / "a.stl", sub / "deep/b.stl"]
    assert raw["printers"] == [4]  # default sweep


@pytest.mark.parametrize("payload", [
    "[]",                                          # not an object
    "{}",                                          # no models
    '{"models": []}',                              # empty list
    '{"models": "a.stl"}',                         # not a list
    '{"models": ["a.stl"], "printers": 4}',        # counts not a list
    '{"models": ["a.stl"], "printers": []}',       # no counts
    '{"models": ["a.stl"], "printers": [0]}',      # count below 1
    '{"models": ["a.stl"], "printers": ["2"]}',    # count not an int
    '{"models": ["a.stl"], "printers": [true]}',   # count a bool
    "{broken",                                     # invalid json
    '{"models": [3]}',                             # model not a path
    '{"models": ["a.stl"], "granularity": "huge"}',
    '{"models": ["a.stl"], "sample_tries": "3"}',
    '{"models": ["a.stl"], "sample_tries": 0}',
    '{"models": ["a.stl"], "seed": 1.5}',
    '{"models": ["a.stl"], "min_printers": true}',
    '{"models": ["a.stl"], "infill": 2}',
    '{"models": ["a.stl"], "overhang_tolerance": "1"}',
    '{"models": ["a.stl"], "symmetry_threshold": -0.1}',
    '{"models": ["a.stl"], "skip_symmetry": "yes"}',
    '{"models": ["a.stl"], "baseline": "plane"}',
    '{"models": ["a.stl"], "out": 7}',
    '{"models": ["a.stl"], "sample_trie": 9, "seeed": 3}',   # misspelt keys
])
def test_load_manifest_rejects(tmp_path, payload):
    manifest = _write(tmp_path / "m.json", payload)
    with pytest.raises(ConfigError):
        load_manifest(manifest)


def test_load_manifest_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_manifest(tmp_path / "m.json")


# ---------------------------------------------------------------------------
# end-to-end runs


def _decompose_args(model, out, extra=()):
    return ["decompose", str(model), "--printers", "2",
            "--granularity", "coarse", "--sample-tries", "1",
            "--out", str(out), *extra]


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_decompose_end_to_end(tmp_path):
    model = tmp_path / "dumbbell.stl"
    save_stl(dumbbell(), model)
    out = tmp_path / "out"
    code = main(_decompose_args(model, out, ["--baseline", "both"]))
    assert code == 0

    rows = _read_csv(out / "results.csv")
    assert rows[0] == list(CSV_COLUMNS)
    body = rows[1:]
    assert {r[1] for r in body} == {"parallelobox", "symmetry"}
    for r in body:
        assert r[0] == "dumbbell"
        assert r[2] == "2"
        assert r[8] == "true"
        float(r[4]), float(r[5]), float(r[6]), float(r[7])  # parse as numbers
        assert float(r[9]) > 0.0  # two parts: the cut area of one cut
        part_dir = out / "dumbbell" / "2" / r[1]
        parts = sorted(part_dir.glob("part_*.stl"))
        assert len(parts) == int(r[3]) > 0
        assert parts[0].name == "part_000.stl"

    plot = json.loads((out / "plotdata.json").read_text(encoding="utf-8"))
    assert set(plot["dumbbell"]) == {"parallelobox", "symmetry"}
    assert plot["dumbbell"]["parallelobox"]["printers"] == [2]
    for algorithm, series in plot["dumbbell"].items():
        assert set(series) == set(PLOT_SERIES)
        row = body[[r[1] for r in body].index(algorithm)]
        assert series["cut_area_mm2"] == [float(row[9])]

    log_lines = [json.loads(line) for line in
                 (out / "runlog.jsonl").read_text(encoding="utf-8").splitlines()]
    assert log_lines
    for line in log_lines:
        assert {"model", "printers", "algorithm", "seed_blocks", "try_index",
                "seed", "valid", "parts", "parallel_score", "wall_clock_s",
                "reason", "clipped", "growth_steps", "cut_area_mm2"} <= set(line)
        assert isinstance(line["clipped"], bool)
        assert isinstance(line["growth_steps"], int)
    # The baseline is scored from its meshes, and so is the search winner,
    # the best valid line of the search.
    assert all(line["clipped"] for line in log_lines
               if line["algorithm"] == "symmetry")
    search = [line for line in log_lines if line["algorithm"] == "parallelobox"]
    best = min((line for line in search if line["valid"]),
               key=lambda line: (line["parallel_score"], line["parts"],
                                 line["aggregate_time_s"]))
    assert best["clipped"]
    row = body[[r[1] for r in body].index("parallelobox")]
    assert float(row[4]) == best["parallel_time_s"]
    assert float(row[9]) == best["cut_area_mm2"]


def test_runlog_growth_steps_and_wall_clock(tmp_path, monkeypatch):
    """growth_steps counts each iteration's growth moves; wall_clock_s
    leaves out the growth pass that the iterations share."""
    model = tmp_path / "dumbbell.stl"
    save_stl(dumbbell(), model)
    pause = 0.5
    moves = []
    grow = meta.grow_blocks

    def slow_grow(state, trace=None):
        time.sleep(pause)
        grow(state, moves)

    monkeypatch.setattr(meta, "grow_blocks", slow_grow)
    out = tmp_path / "out"
    assert main(_decompose_args(model, out, ["--printers", "4",
                                             "--sample-tries", "2"])) == 0
    lines = [json.loads(line) for line in
             (out / "runlog.jsonl").read_text(encoding="utf-8").splitlines()]
    assert len(lines) == 6  # seed counts 4, 3, 2 on two pieces, 2 tries each
    assert sum(line["growth_steps"] for line in lines) == len(moves) > 0
    assert all(line["growth_steps"] > 0 for line in lines)
    assert all(0.0 < line["wall_clock_s"] < pause for line in lines)


def test_no_result_row_cells(tmp_path):
    """A run that gave no result, here of a model that cannot be read:
    empty cells for its missing numbers."""
    out = tmp_path / "out"
    report = run_batch([tmp_path / "ghost.stl"], [2], RunPlan(),
                       PrinterProfile(), ["symmetry"], out)
    assert not report.any_valid
    assert _read_csv(out / "results.csv")[1:] == [[
        "ghost", "symmetry", "2", "0", "", "", "", "0.0", "false", ""]]


def test_baseline_runlog_line_is_its_record(tmp_path, monkeypatch):
    """The baseline logs RunRecord.of its result, and its wall clock is
    inside the time of the baseline call."""
    model = tmp_path / "dumbbell.stl"
    save_stl(dumbbell(), model)
    calls = []
    baseline = cli.recursive_symmetry_baseline

    def timed_baseline(*args, **kwargs):
        tick = time.perf_counter()
        result = baseline(*args, **kwargs)
        calls.append((result, time.perf_counter() - tick))
        return result

    monkeypatch.setattr(cli, "recursive_symmetry_baseline", timed_baseline)
    out = tmp_path / "out"
    assert main(_decompose_args(model, out, ["--baseline", "symmetry"])) == 0
    [(result, seconds)] = calls
    [line] = [json.loads(line) for line in
              (out / "runlog.jsonl").read_text(encoding="utf-8").splitlines()]
    assert ({key: line.pop(key) for key in ("model", "printers", "algorithm")}
            == {"model": "dumbbell", "printers": 2, "algorithm": "symmetry"})
    assert line == RunRecord.of(result, 0, 0, line["wall_clock_s"]).to_dict()
    assert 0.0 < line["wall_clock_s"] <= seconds


def test_command_line_defaults_are_the_plan_defaults():
    args = build_parser().parse_args(["decompose", "model.stl"])
    assert cli._plan_from_args(args) == RunPlan()
    assert args.printers == RunPlan().printers_available


def test_python_dash_m_runs_the_command_line():
    proc = subprocess.run([sys.executable, "-m", "parallelobox", "--help"],
                          capture_output=True, text=True, env=_env())
    assert proc.returncode == 0, proc.stderr
    assert "decompose" in proc.stdout
    assert proc.stderr == ""


def test_batch_prepares_each_model_once_per_key(tmp_path, monkeypatch):
    """Printer counts 2 and 4 share one prepared model and give the rows
    of separate runs."""
    models = []
    for mesh in (dumbbell(), l_bracket()):
        models.append(tmp_path / f"{mesh.name}.stl")
        save_stl(mesh, models[-1])
    plan = RunPlan(granularity="coarse", sample_tries=1)
    algorithms = ["parallelobox", "symmetry"]
    prepare = meta.prepare_model
    calls = []
    monkeypatch.setattr(meta, "prepare_model",
                        lambda *args: calls.append(args[0].name) or prepare(*args))

    def rows(printer_counts, out):
        run_batch(models, printer_counts, plan, PrinterProfile(), algorithms,
                  out)
        return [r[:7] + r[8:] for r in _read_csv(out / "results.csv")]

    shared = rows([2, 4], tmp_path / "shared")
    assert calls == ["dumbbell", "l_bracket"]
    apart = {printers: rows([printers], tmp_path / str(printers))
             for printers in (2, 4)}
    assert len(calls) == 6
    want = [apart[2][0]]  # the header
    for model in range(2):
        want += apart[2][1 + 2 * model:3 + 2 * model]
        want += apart[4][1 + 2 * model:3 + 2 * model]
    assert shared == want
    assert len(shared) == 9


def test_batch_shares_baseline_rounds_across_printer_counts(tmp_path,
                                                           monkeypatch):
    """A [2, 4] batch writes the rows, runlog records and part files of
    separate one-count batches.  Its baseline plane-searches and cuts only
    as often as the 4-printer batch alone, and its searches grow each
    (piece, seed blocks, seed) problem once, in one growth pass per model:
    the problems of the 4-printer batch alone."""
    models = []
    for mesh in (dumbbell(), l_bracket()):
        models.append(tmp_path / f"{mesh.name}.stl")
        save_stl(mesh, models[-1])
    plan = RunPlan(granularity="coarse", sample_tries=1)
    calls = []
    in_baseline = []
    baseline = cli.recursive_symmetry_baseline

    def traced_baseline(*args, **kwargs):
        in_baseline.append(True)
        try:
            return baseline(*args, **kwargs)
        finally:
            in_baseline.pop()

    monkeypatch.setattr(cli, "recursive_symmetry_baseline", traced_baseline)
    for name in ("find_best_symmetry_plane", "cut_by_plane"):
        fn = getattr(meta, name)
        monkeypatch.setattr(meta, name, lambda *args, _fn=fn, _name=name: (
            calls.append(_name) if in_baseline else None) or _fn(*args))
    # Each seeded problem as (piece mesh name, seed blocks of the piece, RNG
    # seed), which names (piece, p, seed).  A growth call's problems are
    # the seedings since the last one, in order.
    seeded, grown = [], []
    select, grow = meta.select_seed_blocks, meta.grow_blocks

    def traced_select(grid, mesh, k, rng_seed=0):
        seeds = select(grid, mesh, k, rng_seed=rng_seed)
        seeded.append((mesh.name, k, rng_seed))
        return seeds

    def traced_grow(state, trace=None):
        grown.append(list(seeded))
        seeded.clear()
        return grow(state, trace)

    monkeypatch.setattr(meta, "select_seed_blocks", traced_select)
    monkeypatch.setattr(meta, "grow_blocks", traced_grow)

    def outputs(printer_counts):
        out = tmp_path / "-".join(map(str, printer_counts))
        calls.clear()
        grown.clear()
        run_batch(models, printer_counts, plan, PrinterProfile(),
                  ["parallelobox", "symmetry"], out)
        rows = [r[:7] + r[8:] for r in _read_csv(out / "results.csv")[1:]]
        records = []
        for line in (out / "runlog.jsonl").read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            del record["wall_clock_s"]
            records.append(record)
        parts = {str(path.relative_to(out)): path.read_bytes()
                 for path in sorted(out.rglob("part_*.stl"))}
        return rows, records, parts, list(calls), list(grown)

    rows, records, parts, shared_calls, shared_growth = outputs([2, 4])
    apart = {printers: outputs([printers]) for printers in (2, 4)}
    for model in ("dumbbell", "l_bracket"):
        for printers in (2, 4):
            want_rows, want_records, want_parts, _, _ = apart[printers]
            assert ([r for r in rows if r[0] == model and r[2] == str(printers)]
                    == [r for r in want_rows if r[0] == model])
            assert ([r for r in records
                     if r["model"] == model and r["printers"] == printers]
                    == [r for r in want_records if r["model"] == model])
    want_parts = {**apart[2][2], **apart[4][2]}
    assert parts == want_parts
    assert {path.split("/")[2] for path in parts} == {"parallelobox", "symmetry"}
    assert shared_calls == apart[4][3]
    assert shared_calls.count("cut_by_plane") > 0
    assert len(shared_calls) < len(apart[2][3]) + len(apart[4][3])
    # One growth pass per model, over both pieces of each cut model.
    assert len(shared_growth) == len(models)
    assert all(len({name for name, _, _ in call}) == 2
               for call in shared_growth)
    problems = [problem for call in shared_growth for problem in call]
    assert len(problems) == len(set(problems))
    assert sorted(problems) == sorted(
        problem for call in apart[4][4] for problem in call)
    assert set(problem for call in apart[2][4] for problem in call) < set(
        problems)


def test_batch_searches_each_model_for_its_mirror_plane_once(tmp_path,
                                                            monkeypatch):
    """Preparation under two keys and the baseline's first round share one
    mirror-plane search of the model; the baseline halves its oriented copy
    at that plane moved, without searching the copy."""
    model = tmp_path / "dumbbell.stl"
    save_stl(dumbbell(), model)
    prepared, searched, oriented = [], [], []
    prepare, find = meta.prepare_model, meta.find_best_symmetry_plane
    orient = meta.optimize_orientation
    monkeypatch.setattr(meta, "prepare_model", lambda *args: prepared.append(
        args[0]) or prepare(*args))
    monkeypatch.setattr(meta, "find_best_symmetry_plane", lambda mesh: (
        searched.append(mesh)) or find(mesh))
    monkeypatch.setattr(meta, "optimize_orientation", lambda *args, **kwargs: (
        oriented.append(out := orient(*args, **kwargs))) or out)
    report = run_batch([model], [1, 2], RunPlan(granularity="coarse",
                                                sample_tries=1),
                       PrinterProfile(), ["parallelobox", "symmetry"],
                       tmp_path / "out")
    assert all(row["valid"] for row in report.rows) and len(report.rows) == 4
    assert len(prepared) == 2 and prepared[0] is prepared[1]
    assert sum(mesh is prepared[0] for mesh in searched) == 1
    assert oriented and not any(mesh is copy for mesh in searched
                                for copy, _ in oriented)


def test_invalid_rerun_clears_stale_part_files(tmp_path):
    """A run that exports nothing removes the part files an earlier run
    left in the same directories."""
    model = tmp_path / "l_bracket.stl"
    save_stl(l_bracket(), model)
    out = tmp_path / "out"
    assert main(_decompose_args(model, out, ["--baseline", "both"])) == 0
    for algorithm in ("parallelobox", "symmetry"):
        assert list((out / "l_bracket" / "2" / algorithm).glob("part_*.stl"))
    # The search finds no split into two 40 mm parts, and the baseline's
    # parts fit only after two halvings, so it returns 4 parts for 2.
    small = _write(tmp_path / "small.ini",
                   "[printer]\nvolume_x = 40\nvolume_y = 40\nvolume_z = 40\n")
    assert main(_decompose_args(model, out, ["--baseline", "both",
                                             "--config", str(small)])) == 2
    body = _read_csv(out / "results.csv")[1:]
    assert [(r[1], r[8]) for r in body] == [("parallelobox", "false"),
                                            ("symmetry", "false")]
    assert body[1][3] == "4"
    for algorithm in ("parallelobox", "symmetry"):
        assert not list((out / "l_bracket" / "2" / algorithm).glob("part_*.stl"))


def test_decompose_is_deterministic(tmp_path):
    model = tmp_path / "dumbbell.stl"
    save_stl(dumbbell(), model)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(_decompose_args(model, out)) == 0
        outs.append(out)

    def stripped_csv(out):
        return [r[:7] + r[8:] for r in _read_csv(out / "results.csv")]

    assert stripped_csv(outs[0]) == stripped_csv(outs[1])
    assert ((outs[0] / "plotdata.json").read_bytes()
            == (outs[1] / "plotdata.json").read_bytes())
    a_parts = sorted((outs[0] / "dumbbell" / "2" / "parallelobox").iterdir())
    b_parts = sorted((outs[1] / "dumbbell" / "2" / "parallelobox").iterdir())
    assert [p.name for p in a_parts] == [p.name for p in b_parts]
    for pa, pb in zip(a_parts, b_parts):
        assert pa.read_bytes() == pb.read_bytes()


def test_decompose_failure_exits_2(tmp_path):
    model = tmp_path / "big.stl"
    save_stl(box_mesh(size=(300.0, 300.0, 300.0)), model)
    out = tmp_path / "out"
    code = main(_decompose_args(model, out, ["--baseline", "parallelobox"]))
    assert code == 2
    body = _read_csv(out / "results.csv")[1:]
    assert len(body) == 1
    assert body[0][8] == "false"
    assert body[0][3] == "0"
    assert not (out / "big" / "2" / "parallelobox").exists()


def test_decompose_open_mesh_exits_2(tmp_path):
    """An open mesh fails both algorithms up front and exports no part."""
    bracket = l_bracket()
    model = tmp_path / "holed.stl"
    save_stl(TriangleMesh(bracket.vertices, bracket.triangles[:-1]), model)
    out = tmp_path / "out"
    code = main(_decompose_args(model, out, ["--printers", "1",
                                             "--baseline", "both"]))
    assert code == 2
    body = _read_csv(out / "results.csv")[1:]
    assert sorted(r[1] for r in body) == ["parallelobox", "symmetry"]
    assert all(r[8] == "false" for r in body)
    assert not list(out.rglob("part_*.stl"))


def test_decompose_missing_config_exits_2(tmp_path):
    model = tmp_path / "dumbbell.stl"
    save_stl(dumbbell(), model)
    code = main(_decompose_args(model, tmp_path / "out",
                                ["--config", str(tmp_path / "nope.ini")]))
    assert code == 2


@pytest.mark.parametrize("extra", [
    ["--seed", "-5000"],
    ["--infill", "2"],
    ["--overhang-tolerance", "120"],
    ["--symmetry-threshold", "-1"],
    ["--min-printers", "0"],
    ["--printers", "0"],
    ["--sample-tries", "0"],
    ["--infill", "nan"],
])
def test_decompose_bad_option_exits_2(tmp_path, extra):
    model = tmp_path / "dumbbell.stl"
    save_stl(dumbbell(), model)
    out = tmp_path / "out"
    assert main(_decompose_args(model, out, extra)) == 2
    assert not out.exists()


def test_batch_end_to_end(tmp_path):
    save_stl(dumbbell(), tmp_path / "dumbbell.stl")
    out = tmp_path / "sweep"
    manifest = _write(tmp_path / "m.json", json.dumps({
        "models": ["dumbbell.stl"],
        "printers": [2],
        "granularity": "coarse",
        "sample_tries": 1,
        "baseline": "parallelobox",
        "out": str(out),
    }))
    assert main(["batch", str(manifest)]) == 0
    body = _read_csv(out / "results.csv")[1:]
    assert [r[0] for r in body] == ["dumbbell"]
    assert body[0][8] == "true"



def test_batch_paths_resolve_against_the_manifest(tmp_path, monkeypatch):
    jobs = tmp_path / "jobs"
    jobs.mkdir()
    save_stl(dumbbell(), jobs / "dumbbell.stl")
    _write(jobs / "printer.ini", "[printer]\nvolume_x = 200\n")
    manifest = _write(jobs / "m.json", json.dumps({
        "models": ["dumbbell.stl"],
        "printers": [2],
        "granularity": "coarse",
        "sample_tries": 1,
        "config": "printer.ini",
        "out": "sweep",
    }))
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    raw = load_manifest(manifest)
    assert raw["config"] == jobs / "printer.ini"
    assert raw["out"] == jobs / "sweep"
    # The config is read from next to the manifest; a miss would exit 2.
    assert main(["batch", str(manifest)]) == 0
    assert (jobs / "sweep" / "results.csv").is_file()
    assert not (elsewhere / "sweep").exists()
    assert list(elsewhere.iterdir()) == []


def test_batch_models_sharing_a_stem_exit_2(tmp_path, caplog):
    """Two models of one file stem would share their output names: the
    batch exits 2, naming the stem and its paths, before it writes
    anything."""
    for sub, make in (("a", dumbbell), ("b", l_bracket)):
        (tmp_path / sub).mkdir()
        save_stl(make(), tmp_path / sub / "part.stl")
    manifest = _write(tmp_path / "m.json", json.dumps({
        "models": ["a/part.stl", "b/part.stl"], "printers": [2],
        "granularity": "coarse", "sample_tries": 1, "out": "out"}))
    assert main(["batch", str(manifest)]) == 2
    assert "'part'" in caplog.text
    assert all(str(tmp_path / sub / "part.stl") in caplog.text
               for sub in ("a", "b"))
    assert not (tmp_path / "out").exists()


def test_batch_unreadable_model_exits_2(tmp_path):
    manifest = _write(tmp_path / "m.json", json.dumps(
        {"models": ["ghost.stl"], "printers": [2],
         "out": str(tmp_path / "out")}))
    assert main(["batch", str(manifest)]) == 2
    rows = _read_csv(tmp_path / "out" / "results.csv")
    assert rows[1][8] == "false"


@pytest.mark.parametrize("sub", ["", "sub"])
def test_out_that_cannot_be_a_directory_exits_2(tmp_path, sub, caplog):
    """An --out or manifest out that is a file, or lies under one, ends
    the run with exit 2, naming the path, and not with a traceback."""
    save_stl(dumbbell(), tmp_path / "dumbbell.stl")
    out = _write(tmp_path / "some_file", "") / sub
    assert main(_decompose_args(tmp_path / "dumbbell.stl", out)) == 2
    manifest = _write(tmp_path / "m.json", json.dumps(
        {"models": ["dumbbell.stl"], "printers": [2], "out": str(out)}))
    assert main(["batch", str(manifest)]) == 2
    assert f"output directory {out}:" in caplog.text


def test_batch_missing_manifest_exits_2(tmp_path):
    assert main(["batch", str(tmp_path / "m.json")]) == 2


@pytest.mark.parametrize("override", [{"granularity": "huge"},
                                      {"sample_tries": "3"},
                                      {"printers": []},
                                      {"sample_trie": 9, "seeed": 3}])
def test_batch_bad_override_exits_2(tmp_path, override, caplog):
    save_stl(dumbbell(), tmp_path / "dumbbell.stl")
    manifest = _write(tmp_path / "m.json", json.dumps(
        {"models": ["dumbbell.stl"], "printers": [2],
         "out": str(tmp_path / "out"), **override}))
    assert main(["batch", str(manifest)]) == 2
    assert not (tmp_path / "out").exists()
    assert all(key in caplog.text for key in override)
