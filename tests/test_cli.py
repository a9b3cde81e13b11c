import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gpwlab.cli
from gpwlab.basis import (
    build_family,
    build_gpw,
    family_from_records,
    family_to_records,
    unit_sphere_directions,
)
from gpwlab.cli import SCHEMA, ConfigError, RunConfig, build_problem, main
from gpwlab.frame import corrupted, verify_split
from gpwlab.operators import CoefficientJet, make_helmholtz_split
from gpwlab.polycore import GradedPoly
from gpwlab.serialize import csv_text, json_text


def write_config(path, **overrides):
    config = {
        "schema": "gpw-run/1",
        "dimension": 2,
        "degree": 3,
        "center": [0.0, 0.0],
        "directions": 7,
        "seed": 424242,
        "operator": {"type": "helmholtz", "preset": "constant_kappa", "kappa_sq": 25.0},
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return path


MANUFACTURED = {
    "type": "helmholtz",
    "preset": "manufactured",
    "phase": [
        {"exponents": [1, 0], "re": 0.0, "im": 1.8},
        {"exponents": [0, 1], "re": 0.0, "im": 0.9},
        {"exponents": [2, 0], "re": 0.1, "im": 0.05},
        {"exponents": [1, 1], "re": -0.07, "im": 0.02},
    ],
}

json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers(-(10**400), 10**400) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
config_like = st.fixed_dictionaries(
    {"schema": st.just(SCHEMA)},
    optional={
        key: json_values
        for key in ("dimension", "degree", "center", "directions", "h_values", "seed", "operator")
    },
)
config_bytes = st.one_of(
    st.binary(max_size=64),
    (json_values | config_like).map(lambda doc: json.dumps(doc).encode()),
    st.integers(4290, 4310).map(lambda n: b'{"schema": "gpw-run/1", "degree": ' + b"9" * n + b"}"),
)


class TestConfig:
    def test_schema_required(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"dimension": 2}))
        with pytest.raises(ConfigError):
            RunConfig.load(path)

    def test_dimension_restricted(self, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig.load(write_config(tmp_path / "c.json", dimension=4))

    def test_degree_floor(self, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig.load(write_config(tmp_path / "c.json", degree=1))

    @pytest.mark.parametrize(
        "field, attribute, limit",
        [("degree", "degree", 20), ("directions", "direction_count", 10000)],
    )
    def test_degree_and_directions_are_bounded(self, tmp_path, capsys, field, attribute, limit):
        # checked at the limits through from_dict; nothing at the limit is built
        raw = json.loads(write_config(tmp_path / "c.json").read_text())
        assert getattr(RunConfig.from_dict({**raw, field: limit}), attribute) == limit
        with pytest.raises(ConfigError, match=f"{field} must be between"):
            RunConfig.from_dict({**raw, field: limit + 1})
        config = write_config(tmp_path / "c.json", **{field: limit + 1})
        assert main(["build", "--config", str(config), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_radii_must_decrease(self, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig.load(write_config(tmp_path / "c.json", h_values=[0.1, 0.2]))

    def test_center_length(self, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig.load(write_config(tmp_path / "c.json", center=[0.0]))

    def test_missing_file_is_config_error(self, tmp_path):
        assert main(["build", "--config", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize(
        "overrides",
        [
            {"operator": {"type": "helmholtz", "preset": "constant_kappa"}},
            {"operator": {"type": "helmholtz", "preset": "manufactured"}},
            {"operator": {"type": "helmholtz", "preset": "omode_linear", "kappa0_sq": 9.0, "x_cut": 0}},
            {"operator": {"type": "helmholtz", "preset": "constant_kappa", "kappa_sq": math.nan}},
            {"center": [math.nan, 0.0]},
            {"center": [10**400, 0.0]},
            {"operator": {"type": "convected", "rho": 1.0, "mach": [math.nan, 0.0], "kappa": 2.0}},
            {"operator": {"type": "helmholtz", "kappa_sq_jet": [
                {"exponents": [0, 0], "re": math.inf, "im": 0.0}
            ]}},
            {"center": ["nan", 0.0]},
            {"h_values": [0.4, 0.2, 0.1, "nan"]},
            {"operator": {"type": "convected", "rho": 1.0, "mach": [0.2, 0.1], "kappa": ["nan", 0]}},
            {"operator": {"type": "helmholtz", "preset": "omode_linear", "kappa0_sq": 9.0, "x_cut": "nan"}},
            {"operator": {"type": "helmholtz", "preset": "constant_kappa", "kappa_sq": True}},
            {"operator": {"type": "helmholtz", "kappa_sq_jet": [
                {"exponents": [0, 0], "re": "nan", "im": 0.0}
            ]}},
            {"operator": {"type": "helmholtz", "kappa_sq_jet": [
                {"exponents": [0, 0], "re": 25.0, "im": 0.0},
                {"exponents": [1.9, 0], "re": 0.5, "im": 0.0},
            ]}},
            {"operator": {"type": "helmholtz", "kappa_sq_jet": [
                {"exponents": [0, 0], "re": 25.0, "im": 0.0},
                {"exponents": [True, False], "re": 0.5, "im": 0.0},
            ]}},
        ],
        ids=["missing-kappa-sq", "missing-phase", "x-cut-zero", "nan-kappa-sq",
             "nan-center", "huge-int-center", "nan-mach", "inf-record",
             "string-center", "string-h-value", "string-kappa", "string-x-cut",
             "bool-kappa-sq", "string-record-re", "float-exponent", "bool-exponents"],
    )
    def test_bad_input_exits_2_with_one_line(self, tmp_path, capsys, overrides):
        config = write_config(tmp_path / "c.json", **overrides)
        assert main(["build", "--config", str(config), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


    @pytest.mark.parametrize(
        "overrides",
        [{"dimension": 2.9}, {"degree": 6.7}, {"directions": True}, {"degree": True},
         {"seed": 1.5}, {"seed": False}, {"directions": "7"}],
        ids=["dimension-2.9", "degree-6.7", "directions-true", "degree-true",
             "seed-1.5", "seed-false", "directions-string"],
    )
    def test_non_integer_counts_exit_2_with_one_line(self, tmp_path, capsys, overrides):
        config = write_config(tmp_path / "c.json", **overrides)
        assert main(["build", "--config", str(config), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "integer" in err

    def test_integral_float_counts_accepted(self, tmp_path):
        config = RunConfig.load(write_config(tmp_path / "c.json", degree=3.0, directions=7.0))
        assert (config.degree, config.direction_count) == (3, 7)
        assert type(config.degree) is int and type(config.direction_count) is int

    def test_deeply_nested_config_exits_2_with_one_line(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json")
        depth = 100000
        text = config.read_text().replace("25.0", "[" * depth + "]" * depth)
        config.write_text(text)
        assert main(["build", "--config", str(config), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "write",
        [
            lambda path: path.write_bytes(b'{"schema": "gpw-run/1", "seed": "\xff"}'),
            lambda path: path.mkdir(),
            lambda path: path.write_text(write_config(path).read_text().replace("424242", "7" * 4301)),
        ],
        ids=["not-utf8", "directory", "int-over-4300-digits"],
    )
    def test_unreadable_config_exits_2_with_one_line(self, tmp_path, capsys, write):
        config = tmp_path / "c.json"
        write(config)
        assert main(["build", "--config", str(config), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "c.json" in err

    @pytest.mark.parametrize(
        "field, literal",
        [("degree", "1" + "0" * 400), ("directions", "1" + "0" * 400),
         ("center", "[1e999, 0.0]"), ("center", "[0.0, -1e999]"), ("h_values", "[Infinity]"),
         ("seed", "NaN"), ("kappa_sq", "1e999"), ("kappa_sq", "-Infinity"), ("kappa_sq", "NaN")],
        ids=["degree-10**400", "directions-10**400", "center-1e999", "center-minus-1e999",
             "h-value-infinity", "seed-nan", "kappa-sq-1e999", "kappa-sq-minus-infinity",
             "kappa-sq-nan"],
    )
    def test_number_beyond_float_range_exits_2_with_one_line(
        self, tmp_path, capsys, field, literal
    ):
        # written as JSON text: json.dumps cannot spell 1e999, and these literals
        # reach the number rules unchanged, as a float infinity or a huge int
        if field == "kappa_sq":
            config = write_config(tmp_path / "c.json", operator={
                "type": "helmholtz", "preset": "constant_kappa", "kappa_sq": "MARK"})
        else:
            config = write_config(tmp_path / "c.json", **{field: "MARK"})
        config.write_text(config.read_text().replace('"MARK"', literal))
        assert main(["build", "--config", str(config), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err.encode()) < 200

    @given(raw=config_bytes)
    def test_load_returns_or_raises_config_error(self, tmp_path_factory, raw):
        # load only: within the bounds a fuzzed config may still ask for a
        # 3D p=20 build or 10000 directions, too slow to run here
        path = tmp_path_factory.getbasetemp() / "fuzzed.json"
        path.write_bytes(raw)
        try:
            RunConfig.load(path)
        except ConfigError:
            pass

    @pytest.mark.parametrize(
        "kappa_sq", [json.dumps(list(range(5000))), "[" * 980 + "]" * 980], ids=["long", "deep"]
    )
    def test_offending_value_is_clipped_in_the_error_line(self, tmp_path, capsys, kappa_sq):
        config = write_config(tmp_path / "c.json")
        config.write_text(config.read_text().replace("25.0", kappa_sq))
        assert main(["build", "--config", str(config), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err.encode()) < 200


class TestBuild:
    def test_constant_wavenumber_phases_are_linear(self, tmp_path):
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["build", "--config", str(config), "--out", str(out), "--quiet"]) == 0
        records = json.loads((out / "basis.json").read_text())
        assert len(records) == 7
        for record in records:
            # plane-wave phases: linear terms i*kappa0*d, anything else at rounding level
            for term in record["phase"]:
                value = abs(complex(term["re"], term["im"]))
                if sum(term["exponents"]) == 1:
                    assert value == pytest.approx(5.0 * abs(sum(
                        c * e for c, e in zip(record["direction"], term["exponents"])
                    )), abs=1e-12)
                else:
                    assert value <= 1e-13
            assert record["residual_norm"] <= 1e-11

    def test_convected_build(self, tmp_path):
        config = write_config(
            tmp_path / "c.json",
            operator={
                "type": "convected",
                "rho": 1.2,
                "mach": [0.3, -0.2],
                "kappa": 4.0,
            },
        )
        out = tmp_path / "out"
        assert main(["build", "--config", str(config), "--out", str(out), "--quiet"]) == 0
        records = json.loads((out / "basis.json").read_text())
        assert len(records) == 7

    def test_out_that_is_a_file_exits_2_with_one_line(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        out.write_text("")
        assert main(["build", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "basis.json" in err

    def test_supersonic_config_rejected(self, tmp_path):
        config = write_config(
            tmp_path / "c.json",
            operator={"type": "convected", "rho": 1.0, "mach": [0.9, 0.9], "kappa": 1.0},
        )
        assert main(["build", "--config", str(config), "--out", str(tmp_path)]) == 2

    def test_coefficient_above_run_degree_rejected(self, tmp_path):
        # polynomials are stored densely up to their degree: a huge exponent
        # must be refused before any storage is sized
        records = [{"exponents": [10**9, 0], "re": 1.0, "im": 0.0}]
        config = write_config(
            tmp_path / "c.json", operator={"type": "helmholtz", "kappa_sq_jet": records}
        )
        assert main(["build", "--config", str(config), "--out", str(tmp_path)]) == 2


class TestVerify:
    def test_round_trip(self, tmp_path):
        omode = {"type": "helmholtz", "preset": "omode_linear", "kappa0_sq": 9.0, "x_cut": 2.0}
        for name, overrides in (("constant", {}), ("omode", {"operator": omode})):
            config = write_config(tmp_path / f"{name}.json", **overrides)
            out = tmp_path / name
            assert main(["build", "--config", str(config), "--out", str(out), "--quiet"]) == 0
            records = json.loads((out / "basis.json").read_text())
            assert max(record["residual_norm"] for record in records) <= 1e-11
            assert main(["verify", "--config", str(config), "--out", str(out), "--quiet"]) == 0
            report = json.loads((out / "report.json").read_text())
            assert report["passed"] is True
            assert report["hypotheses"]["passed"] is True
            assert report["hypotheses"]["seed"] == 424242

    def test_corrupted_basis_detected_and_named(self, tmp_path):
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        main(["build", "--config", str(config), "--out", str(out), "--quiet"])
        basis_path = out / "basis.json"
        records = json.loads(basis_path.read_text())
        records[4]["phase"][0]["re"] += 0.25
        basis_path.write_text(json.dumps(records))
        assert main(["verify", "--config", str(config), "--out", str(out), "--quiet"]) == 1
        report = json.loads((out / "report.json").read_text())
        failing = [f["index"] for f in report["functions"] if not f["passed"]]
        assert failing == [4]

    def test_phase_above_run_degree_is_config_error(self, tmp_path):
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        main(["build", "--config", str(config), "--out", str(out), "--quiet"])
        basis_path = out / "basis.json"
        records = json.loads(basis_path.read_text())
        records[0]["phase"].append({"exponents": [10**9, 0], "re": 1.0, "im": 0.0})
        basis_path.write_text(json.dumps(records))
        assert main(["verify", "--config", str(config), "--out", str(out), "--quiet"]) == 2

    def test_non_finite_basis_is_config_error(self, tmp_path):
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        main(["build", "--config", str(config), "--out", str(out), "--quiet"])
        records = json.loads((out / "basis.json").read_text())
        records[0]["phase"][0]["re"] = math.nan
        (out / "basis.json").write_text(json.dumps(records))
        assert main(["verify", "--config", str(config), "--out", str(out), "--quiet"]) == 2

    @pytest.mark.parametrize(
        "where, literal",
        [("re", "1e999"), ("re", "-1e999"), ("x0", "1e999"), ("x0", "-1e999"),
         ("re", "NaN"), ("x0", "Infinity"), ("residual_norm", "-Infinity"),
         ("p", "1" + "0" * 400), ("exponents", "[1" + "0" * 400 + ", 0]")],
        ids=["re-1e999", "re-minus-1e999", "x0-1e999", "x0-minus-1e999", "re-nan",
             "x0-infinity", "residual-norm-minus-infinity", "p-10**400", "exponent-10**400"],
    )
    def test_non_finite_basis_number_exits_2_with_one_line(self, tmp_path, capsys, where, literal):
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        main(["build", "--config", str(config), "--out", str(out), "--quiet"])
        records = json.loads((out / "basis.json").read_text())
        if where in ("re", "exponents"):
            records[0]["phase"][0][where] = "MARK"
        elif where == "x0":
            records[0]["x0"][1] = "MARK"
        else:
            records[0][where] = "MARK"
        (out / "basis.json").write_text(json.dumps(records).replace('"MARK"', literal))
        assert main(["verify", "--config", str(config), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err.encode()) < 300

    @pytest.mark.parametrize(
        "field, value",
        [("p", 3.5), ("x0", ["0.0", 0.0]), ("residual_norm", "0"), ("direction", [1.0, True]),
         ("direction", [[1.0], 0.0])],
        ids=["float-p", "string-x0", "string-residual-norm", "bool-direction", "short-direction-pair"],
    )
    def test_basis_numbers_must_be_json_numbers(self, tmp_path, capsys, field, value):
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        main(["build", "--config", str(config), "--out", str(out), "--quiet"])
        records = json.loads((out / "basis.json").read_text())
        records[0][field] = value
        (out / "basis.json").write_text(json.dumps(records))
        assert main(["verify", "--config", str(config), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "record",
        [
            {"exponents": [True, 0], "re": 1.0, "im": 0.0},
            {"exponents": [1.5, 0], "re": 1.0, "im": 0.0},
            {"exponents": [-1, 1], "re": 1.0, "im": 0.0},
            {"exponents": [1, 0, 0], "re": 1.0, "im": 0.0},
            {"exponents": "12", "re": 1.0, "im": 0.0},
            {"exponents": [10**30, 0], "re": 1.0, "im": 0.0},
            {"exponents": [1e308, 1e308], "re": 1.0, "im": 0.0},
            {"exponents": [1, 0], "re": "0", "im": 0.0},
            {"exponents": [1, 0], "re": 1.0, "im": None},
            [[1, 0], 1.0, 0.0],
        ],
        ids=["bool-exponent", "fractional-exponent", "negative-exponent", "exponents-length",
             "string-exponents", "huge-exponent", "overflowing-degree", "string-re", "null-im",
             "list-record"],
    )
    def test_bad_phase_record_exits_2_with_one_line(self, tmp_path, capsys, record):
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        main(["build", "--config", str(config), "--out", str(out), "--quiet"])
        records = json.loads((out / "basis.json").read_text())
        records[3]["phase"].insert(1, record)
        (out / "basis.json").write_text(json.dumps(records))
        assert main(["verify", "--config", str(config), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "basis.json" in err
        assert not (out / "report.json").exists()

    def test_deeply_nested_basis_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        out.mkdir()
        depth = 100000
        (out / "basis.json").write_text("[" * depth + "]" * depth)
        assert main(["verify", "--config", str(config), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_basis_path_that_is_a_directory_exits_2_with_one_line(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        (out / "basis.json").mkdir(parents=True)
        assert main(["verify", "--config", str(config), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "basis.json" in err

    @pytest.mark.parametrize(
        "overrides",
        [{"degree": 4}, {"center": [0.3, 0.1]},
         {"operator": {"type": "convected", "rho": 1.0, "mach": [0.2, 0.1], "kappa": 5.0}}],
        ids=["p", "x0", "operator"],
    )
    def test_basis_of_another_config_is_config_error(self, tmp_path, overrides):
        out = tmp_path / "out"
        main(["build", "--config", str(write_config(tmp_path / "a.json")), "--out", str(out), "--quiet"])
        other = write_config(tmp_path / "b.json", **overrides)
        assert main(["verify", "--config", str(other), "--out", str(out), "--quiet"]) == 2

    def test_evanescent_direction_in_report(self, tmp_path):
        config = write_config(tmp_path / "c.json", directions=1)
        split = build_problem(RunConfig.load(config)).split
        direction = (math.cosh(0.4), 1j * math.sinh(0.4))
        out = tmp_path / "out"
        out.mkdir()
        records = family_to_records([build_gpw(split, direction)])
        (out / "basis.json").write_text(json.dumps(records))
        assert main(["verify", "--config", str(config), "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["functions"][0]["direction"] == [direction[0], [0.0, direction[1].imag]]

    @pytest.mark.parametrize("keep", [0, 2], ids=["empty", "truncated"])
    def test_basis_of_another_size_exits_2_with_one_line(self, tmp_path, capsys, keep):
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        main(["build", "--config", str(config), "--out", str(out), "--quiet"])
        records = json.loads((out / "basis.json").read_text())
        (out / "basis.json").write_text(json.dumps(records[:keep]))
        assert main(["verify", "--config", str(config), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{keep} functions" in err and "7 directions" in err
        assert not (out / "report.json").exists()

    def test_missing_basis_is_config_error(self, tmp_path):
        config = write_config(tmp_path / "c.json")
        assert main(["verify", "--config", str(config), "--out", str(tmp_path / "nowhere")]) == 2

    def test_seed_override_lands_in_report(self, tmp_path):
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        main(["build", "--config", str(config), "--out", str(out), "--quiet"])
        main(
            ["verify", "--config", str(config), "--out", str(out), "--seed", "7", "--quiet"]
        )
        report = json.loads((out / "report.json").read_text())
        assert report["hypotheses"]["seed"] == 7


class TestCertificateFailure:
    @pytest.mark.parametrize("command", ["build", "rank", "converge"])
    def test_exits_1_without_traceback(self, tmp_path, capsys, monkeypatch, command):
        def corrupted_problem(config):
            problem = build_problem(config)
            return replace(problem, split=corrupted(problem.split))

        monkeypatch.setattr(gpwlab.cli, "build_problem", corrupted_problem)
        config = write_config(
            tmp_path / "c.json", h_values=[0.4, 0.2, 0.1, 0.05], operator=MANUFACTURED
        )
        assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "residual" in err and err.count("\n") == 1


    def test_failed_hypothesis_names_check_trial_and_layer(self, tmp_path, capsys, monkeypatch):
        def corrupted_problem(config):
            problem = build_problem(config)
            return replace(problem, split=corrupted(problem.split))

        config = write_config(tmp_path / "c.json", degree=4)
        assert main(["build", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(gpwlab.cli, "build_problem", corrupted_problem)
        assert main(["verify", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 1
        err = capsys.readouterr().err
        hypotheses = verify_split(corrupted_problem(RunConfig.load(config)).split, 50, 424242)
        worst = next(check for check in hypotheses.checks if not check.passed)
        assert worst.check == "remainder_degree_shift" and worst.layer is not None
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"check {worst.check} failed" in err
        assert f"at trial {worst.trial}, layer {worst.layer}" in err
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["hypotheses"] == json.loads(json_text(hypotheses.to_dict()))
        assert all(set(check) == {"check", "trials", "max_violation", "tolerance", "passed"}
                   for check in report["hypotheses"]["checks"])

    def test_nan_verify_exits_1_without_traceback(self, tmp_path, capsys, monkeypatch):
        def nan_problem(config):
            problem = build_problem(config)
            split = problem.split
            nan = replace(split, remainder=lambda poly: split.remainder(poly).scaled(math.nan))
            return replace(problem, split=nan)

        config = write_config(tmp_path / "c.json", degree=4)
        assert main(["build", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0
        monkeypatch.setattr(gpwlab.cli, "build_problem", nan_problem)
        assert main(["verify", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-finite" in err and err.count("\n") == 1
        assert not (tmp_path / "report.json").exists()


class TestRank:
    def test_plane_wave_rank_five(self, tmp_path):
        config = write_config(tmp_path / "c.json", degree=2, directions=10)
        out = tmp_path / "out"
        assert main(["rank", "--config", str(config), "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "rank.json").read_text())
        assert report["plane_rank"] == 5
        assert report["gpw_rank"] == 5
        assert report["equal"] is True


class TestConverge:
    def test_manufactured_passes(self, tmp_path):
        config = write_config(
            tmp_path / "c.json",
            degree=2,
            directions=5,
            h_values=[0.4, 0.2, 0.1, 0.05],
            operator=MANUFACTURED,
        )
        out = tmp_path / "out"
        assert main(["converge", "--config", str(config), "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "convergence.json").read_text())
        assert report["passed"] is True
        assert report["slope"] >= 2.75
        csv = (out / "convergence.csv").read_text().splitlines()
        assert csv[0] == "h,error,slope"
        assert len(csv) == 5

    def test_needs_manufactured_preset(self, tmp_path):
        config = write_config(tmp_path / "c.json", h_values=[0.4, 0.2, 0.1, 0.05])
        assert main(["converge", "--config", str(config), "--out", str(tmp_path)]) == 2

    def test_needs_enough_radii(self, tmp_path):
        config = write_config(
            tmp_path / "c.json", h_values=[0.4, 0.2], operator=MANUFACTURED
        )
        assert main(["converge", "--config", str(config), "--out", str(tmp_path)]) == 2


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path):
        config = write_config(tmp_path / "c.json")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            main(["build", "--config", str(config), "--out", str(out), "--quiet"])
            main(["verify", "--config", str(config), "--out", str(out), "--quiet"])
            main(["rank", "--config", str(config), "--out", str(out), "--quiet"])
        for name in ("basis.json", "report.json", "rank.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestSerializeHelpers:
    def test_float_formatting_repr(self):
        assert json_text(0.1) == "0.1\n"
        assert json_text([1.0, 2]) == "[\n  1.0,\n  2\n]\n"

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            json_text(float("nan"))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_csv_non_finite_rejected(self, value):
        with pytest.raises(ValueError):
            csv_text(("h", "error"), [(0.5, value)])

    def test_csv_formatting(self):
        text = csv_text(("h", "error", "slope"), [(0.5, 1e-3, None), (0.25, 1.2e-4, 3.06)])
        lines = text.splitlines()
        assert lines[0] == "h,error,slope"
        assert lines[1].endswith(",")
        assert lines[2] == "0.25,0.00012,3.06"

    def test_basis_records_round_trip_bit_for_bit(self):
        # the last of 49 sphere directions is (-0.0, 0.0, -1.0): signed zeros must survive
        center = (0.1, -0.0, 0.3)
        kappa_sq = GradedPoly(3, {(0, 0, 0): 16.0, (1, 0, 0): 1.3, (0, 1, 1): -0.4})
        split = make_helmholtz_split(CoefficientJet.from_polynomial(kappa_sq, center), 3)
        family = build_family(split, unit_sphere_directions(49), center=center)
        back = family_from_records(json.loads(json_text(family_to_records(family))))
        assert len(back) == len(family)
        for phi, psi in zip(family, back):
            assert psi.phase.vec.tobytes() == phi.phase.vec.tobytes()
            assert np.array(psi.direction).tobytes() == np.array(phi.direction).tobytes()
            assert np.array(psi.center).tobytes() == np.array(phi.center).tobytes()
