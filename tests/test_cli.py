import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import oscigeo
from oscigeo import cli, scalar, verify
from oscigeo.cli import _build_parser, main, parse_vector
from oscigeo.floats import (
    _RK4_BLOCK,
    closed_form_batch,
    coset_normal_form_f,
    g_mul_f,
    initial_state,
    rk4_blocks,
)
from oscigeo.groups import GroupElement, LatticeSpec, parse_group_element
from oscigeo.scalar import MAX_DIGITS, MAX_NESTING, PI, Scalar
from oscigeo.metric import TangentVector
from oscigeo.verify import run_suites

# the child interpreter imports the same package as the tests, installed or not
PACKAGE_ROOT = os.path.dirname(os.path.dirname(oscigeo.__file__))


def run_python(args, **kwargs):
    path = os.pathsep.join(filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        **kwargs,
    )


def run_cli(args, **kwargs):
    return run_python(["-m", "oscigeo", *args], **kwargs)


def test_parse_vector_forms():
    assert parse_vector("a0=1,a1=1,a2=0,a3=-1/2") == TangentVector.of(1, 1, 0, "-1/2")
    assert parse_vector("1,0,0,1/(4*pi)") == TangentVector.of(1, 0, 0, Scalar(1) / (4 * PI))
    with pytest.raises(ValueError):
        parse_vector("1,2,3")
    with pytest.raises(ValueError):
        parse_vector("b0=1,a1=0,a2=0,a3=0")
    # named and positional chunks mix; a positional chunk i sets a_i
    assert parse_vector(" A3 = 4, 2 ,a0=1,a2=3") == parse_vector("1,2,3,4") == parse_vector("a0=1,2,a2=3,4")


def test_rational_and_pi_laurent_vectors_need_no_descent(monkeypatch):
    # the shapes of closed directions, c + r/(d*pi) in a3, and of a period such as 4/3*pi
    # are read by the fast paths of parse_scalar alone
    def refuse(text):
        raise AssertionError(f"{text!r} reached the descent")

    monkeypatch.setattr(scalar, "_parse_text", refuse)
    expected = TangentVector.of(Fraction(-5, 4), 3, Fraction(-1, 2), Fraction(17, 4) + 1 / (3 * PI))
    assert parse_vector("a0=-5/4,a1=3,a2=-1/2,a3=17/4 + 1/(3*pi)") == expected
    assert parse_vector("a0=2/3,a1=0,a2=7,a3=0 - 9/(2*pi)") == TangentVector.of(Fraction(2, 3), 0, 7, -9 / (2 * PI))
    assert parse_vector("a0=1,a1=-1/6,a2=1/2,a3=-5/54 - 1/(4*pi)").a3 == Fraction(-5, 54) - 1 / (4 * PI)
    assert Scalar("4/3*pi") == 4 * PI / 3 and Scalar("2*pi") == 2 * PI


def test_a_cancelling_direction_traces_and_classifies_at_its_true_value(capsys):
    # 2646693125139304345/842468587426513207 and 4272943/1360120 are close to pi, so
    # a1 = p - q*pi keeps none of the digits that p and q*pi share
    vector = "0,2646693125139304345-842468587426513207*pi,0,0"
    assert main(["trace", "--vector", vector, "--s-end", "0.002", "--step", "0.001"]) == 0
    assert capsys.readouterr().out.splitlines()[2] == "0.001,0,-1.1884885795868426e-23,0,0"
    assert main(["classify", "--lattice", "k=1,twist=full", "--vector", "0,4272943-1360120*pi,0,0"]) == 0
    assert "(float 1819572.97167002)" in capsys.readouterr().out


@pytest.mark.parametrize("vector, name", [
    ("a1=5,2,3,4", "a1"),
    ("a0=1,a0=2,3,4", "a0"),
    ("1,2,3,a2=4", "a2"),
    ("a3=1,a3=1,a3=1,a3=1", "a3"),
])
def test_repeated_vector_component_is_a_usage_error_naming_it(capsys, vector, name):
    assert main(["classify", "--lattice", "k=1,twist=full", "--vector", vector]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: vector component '{name}' is given twice in '{vector}'\n" and not captured.out


def test_classify_null_example(capsys):
    code = main(["classify", "--lattice", "k=1,twist=full", "--vector", "a0=1,a1=1,a2=0,a3=-1/2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("null, periodic, T = 2*pi")
    assert "6.28318530717" in out


def test_classify_non_closed_example(capsys):
    code = main(["classify", "--lattice", "k=1,twist=full", "--vector", "a0=1,a1=0,a2=0,a3=1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "spacelike, non-closed"


def test_classify_central_null_k2(capsys):
    code = main(["classify", "--lattice", "k=2,twist=full", "--vector", "a0=0,a1=0,a2=0,a3=1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("null, periodic, T = 1/4")


def test_classify_json(capsys):
    code = main(
        ["classify", "--lattice", "k=1,twist=full", "--vector", "1,0,0,1/(4*pi)", "--format", "json"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out) == {
        "causal": "spacelike",
        "kind": "periodic",
        "minimal_T": "2*pi",
        "witness_m": 1,
    }


def test_classify_parse_error_names_token(capsys):
    code = main(["classify", "--lattice", "k=1,twist=full", "--vector", "1,0,0,zz"])
    err = capsys.readouterr().err
    assert code == 2
    assert "'z'" in err
    code = main(["classify", "--lattice", "k=1,twist=oops", "--vector", "1,0,0,0"])
    err = capsys.readouterr().err
    assert code == 2 and "oops" in err


_K_DIGITS = f"lattice field 'k' must be 1 to MAX_DIGITS = {MAX_DIGITS} digits 0-9, got"


@pytest.mark.parametrize("lattice, message", [
    ("k=\u0663,twist=full", f"{_K_DIGITS} '\u0663'"),  # an Arabic-Indic three
    ("k=1_0,twist=full", f"{_K_DIGITS} '1_0'"),
    ("k=1.5,twist=full", f"{_K_DIGITS} '1.5'"),
    ("k=+1,twist=full", f"{_K_DIGITS} '+1'"),
    ("k=,twist=full", f"{_K_DIGITS} ''"),
    (f"k={'1' * (MAX_DIGITS + 1)},twist=full", f"{_K_DIGITS} '{'1' * (MAX_DIGITS + 1)}'"),
    ("k=1,twist=full,k=2", "lattice field 'k' is given twice in 'k=1,twist=full,k=2'"),
    ("twist=half,k=1,twist=full", "lattice field 'twist' is given twice in 'twist=half,k=1,twist=full'"),
])
def test_malformed_lattice_is_a_usage_error_naming_the_field(capsys, lattice, message):
    for command in (
        ["classify", "--lattice", lattice, "--vector", "1,0,0,0"],
        ["trace", "--vector", "1,0,0,0", "--s-end", "0.1", "--quotient", "--lattice", lattice],
    ):
        assert main(command) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and not captured.out, command


def test_lattice_fields_take_any_order_case_and_spacing(capsys):
    outputs = []
    for lattice in ("k=2,twist=quarter", " Twist = QUARTER , K = 02 "):
        assert main(["classify", "--lattice", lattice, "--vector", "1,1,0,-1/2"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == "null, periodic, T = 1/2*pi (float 1.5707963267949), m = 1\n"


def test_trace_csv(tmp_path, capsys):
    out_file = tmp_path / "path.csv"
    code = main(
        ["trace", "--vector", "1,0,0,0", "--s-end", "1", "--step", "0.25", "--output", str(out_file)]
    )
    assert code == 0
    raw = out_file.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().strip().split("\n")
    assert lines[0] == "s,t,x,y,z"
    assert len(lines) == 6  # header + 5 samples
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == 1.0 and abs(last[1] - 1.0) < 1e-12


def test_trace_rk4_check_column(tmp_path):
    out_file = tmp_path / "check.csv"
    code = main(
        [
            "trace",
            "--vector", "2*pi,1,0,0",
            "--s-end", "1",
            "--step", "0.001",
            "--rk4-check",
            "--output", str(out_file),
        ]
    )
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "s,t,x,y,z,diff"
    diffs = [float(line.split(",")[5]) for line in lines[1:]]
    assert max(diffs) < 1e-7


def test_trace_quotient_wraps(tmp_path):
    out_file = tmp_path / "quot.csv"
    code = main(
        [
            "trace",
            "--vector", "1,0,0,0",
            "--quotient",
            "--lattice", "k=1,twist=full",
            "--s-end", "13",
            "--step", "0.05",
            "--output", str(out_file),
        ]
    )
    assert code == 0
    rows = [line.split(",") for line in out_file.read_text().strip().split("\n")[1:]]
    ts = [float(r[1]) for r in rows]
    assert max(ts) < float(2 * PI)


def test_trace_quotient_requires_lattice(capsys):
    code = main(["trace", "--vector", "1,0,0,0", "--quotient", "--output", "-"])
    assert code == 2


def test_trace_lattice_without_quotient_is_usage_error(capsys):
    for lattice in ("k=1,twist=bogus", "k=1,twist=full"):
        code = main(["trace", "--vector", "1,0,0,0", "--lattice", lattice, "--output", "-"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", lattice
        assert captured.err.startswith("error:") and "--quotient" in captured.err, lattice


TRACE_VECTOR, TRACE_BASE, TRACE_LATTICE = "1,1,-1/2,1/3", "(1/2; 1, -1; 1/4)", "k=1,twist=quarter"
# every combination of the flags that choose what a trace computes
TRACE_MODES = [
    [*quotient, *rk4, *check]
    for quotient in ([], ["--quotient", "--lattice", TRACE_LATTICE])
    for rk4 in ([], ["--rk4"])
    for check in ([], ["--rk4-check"])
]


def _trace_oracle(vector, base, n, h, mode):
    """The rows of a trace, built from whole paths at once: the closed form, the
    RK4 states, the sup distance of the two, and the coset normal forms."""
    a = np.array(parse_vector(vector).to_float())
    base = np.array(parse_group_element(base).to_float())
    s = np.arange(n + 1) * h
    closed = g_mul_f(base, closed_form_batch(a, s))
    blocks = list(rk4_blocks(initial_state(base, a), n, h))
    integrated = np.concatenate([blocks[0][:1], *(block[1:] for block in blocks)])[:, :4]
    path = integrated if "--rk4" in mode else closed
    if "--quotient" in mode:
        path = coset_normal_form_f(LatticeSpec.parse(mode[mode.index("--lattice") + 1]), path)
    if "--rk4-check" in mode:
        return np.column_stack([s, path, np.max(np.abs(closed - integrated), axis=1)])
    return np.column_stack([s, path])


def _csv_text(rows, header):
    return header + "\n" + "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows.tolist())


@pytest.mark.parametrize("n", [0, 1, _RK4_BLOCK - 1, _RK4_BLOCK, _RK4_BLOCK + 1, 2 * _RK4_BLOCK + 1])
def test_trace_output_at_chunk_boundaries_matches_whole_path_oracles(tmp_path, n):
    # a chunk is _RK4_BLOCK steps; --quotient composes with --rk4 and --rk4-check,
    # the diff taken before the reduction
    h = 0.01
    out = tmp_path / "trace.out"
    for mode in TRACE_MODES:
        whole = _trace_oracle(TRACE_VECTOR, TRACE_BASE, n, h, mode)
        header = "s,t,x,y,z,diff" if "--rk4-check" in mode else "s,t,x,y,z"
        for fmt, want in (("csv", _csv_text(whole, header)), ("json", json.dumps(whole.tolist()))):
            argv = ["trace", "--vector", TRACE_VECTOR, "--base", TRACE_BASE, "--s-end", repr(n * h),
                    "--step", repr(h), "--format", fmt, "--output", str(out), *mode]
            assert main(argv) == 0
            assert out.read_bytes().decode() == want, (mode, fmt)


def test_trace_refused_within_its_first_chunk_writes_nothing(tmp_path, capsys):
    quotient = ["--quotient", "--lattice", "k=1,twist=full"]
    refused = [
        (["--s-end", "1e12", "--step", "1e-6"], "MAX_SAMPLES"),
        (["--s-end", "1e300", "--step", "1e299", *quotient], "MAX_REDUCED_STEPS"),
    ]
    for extra, limit in refused:
        for fmt in ("csv", "json"):
            out = tmp_path / f"refused.{fmt}"
            for target in (str(out), "-"):
                argv = ["trace", "--vector", "1,0,0,0", "--format", fmt, "--output", target, *extra]
                assert main(argv) == 2
                captured = capsys.readouterr()
                assert captured.out == "" and limit in captured.err
            assert not out.exists()


def test_trace_refused_in_a_later_chunk_ends_after_the_rows_written(tmp_path, capsys):
    # x = s on a line; rows 0.._RK4_BLOCK stay within MAX_REDUCED_STEPS = 2**52
    # lattice steps, and row 4504, in the second chunk, does not
    vector, base, n, h = "0,1,0,0", "(0; 0, 0; 0)", 5000, 1e12
    mode = ["--quotient", "--lattice", "k=1,twist=full"]
    assert (_RK4_BLOCK + 1) * h < 2**52 < n * h
    first = _trace_oracle(vector, base, _RK4_BLOCK, h, mode)
    out = tmp_path / "partial.out"
    for fmt, want in (("csv", _csv_text(first, "s,t,x,y,z")), ("json", json.dumps(first.tolist())[:-1])):
        argv = ["trace", "--vector", vector, "--s-end", repr(n * h), "--step", repr(h),
                "--format", fmt, "--output", str(out), *mode]
        assert main(argv) == 2
        assert "MAX_REDUCED_STEPS = 2**52" in capsys.readouterr().err
        assert out.read_bytes().decode() == want, fmt


def test_trace_json_format(capsys):
    code = main(["trace", "--vector", "0,1,0,0", "--s-end", "0.2", "--step", "0.1", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert len(data) == 3 and len(data[0]) == 5
    assert abs(data[2][2] - 0.2) < 1e-15


@pytest.mark.parametrize("fmt, nan", [("csv", "nan"), ("json", "NaN")])
def test_trace_leaving_the_float_range_writes_nan_without_warnings(fmt, nan):
    # RK4 at step 1 overflows to inf and then nan: the rows say so, stderr stays empty
    result = run_cli(["trace", "--vector", "3,-2/4,-2*pi/1,0", "--s-end", "5425", "--step", "1",
                      "--rk4", "--rk4-check", "--format", fmt])
    assert result.returncode == 0
    assert result.stderr == ""
    assert nan in result.stdout.splitlines()[-1]


def test_trace_non_finite_step_is_usage_error(capsys):
    quotient = ["--quotient", "--lattice", "k=1,twist=full"]
    for extra in (["--step", "inf"], ["--s-end", "inf"], ["--step", "inf", *quotient]):
        code = main(["trace", "--vector", "1,0,0,0", "--output", "-", *extra])
        assert code == 2 and capsys.readouterr().err.startswith("error:"), extra


def test_trace_beyond_max_samples_is_usage_error(capsys):
    code = main(["trace", "--vector", "1,0,0,0", "--s-end", "1e12", "--step", "1e-6"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "MAX_SAMPLES = 10000000" in err


def test_trace_quotient_beyond_float_resolution_is_usage_error(capsys):
    # t reaches 1e300, where t mod 2*pi has no float digits left
    code = main(["trace", "--vector", "1,0,0,0", "--quotient", "--lattice", "k=1,twist=full",
                 "--s-end", "1e300", "--step", "1e299"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "MAX_REDUCED_STEPS = 2**52" in err


def test_dash_led_values_read_like_the_equals_form(capsys):
    # argparse alone takes "-1,0,0,1/2" and "-1e1" for options of their own
    pairs = (
        (["classify", "--lattice", "k=1,twist=full", "--vector", "-1,0,0,1/2"],
         ["classify", "--lattice", "k=1,twist=full", "--vector=-1,0,0,1/2"]),
        (["trace", "--vector", "-1,0,0,1/2", "--s-end", "-1e1", "--step", "0.1"],
         ["trace", "--vector=-1,0,0,1/2", "--s-end=-1e1", "--step", "0.1"]),
    )
    outputs = []
    for spaced, joined in pairs:
        assert main(spaced) == 0
        out = capsys.readouterr().out
        assert main(joined) == 0
        assert capsys.readouterr().out == out
        outputs.append(out)
    assert outputs == ["timelike, non-closed\n", "s,t,x,y,z\n0,0,0,0,0\n"]
    # an option given no value still reports its missing argument
    with pytest.raises(SystemExit) as exit_info:
        main(["trace", "--vector", "--s-end", "1"])
    assert exit_info.value.code == 2


def _main_outcome(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_per_process_answers_like_a_fresh_one(monkeypatch, capsys):
    calls = [
        ("80", ["trace", "--vector"]),
        ("80", ["classify", "--lattice", "k=1,twist=half", "--vector", "0,0,0,1"]),
        ("80", ["trace", "--vector", "1,0,0,0", "--s-end", "1", "--step", "0.5"]),
        ("80", ["trace", "--help"]),
        ("50", ["trace", "--help"]),
    ]
    outcomes = {}
    for fresh in (True, False):
        _build_parser.cache_clear()
        for columns, argv in calls:
            monkeypatch.setenv("COLUMNS", columns)
            if fresh:
                _build_parser.cache_clear()
            outcomes.setdefault(fresh, []).append(_main_outcome(argv, capsys))
    assert _build_parser() is _build_parser()
    assert outcomes[False] == outcomes[True]
    assert [code for code, _, _ in outcomes[False]] == [2, 0, 0, 0, 0]
    assert outcomes[False][3][1] != outcomes[False][4][1]  # help follows COLUMNS


@pytest.mark.parametrize("base, message", [
    ("1; 2, 3; 4", "group element must look like '(t; x, y; z)', got '1; 2, 3; 4'"),
    ("(1; 2, 3)", "group element needs two ';' separators, got '(1; 2, 3)'"),
    ("(1; 2; 3)", "group element needs 'x, y' in the middle, got '(1; 2; 3)'"),
])
def test_malformed_base_is_a_usage_error_naming_the_form(capsys, base, message):
    assert main(["trace", "--vector", "1,0,0,0", "--s-end", "0.1", "--base", base]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and not captured.out


def test_trace_unwritable_output(capsys):
    code = main(["trace", "--vector", "1,0,0,0", "--s-end", "1", "--step", "0.5",
                 "--output", "/nonexistent-dir/x.csv"])
    err = capsys.readouterr().err
    assert code == 3 and "cannot write" in err


def test_verify_single_suite(capsys):
    code = main(["verify", "--suite", "curvature"])
    out = capsys.readouterr().out
    assert code == 0
    assert "curvature" in out and "PASS" in out


def test_verify_groups_normalizer_metric_quotients_pass_with_pinned_counts():
    # run in process at seed 0; a check added or lost moves a count
    results = run_suites(["scalar", "groups", "normalizer", "metric", "curvature", "isometries", "quotients"], seed=0)
    assert [(r.name, r.checks, r.failures) for r in results] == [
        ("scalar", 1199, []),
        ("groups", 800, []),
        ("normalizer", 1500, []),
        ("metric", 321, []),
        ("curvature", 480, []),
        ("isometries", 421, []),
        ("quotients", 4004, []),
    ]


def test_verify_text_lists_a_failing_suites_first_ten_failures(monkeypatch, capsys):
    def failing(rng):
        res = verify.SuiteResult("curvature")
        for i in range(12):
            res.check(i % 2 == 0, f"check {i} fails")
        return res

    monkeypatch.setitem(verify.SUITES, "curvature", failing)
    assert main(["verify", "--suite", "curvature", "--suite", "scalar"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == ["curvature  FAIL  (12 checks)", "    check 1 fails", "    check 3 fails", "    check 5 fails"]
    assert lines[6:] == ["    check 11 fails", "scalar     PASS  (1199 checks)"]


def test_verify_unknown_suite(capsys):
    code = main(["verify", "--suite", "nonsense"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: unknown suite 'nonsense'; available: "
        "scalar, groups, normalizer, metric, curvature, geodesics, isometries, quotients\n"
    )


def test_verify_deterministic_under_seed(capsys):
    code = main(["verify", "--suite", "scalar", "--seed", "5", "--format", "json"])
    first = capsys.readouterr().out
    code2 = main(["verify", "--suite", "scalar", "--seed", "5", "--format", "json"])
    second = capsys.readouterr().out
    assert code == code2 == 0
    assert first == second


def test_env_seed_override(monkeypatch, capsys):
    monkeypatch.setenv("OSCIGEO_SEED", "9")
    code = main(["verify", "--suite", "scalar", "--format", "json"])
    with_env = capsys.readouterr().out
    monkeypatch.delenv("OSCIGEO_SEED")
    code2 = main(["verify", "--suite", "scalar", "--seed", "9", "--format", "json"])
    explicit = capsys.readouterr().out
    assert code == code2 == 0
    assert with_env == explicit
    monkeypatch.setenv("OSCIGEO_SEED", "nine")
    assert main(["verify", "--suite", "scalar"]) == 2
    assert capsys.readouterr().err == "error: OSCIGEO_SEED must be an integer, got 'nine'\n"


def test_only_the_documented_refusals_are_usage_errors(monkeypatch, capsys):
    # a KeyError is a bug in a command, not a refusal of the input: it propagates
    def broken(args):
        raise KeyError("a0")

    monkeypatch.setitem(cli._COMMANDS, "classify", broken)
    with pytest.raises(KeyError):
        main(["classify", "--lattice", "k=1,twist=full", "--vector", "1,0,0,0"])
    monkeypatch.undo()
    for argv, message in (
        (["classify", "--lattice", "k=1,twist=oops", "--vector", "1,0,0,0"], "unknown twist 'oops'"),
        (["classify", "--lattice", "k=1,twist=full", "--vector", "1/0,0,0,0"], "division by zero"),
        (["verify", "--suite", "nonsense"], "unknown suite 'nonsense'"),
    ):
        assert main(argv) == 2
        assert message in capsys.readouterr().err, argv


def test_module_entrypoint_runs():
    proc = run_cli(["classify", "--lattice", "k=1,twist=half", "--vector", "0,0,0,1"])
    assert proc.returncode == 0
    assert proc.stdout.startswith("null, periodic, T = 1/2")


def test_usage_error_exit_code():
    proc = run_cli(["clasify"])
    assert proc.returncode == 2


def test_printed_scalars_reparse():
    from oscigeo.scalar import parse_scalar
    from oscigeo.quotients import classify_geodesic, verdict_to_json
    from oscigeo.groups import LatticeSpec, Twist

    L = LatticeSpec(1, Twist.QUARTER)
    X = TangentVector.of(1, 1, 0, "-1/2")
    causal, verdict = classify_geodesic(L, X)
    payload = verdict_to_json(causal, verdict)
    assert parse_scalar(payload["minimal_T"]) == verdict.minimal_T


def test_division_by_zero_in_vector_is_usage_error():
    proc = run_cli(
        ["classify", "--lattice", "k=1,twist=full", "--vector", "a0=1/0,a1=0,a2=0,a3=1"]
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_values_with_coefficients_beyond_floats_print(tmp_path, capsys):
    big = 10**400
    # a0 = big/(big + pi) is about 1 though each coefficient overflows a float
    proc = run_cli(["trace", "--vector", f"{big}/({big}+pi),0,0,0", "--s-end", "1", "--step", "0.5"])
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    assert proc.stdout == "s,t,x,y,z\n0,0,0,0,0\n0.5,0.5,0,0,0\n1,1,0,0,0\n"
    # A = 1/big: the period 2 big pi is beyond the float range and prints as inf
    vector = f"a0=1,a1=0,a2=0,a3=1/(4*{big}*pi)"
    proc = run_cli(["classify", "--lattice", "k=1,twist=full", "--vector", vector])
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    assert proc.stdout == f"spacelike, periodic, T = {2 * big}*pi (float inf), m = {big}\n"
    # a direction or base point beyond the float range cannot be traced, and no file is made
    out = tmp_path / "refused.csv"
    for extra in (
        ["--vector", f"{big},0,0,0"],
        ["--vector", f"{big}*pi,0,0,0"],
        ["--vector", "1,0,0,0", "--base", f"(0; -{big}, 0; 0)"],
    ):
        assert main(["trace", *extra, "--s-end", "1", "--step", "0.5", "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: the direction and the base point must lie within the float range\n"
        assert not captured.out and not out.exists(), extra


def test_trace_converts_the_direction_and_the_base_point_once(monkeypatch, capsys):
    converted = []
    for cls in (TangentVector, GroupElement):
        exact = cls.to_float
        monkeypatch.setattr(cls, "to_float", lambda self, exact=exact: converted.append(type(self)) or exact(self))
    argv = ["trace", "--vector", "1,1,0,0", "--base", "(0; 1, 0; 0)", "--s-end", "1", "--step", "0.5"]
    assert main(argv) == 0 and capsys.readouterr().out.count("\n") == 4
    assert sorted(cls.__name__ for cls in converted) == ["GroupElement", "TangentVector"]


def test_answers_beyond_the_int_text_cap_print_every_digit(capsys):
    # Python caps int-to-text at sys.get_int_max_str_digits() = 4300 digits by default; an
    # answer of about 5000 digits prints in full, in both formats, and the cap stays as it was
    from decimal import Decimal

    nines, ten = "9" * 999, "1" + "0" * 999
    big = (10**999 - 1) ** 5
    twice, m = str(Decimal(2 * big)), str(Decimal(big))
    cases = (
        (f"a0=0,a1=1/({ten}*{ten}*{ten}*{ten}*{ten}),a2=0,a3=0", "1" + "0" * 4995, None),
        (f"a0=1,a1=0,a2=0,a3=1/(4*{nines}*{nines}*{nines}*{nines}*{nines}*pi)", f"{twice}*pi", m),
    )
    cap = sys.get_int_max_str_digits()
    for vector, T, witness in cases:
        for fmt in ("text", "json"):
            code = main(["classify", "--lattice", "k=1,twist=full", "--vector", vector, "--format", fmt])
            captured = capsys.readouterr()
            assert (code, captured.err, sys.get_int_max_str_digits()) == (0, "", cap)
            if fmt == "text":
                expected = f"spacelike, periodic, T = {T} (float inf)" + ("" if witness is None else f", m = {witness}")
            else:
                shown = "null" if witness is None else witness
                expected = f'{{"causal": "spacelike", "kind": "periodic", "minimal_T": "{T}", "witness_m": {shown}}}'
            assert captured.out == expected + "\n"
            if fmt == "json" and witness is not None:
                # the two ways the README gives a Python reader to load the witness
                assert json.loads(captured.out, parse_int=Decimal)["witness_m"] == Decimal(big)
                try:
                    sys.set_int_max_str_digits(0)
                    assert json.loads(captured.out)["witness_m"] == big
                finally:
                    sys.set_int_max_str_digits(cap)
    assert (len(m), len(twice)) == (4995, 4996)


def test_parser_limit_is_usage_error(capsys):
    import time

    vector = "a0=1,a1=0,a2=0,a3=1/(pi^400+1)"
    start = time.perf_counter()
    with pytest.raises(ValueError, match="MAX_DEGREE"):
        parse_vector(vector)
    assert time.perf_counter() - start < 0.1
    code = main(["classify", "--lattice", "k=1,twist=full", "--vector", vector])
    assert code == 2
    assert "MAX_DEGREE = 64" in capsys.readouterr().err


def test_parser_nesting_limit_is_usage_error():
    # the recursive descent would overflow Python's stack near 250 levels; the
    # limit refuses deeper literals with exit code 2 before any recursion error
    def nested(depth, inner):
        return "(" * depth + inner + ")" * depth

    for depth in (MAX_NESTING + 1, 300):
        for extra in (
            ["classify", "--lattice", "k=1,twist=full", "--vector", f"a0={nested(depth, '1')},a1=0,a2=0,a3=0"],
            ["trace", "--vector", "1,0,0,0", "--s-end", "0.1", "--base", f"({nested(depth, '0')}; 0, 0; 0)"],
        ):
            proc = run_cli(extra)
            assert proc.returncode == 2 and not proc.stdout, (depth, extra[0])
            assert proc.stderr == f"error: parentheses nested deeper than the limit MAX_NESTING = {MAX_NESTING}\n"
    vector = f"a0={nested(MAX_NESTING, '1')},a1=0,a2=0,a3=0"
    proc = run_cli(["classify", "--lattice", "k=1,twist=full", "--vector", vector])
    assert proc.returncode == 0 and proc.stdout == "null, periodic, T = 2*pi (float 6.28318530717959), m = 1\n"
    base = f"({nested(MAX_NESTING, '0')}; 0, 0; 0)"
    proc = run_cli(["trace", "--vector", "1,0,0,0", "--s-end", "0.1", "--base", base])
    assert proc.returncode == 0 and proc.stdout.startswith("s,t,x,y,z\n")


def _imports_numpy(args):
    """Whether a fresh interpreter running ``python -X importtime <args>`` imports numpy."""
    proc = run_python(["-X", "importtime", *args], check=True)
    names = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    return "numpy" in names


def test_exact_paths_import_no_numpy():
    classify = ["classify", "--lattice", "k=3,twist=quarter", "--vector", "a0=1,a1=1,a2=0,a3=-1/2"]
    assert not _imports_numpy(["-c", "import oscigeo"])
    assert not _imports_numpy(["-c", "import oscigeo.quotients"])
    exact = "scalar", "groups", "metric", "geodesics", "quotients", "isometries", "cli"
    assert not _imports_numpy(["-c", "import " + ", ".join(f"oscigeo.{m}" for m in exact)])
    assert not _imports_numpy(["-m", "oscigeo", *classify])
    # the float layer does load it, so the check above can see numpy
    assert _imports_numpy(["-m", "oscigeo", "trace", "--vector", "1,0,0,0", "--s-end", "0.1"])


def test_public_names_resolve_lazily():
    for name in oscigeo.__all__:
        assert getattr(oscigeo, name) is not None, name
        assert name in dir(oscigeo), name
    with pytest.raises(AttributeError):
        oscigeo.no_such_name
