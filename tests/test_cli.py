import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from kbundle import cli
from kbundle.bounds import CERTIFICATES, THEOREMS
from kbundle.cli import main
from kbundle.powers import KINDS
from kbundle.stability import ENGINES, MODES
from kbundle.tannaka import METHODS, PROVEN, SECTION_ENGINES


FIVE_QUADRICS = "X^2 - Y^2, X^2 - Z^2, X*Y, X*Z, Y*Z"
DUAL_JOB = {
    "ring": {"variables": ["X", "Y", "Z"], "field": "qq", "order": "degrevlex"},
    "object": {"kernel": {
        "twists_a": [3, 3, 3, 3, 3, 3],
        "twists_b": [4, 4],
        "matrix": [["X", "-Y", "-Y", "0", "-Z", "0"],
                   ["0", "0", "X", "-Y", "0", "Z"]],
    }},
    "task": {"name": "check", "options": {"engine": "both"}},
}


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the work a job does after its options are read
WORK = ["kbundle.cli.analyze_bundle", "kbundle.stability.analyze_bundle",
        "kbundle.tannaka.power_presentation", "kbundle.tannaka.fingerprint",
        "kbundle.cli.restriction_bound", "kbundle.bounds.restriction_bound",
        "kbundle.cli.closure_threshold", "kbundle.bounds.closure_threshold"]


def forbid_work(monkeypatch):
    for name in WORK:
        def refused(*args, name=name, **kwargs):
            raise AssertionError(f"{name} ran before the options were checked")
        monkeypatch.setattr(name, refused)


def test_check_reads_a_syzygy_bundle_however_it_is_given():
    # Syz(X^3, Y^3, Z^3, XYZ)(4) as a syzygy job and as a one-row kernel
    # job: one bundle, so the same criteria and the same report
    ring = {"variables": ["X", "Y", "Z"]}
    task = {"name": "check"}
    syzygy = cli.execute_job({"ring": ring, "task": task, "object": {"syzygy": {
        "generators": ["X^3", "Y^3", "Z^3", "X*Y*Z"], "twist": 4}}})
    kernel = cli.execute_job({"ring": ring, "task": task, "object": {"kernel": {
        "twists_a": [1, 1, 1, 1], "twists_b": [4],
        "matrix": [["X^3", "Y^3", "Z^3", "X*Y*Z"]]}}})
    assert kernel[0]["results"] == syzygy[0]["results"]
    assert kernel[1:] == syzygy[1:]
    assert list(kernel[0]["results"]["criteria"]) == ["brenner_monomial"]


def test_check_five_quadrics_via_pullback(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli([
        "check", "--syzygy", FIVE_QUADRICS, "--upgrade", "selfdual",
        "--via-pullback", "2", "--json-out", str(out_path)], capsys)
    assert code == 0
    assert "verdict: semistable" in out
    assert "proven_via_selfduality" in out
    report = json.loads(out_path.read_text())
    assert report["results"]["report"]["stability"] == "proven_via_selfduality"
    assert report["results"]["pullback"]["report"]["stability"] == \
        "proven_via_selfduality"


def test_sections_exterior_on_dual_bundle(capsys):
    code, out, _ = run_cli([
        "sections", "--matrix", "X, -Y, -Y, 0, -Z, 0; 0, 0, X, -Y, 0, Z",
        "--twists-a", "3,3,3,3,3,3", "--twists-b", "4,4",
        "--kind", "exterior", "--q", "2", "--twists=-6..-4"], capsys)
    assert code == 0
    assert "k = -6: 0" in out
    lines = {l.strip() for l in out.splitlines()}
    nonzero_at_minus5 = [l for l in lines if l.startswith("k = -5:")]
    assert nonzero_at_minus5 and not nonzero_at_minus5[0].endswith(" 0")


@pytest.mark.parametrize("twists, shown", [
    ("-3,5,1", "-3,5,1"), ("1,0", "1,0"), ("0,2", "0,2"), ("-1,0,1", "-1..1"),
    ("-1..1", "-1..1"), ("4", "4..4")])
def test_sections_header_names_the_twists_it_lists(twists, shown, capsys):
    # LO..HI only for one ascending run; any other list is shown as given
    code, out, _ = run_cli([
        "sections", "--syzygy", "X^2,Y^2,Z^2,X*Y", "--twist", "3", "--kind",
        "tensor", "--q", "2", f"--twists={twists}"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"h^0((tensor^2 E)(k)) for k in {shown}:"
    assert [l.split(":")[0] for l in lines[1:]] == \
        [f"  k = {k}" for k in cli._parse_twist_range(twists)]


def test_malformed_polynomial_exits_1(capsys):
    code, _, err = run_cli(["check", "--syzygy", "X^2 +* Y"], capsys)
    assert code == 1
    assert "input error" in err


@pytest.mark.parametrize("generators, char", [
    ("X^\u00b2,Y^2,Z^2", "\u00b2"), ("\u0663*X,Y^2,Z^2", "\u0663")])
def test_non_ascii_digit_is_an_input_error(generators, char, capsys):
    code, out, err = run_cli(["check", "--syzygy", generators], capsys)
    assert code == 1 and not out
    position = generators.index(char) + 1
    assert err == (f"input error: unexpected character {char!r} "
                   f"(at position {position})\n")


@pytest.mark.parametrize("twists", ["5..3", "", "a..b", "1,x"])
def test_malformed_twist_range_exits_1(twists, capsys):
    code, _, err = run_cli([
        "sections", "--syzygy", FIVE_QUADRICS, f"--twists={twists}"], capsys)
    assert code == 1
    assert "input error" in err and "twist range" in err


def test_twist_range_is_bounded_before_it_is_built(tmp_path, capsys, monkeypatch):
    # a sections table has one entry per twist and a job has no default
    # timeout: a range of more than MAX_TWISTS twists, counted from its
    # endpoints, is refused with the options, before anything is parsed
    job = {**SYZ_JOB, "task": {"name": "sections",
                               "options": {"twists": "0..100000000"}}}
    forbid_parsing(monkeypatch, "build_ring", "build_object")
    started = time.perf_counter()
    with pytest.raises(cli.InputError,
                       match="holds 100000001 twists, more than 1000$"):
        cli.execute_job(job)
    assert time.perf_counter() - started < 1.0
    code, out, err = run_job(tmp_path, capsys, job)
    assert (code, out) == (1, "") and err.endswith("more than 1000\n")
    limit = cli.MAX_TWISTS
    at_limit = cli._check_options("sections", {"twists": f"-5..{limit - 6}"})
    assert at_limit["twists"] == list(range(-5, limit - 5))
    assert len(cli._check_options("sections", {"twists": ",".join(
        map(str, range(limit)))})["twists"]) == limit
    for text in (f"-5..{limit - 5}", ",".join(map(str, range(limit + 1)))):
        with pytest.raises(cli.InputError, match=f"holds {limit + 1} twists"):
            cli._check_options("sections", {"twists": text})


@pytest.mark.parametrize("presentation", [
    # a common zero of the generators, seen by the parameter criterion
    ["--syzygy", "X^2, X*Y, Y^2"],
    # the same, seen by the monomial (Brenner) criterion
    ["--syzygy", "X^2, X*Y, Y^2, X*Z"],
    # no syzygy spec: the surjectivity test of the maximal minors decides
    ["--matrix", "X^2, X*Y, Y^2", "--twists-a=-2,-2,-2", "--twists-b", "0"],
    # the same where no criterion applies to contradict the verdict
    ["--matrix", "X^2, X*Y, Y^2, X*Z", "--twists-a=-2,-2,-2,-2",
     "--twists-b", "0"],
])
def test_check_rejects_non_bundle(presentation, capsys):
    code, out, err = run_cli(["check"] + presentation, capsys)
    assert code == 1
    assert err.startswith("input error:") and not out


def test_unknown_variable_exits_1(capsys):
    code, _, err = run_cli(["check", "--syzygy", "X^2, W^2, Z^2"], capsys)
    assert code == 1
    assert "W" in err


def test_zero_second_budget_exits_2(capsys):
    code, out, err = run_cli([
        "check", "--syzygy", "X^2, Y^2, Z^2", "--twist", "3",
        "--timeout-seconds", "0"], capsys)
    assert code == 2
    assert out == ""
    assert err == "indeterminate: timeout exceeded\n"


def test_resource_cap_exits_2(capsys):
    code, _, err = run_cli([
        "check", "--syzygy", FIVE_QUADRICS, "--engine", "gb",
        "--max-pairs", "1"], capsys)
    assert code == 2
    assert "indeterminate" in err


def test_validate_surjectivity(capsys):
    code, out, _ = run_cli([
        "validate", "--syzygy", FIVE_QUADRICS, "--check-surjectivity"], capsys)
    assert code == 0
    assert "surjective" in out


def test_validate_bad_bundle_exits_1(capsys):
    code, out, _ = run_cli([
        "validate", "--matrix", "X, Y^2, Z", "--twists-a=-1,-1,-1",
        "--twists-b", "0"], capsys)
    assert code == 1
    assert "degree-mismatch" in out


RANK_ZERO = ["--matrix", "X", "--twists-a", "0", "--twists-b", "1"]
SHAPE = "shape: need n > m >= 1, got n=1, m=1"


def test_validate_rank_zero_names_the_shape(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(["validate", *RANK_ZERO, "--json-out",
                              str(out_path)], capsys)
    assert code == 1 and not err
    assert f"problem: {SHAPE}" in out.splitlines()
    report = json.loads(out_path.read_text())
    assert report["results"]["bundle"]["rank"] == 0
    assert "mu" not in report["results"]["bundle"]
    assert report["results"]["problems"] == [SHAPE]


@pytest.mark.parametrize("args, problem", [
    (["tannaka", *RANK_ZERO, "--assume-stability", "proven_stable"], SHAPE),
    (["restrict", *RANK_ZERO, "--assume-stability", "stable"], SHAPE),
    (["sections", *RANK_ZERO], SHAPE),
    (["check", *RANK_ZERO], SHAPE),
    (["restrict", "--matrix", "X^2, Y, 1", "--twists-a", "0,0,0",
      "--twists-b", "1", "--assume-stability", "stable"],
     "degree-mismatch at (0, 0): entry must be homogeneous of degree 1; "
     "degree-mismatch at (0, 2): entry must be homogeneous of degree 1"),
    (["tannaka", "--matrix", "X, Y, 0, 1", "--twists-a", "0,0,0,1",
      "--twists-b", "1", "--assume-stability", "proven_stable"],
     "constant-entry at (0, 0): nonzero constant entries are not allowed"),
    (["sections", "--matrix", "X^3, Y, Z", "--twists-a", "0,0,0",
      "--twists-b", "1", "--kind", "tensor", "--engine", "staged",
      "--twists", "0..1"],
     "degree-mismatch at (0, 0): entry must be homogeneous of degree 1"),
    (["sections", "--vars", "X,Y", "--syzygy", "X^2, Y^2, X*Y"],
     "dimension: need projective dimension N >= 2, got 1"),
])
def test_bundle_tasks_reject_what_validate_reports(capsys, args, problem):
    # only validate reports on a malformed presentation; every other bundle
    # task stops at it, whichever path it takes
    code, out, err = run_cli(args, capsys)
    assert code == 1 and not out
    assert err == f"input error: {problem}\n"


def test_restrict_langer_quartics(capsys):
    code, out, _ = run_cli([
        "restrict", "--syzygy",
        "X^4 - Y^4, X^4 - Z^4, X^2*Y^2, X^2*Z^2, Y^2*Z^2",
        "--theorem", "langer", "--assume-stability", "stable"], capsys)
    assert code == 0
    assert "k_min = 61" in out


def count_primary_tests(monkeypatch) -> list:
    """Records every irrelevant-primary test the kbundle modules run."""
    import kbundle.bounds
    import kbundle.bundle
    from kbundle.modgb import is_irrelevant_primary
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return is_irrelevant_primary(*args, **kwargs)

    for module in (kbundle.bounds, kbundle.bundle):
        monkeypatch.setattr(module, "is_irrelevant_primary", counted)
    return calls


def test_closure_five_quadrics(capsys, monkeypatch):
    calls = count_primary_tests(monkeypatch)
    code, out, _ = run_cli([
        "closure", "--ideal", FIVE_QUADRICS], capsys)
    assert code == 0
    assert "tau = 5/2" in out
    assert "m >= 3" in out
    assert len(calls) == 1      # the analysis proved it; the bound reuses it


def test_closure_frobenius(capsys, monkeypatch):
    calls = count_primary_tests(monkeypatch)
    code, out, _ = run_cli([
        "closure", "--field", "fp:7", "--ideal", "X^2, Y^2, Z^2",
        "--candidate", "X*Y", "--genus", "0",
        "--strong-flag", "elliptic-curve"], capsys)
    assert code == 0
    assert "membership: False" in out
    assert len(calls) == 1      # the membership test reuses the threshold


@pytest.mark.parametrize("args", [
    ["--ideal", FIVE_QUADRICS, "--candidate", "X*Y*Z"],
    ["--field", "fp:7", "--ideal", "X^2, Y^2, Z^2", "--candidate", "X*Y",
     "--genus", "3", "--frobenius-e", "2", "--strong-flag", "elliptic-curve"],
])
def test_closure_trace_has_each_line_once(capsys, tmp_path, args):
    # over F_p the membership's lines follow the closure's, each once
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(["closure"] + args + ["--json-out", str(out_path)],
                         capsys)
    assert code == 0
    trace = json.loads(out_path.read_text())["results"]["trace"]
    assert any(line.startswith("tau = ") for line in trace)
    assert len(set(trace)) == len(trace), trace


@pytest.mark.parametrize("args, message", [
    (["--field", "fp:7", "--ideal", "X^2, Y^2, Z^2, 0", "--strong-flag", "x"],
     "ideal generators must be nonzero"),
    (["--ideal", "X^2, Y^2, Z^2, 0", "--assume-stability", "semistable"],
     "ideal generators must be nonzero"),
    (["--field", "fp:7", "--ideal", "X^2, Y^2, Z^2", "--candidate", "X*Y",
      "--genus", "-3", "--strong-flag", "x"],
     "genus must be >= 0, got -3"),
    (["--field", "fp:7", "--ideal", "X^2, Y^2, Z^2", "--candidate", "X*Y*Z",
      "--strong-flag", "general", "--plane-curve-degree", "0"],
     "plane curve degree must be >= 1, got 0"),
    (["--ideal", "X^2, Y^2, Z^2", "--candidate", "X*Y*Z", "--frobenius-e", "0"],
     "Frobenius exponent must be >= 1, got 0"),
    (["--field", "fp:7", "--ideal", "X^2, Y^2, Z^2", "--strong-flag", "g",
      "--frobenius-e", "0"],
     "Frobenius exponent must be >= 1, got 0"),
])
def test_closure_invalid_query_is_input_error(capsys, args, message):
    code, out, err = run_cli(["closure"] + args, capsys)
    assert code == 1
    assert out == ""
    assert f"input error: {message}" in err


def test_tannaka_rank2(capsys):
    code, out, _ = run_cli([
        "tannaka", "--syzygy", "X^2, Y^2, Z^2", "--twist", "3",
        "--q-max", "2", "--method", "exact"], capsys)
    assert code == 0
    assert "dual group: SL(2)" in out


def test_tannaka_self_dual_rank3_is_not_sl3(capsys):
    """Sym^2 of Syz(X^2, Y^2, Z^2)(3): its group is SO(3), whose volume form
    is one invariant in the third tensor power, as the determinant of SL(3)
    is; the self-dual pairing rules SL(3) out."""
    code, out, _ = run_cli([
        "tannaka", "--matrix", "2*X^2, Y^2, Z^2, 0, 0, 0; "
        "0, X^2, 0, 2*Y^2, Z^2, 0; 0, 0, X^2, 0, Y^2, 2*Z^2",
        "--twists-a", "2,2,2,2,2,2", "--twists-b", "4,4,4", "--q-max", "4"],
        capsys)
    assert code == 0
    dims = [line.split(" = ")[1].split()[0] for line in out.splitlines()
            if line.startswith("h^0(E0^(x)")]
    assert dims == ["0", "1", "1", "3"]
    assert "self-dual: True" in out
    assert "dual group: unknown" in out


@pytest.mark.parametrize("q_max", ["1", "0"])
def test_tannaka_q_max_below_two_is_input_error(capsys, q_max):
    code, _, err = run_cli([
        "tannaka", "--syzygy", "X^2, Y^2, Z^2", "--q-max", q_max], capsys)
    assert code == 1
    assert "input error: q_max must be at least 2" in err


@pytest.mark.parametrize("method", ["bogus", "prime:1000003", "two-prime"])
def test_tannaka_method_is_validated(capsys, monkeypatch, method):
    forbid_work(monkeypatch)
    code, out, err = run_cli([
        "tannaka", "--syzygy", "X^3, Y^3, Z^3, X*Y*Z", "--twist", "4",
        "--q-max", "3", "--method", method], capsys)
    assert code == 1 and not out
    assert err == (f"input error: option 'method' must be one of default, "
                   f"exact, got {method!r}\n")


def test_job_file_roundtrip_and_determinism(tmp_path, capsys):
    job_path = tmp_path / "job.json"
    job_path.write_text(json.dumps(DUAL_JOB))
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    code1, _, _ = run_cli(["run", str(job_path), "--json-out", str(out1)], capsys)
    code2, _, _ = run_cli(["run", str(job_path), "--json-out", str(out2)], capsys)
    assert code1 == code2 == 0
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    r1.pop("timing")
    r2.pop("timing")
    assert r1 == r2
    # byte-identical modulo the timing field
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    # verdict fields survive the round trip
    assert r1["results"]["report"]["verdict"] == "semistable"
    assert r1["results"]["report"]["per_power"][1]["alpha"] == -5


def test_job_file_missing_block(tmp_path, capsys):
    job_path = tmp_path / "bad.json"
    job_path.write_text(json.dumps({"ring": {"variables": ["X", "Y", "Z"]}}))
    code, _, err = run_cli(["run", str(job_path)], capsys)
    assert code == 1
    assert "missing" in err


@pytest.mark.parametrize("job, message", [
    ({**DUAL_JOB, "ring": {}}, "the 'ring' block is missing 'variables'"),
    ({**DUAL_JOB, "task": {"name": "check", "options": ["engine", "both"]}},
     "task options must be an object"),
    ({**DUAL_JOB, "ring": ["X", "Y", "Z"]}, "the 'ring' block must be an object"),
    ({**DUAL_JOB, "task": "check"}, "the 'task' block must be an object"),
])
def test_malformed_job_file_is_input_error(tmp_path, capsys, job, message):
    job_path = tmp_path / "bad.json"
    job_path.write_text(json.dumps(job))
    code, _, err = run_cli(["run", str(job_path)], capsys)
    assert code == 1
    assert f"input error: {message}" in err


@pytest.mark.parametrize("text", [None, "{\"ring\": ", "[1, 2"])
def test_unreadable_job_file_is_input_error(tmp_path, capsys, text):
    job_path = tmp_path / "job.json"
    if text is not None:
        job_path.write_text(text)
    code, out, err = run_cli(["run", str(job_path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"input error: cannot read job file {job_path}: ")


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unwritable_report_file_is_input_error(tmp_path, capsys, where):
    """The verdict is printed, then the report that cannot be written is an
    input error (exit 1), not a traceback."""
    out_path = tmp_path / "missing" / "x.json" if where == "missing" else tmp_path
    code, out, err = run_cli([
        "check", "--syzygy", "X^2, Y^2, Z^2", "--twist", "3",
        "--json-out", str(out_path)], capsys)
    assert code == 1
    assert "verdict" in out
    assert err.startswith(
        f"input error: cannot write report file {out_path}: "), err
    assert err.count("\n") == 1


def test_ideal_without_generators_is_input_error(tmp_path, capsys):
    job = {"ring": {"variables": ["X", "Y", "Z"]},
           "object": {"ideal": {"generators": []}},
           "task": {"name": "closure"}}
    job_path = tmp_path / "empty.json"
    job_path.write_text(json.dumps(job))
    code, out, err = run_cli(["run", str(job_path)], capsys)
    assert code == 1
    assert out == ""
    assert "input error: an ideal needs at least one generator" in err


@pytest.mark.parametrize("k", ["0", "-1"])
def test_via_pullback_below_one_is_input_error(capsys, k):
    # stability of this bundle is decided before any pullback would run
    code, _, err = run_cli([
        "check", "--syzygy", "X^2, Y^2, Z^2", "--twist", "3",
        "--via-pullback", k], capsys)
    assert code == 1
    assert f"input error: pullback exponent must be >= 1, got {k}" in err


@pytest.mark.parametrize("engine", ["staged", "linalg", "gb", "both"])
def test_sections_tensor_power_zero_is_input_error(capsys, engine):
    code, out, err = run_cli([
        "sections", "--syzygy", "X^2, Y^2, Z^2", "--twist", "3",
        "--kind", "tensor", "--q", "0", "--engine", engine,
        "--twists", "0..2"], capsys)
    assert code == 1
    assert out == ""
    assert "input error: tensor power needs q >= 1, got 0" in err


def test_sections_symmetric_power_in_small_characteristic_is_refused(capsys):
    # over F_2 the kernel of the Sym^3 presentation is larger than Sym^3 E:
    # its h^0 at k = 0..3 is 27, 51, 81, 117, where QQ and F_5 give 0, 0, 0, 10
    code, out, err = run_cli([
        "sections", "--field", "fp:2", "--syzygy", "X^2,Y^2,Z^2", "--twist",
        "3", "--kind", "symmetric", "--q", "3", "--twists", "0..3"], capsys)
    assert code == 1
    assert out == ""
    assert err == ("input error: symmetric power q=3 is unavailable in "
                   "characteristic 2\n")


@pytest.mark.parametrize("args, message", [
    (["--field", "fp:0", "--syzygy", "X^2, Y^2, Z^2"],
     "bad field spec 'fp:0': P must be a prime"),
    (["--matrix", "X, Y, Z", "--twists-a", "1,x,1", "--twists-b", "2"],
     "--twists-a must be integers, got '1,x,1'"),
    (["--field", "fp:1763", "--syzygy", "X^2, Y^2, Z^2"],
     "bad field spec 'fp:1763': characteristic 1763 is not prime"),
    (["--field", "gf:7", "--syzygy", "X^2, Y^2, Z^2"],
     "unknown field 'gf:7' (use qq or fp:P)"),
    (["--vars", "X,Y,X", "--syzygy", "X^2, Y^2"], "duplicate variable names"),
    (["--syzygy", "X^2, Y^2, Z^2", "--ideal", "X^2, Y^2, Z^2"],
     "give exactly one object: --syzygy, --ideal, or --matrix with "
     "--twists-a/--twists-b"),
    (["--matrix", "X, Y, Z", "--twists-a=-1,-1,-1"],
     "--matrix needs --twists-a and --twists-b"),
])
def test_bad_ring_or_object_flags_are_input_errors(capsys, args, message):
    code, out, err = run_cli(["check"] + args, capsys)
    assert code == 1
    assert out == ""
    assert f"input error: {message}" in err


SYZ_JOB = {
    "ring": {"variables": ["X", "Y", "Z"]},
    "object": {"syzygy": {"generators": ["X^2", "Y^2", "Z^2"], "twist": 3}},
    "task": {"name": "check", "options": {}},
}


ONE_OBJECT = "the 'object' block must hold exactly one of syzygy, kernel, ideal"


def with_object(**changes):
    kernel = {**DUAL_JOB["object"]["kernel"], **changes}
    return {**DUAL_JOB, "object": {"kernel": kernel}}


def with_task(name, **options):
    return {**SYZ_JOB, "task": {"name": name, "options": options}}


@pytest.mark.parametrize("job, message", [
    ({**SYZ_JOB, "object": {"syzygy": {"generators": ["X^2", "Y^2", "Z^2"],
                                       "twist": "abc"}}},
     "twist must be an integer, got 'abc'"),
    ({**SYZ_JOB, "ring": {"variables": ["X", "Y", "Z"], "field": 7}},
     "field must be a string, got 7"),
    (with_object(twists_a=[3, 3, 3, "x", 3, 3]),
     "twists_a entry must be an integer, got 'x'"),
    (with_object(twists_b=[4, 4.5]),
     "twists_b entry must be an integer, got 4.5"),
    (with_task("check", engin="gb"), "unknown option 'engin' for task 'check'"),
    (with_task("check", upgrade="none"),
     "unknown option 'upgrade' for task 'check'"),
    (with_task("tannaka", assume_stability="bogus"),
     "option 'assume_stability' must be one of proven_stable, "
     "proven_via_selfduality, got 'bogus'"),
    (with_task("restrict", assume_stability="proven_stable"),
     "option 'assume_stability' must be one of semistable, stable, "
     "got 'proven_stable'"),
    (with_task("sections", q="2"), "option 'q' must be an integer, got '2'"),
    (with_task("check", via_pullback=True),
     "option 'via_pullback' must be an integer, got True"),
    (with_task("check", timeout_seconds="1"),
     "option 'timeout_seconds' must be a number, got '1'"),
    (with_task("restrict", theorem=5), "option 'theorem' must be a string, got 5"),
    (with_task("validate", surjectivity="no"),
     "option 'surjectivity' must be a boolean, got 'no'"),
    ({**SYZ_JOB, "object": {"syzygy": {"generators": 5}}},
     "generators must be a list, got 5"),
    ({**SYZ_JOB, "object": {"syzygy": {"generators": "X^2, Y^2, Z^2"}}},
     "generators must be a list, got 'X^2, Y^2, Z^2'"),
    ({**SYZ_JOB, "object": {"syzygy": {"generators": ["X^2", 2, "Z^2"]}}},
     "generators entry must be a string, got 2"),
    ({**with_task("closure"), "object": {"ideal": {"generators": 5}}},
     "generators must be a list, got 5"),
    ({**SYZ_JOB, "object": {"syzygy": ["X^2", "Y^2", "Z^2"]}},
     "the 'syzygy' block must be an object, got ['X^2', 'Y^2', 'Z^2']"),
    (with_object(twists_a=3), "twists_a must be a list, got 3"),
    (with_object(twists_b="44"), "twists_b must be a list, got '44'"),
    (with_object(matrix=5), "matrix must be a list, got 5"),
    (with_object(matrix=["X, -Y", "Y, Z"]),
     "matrix row must be a list, got 'X, -Y'"),
    ({**SYZ_JOB, "ring": {"variables": 5}}, "variables must be a list, got 5"),
    (with_task("check", max_degree=-1),
     "option 'max_degree' must be nonnegative, got -1"),
    (with_task("check", max_pairs=-3),
     "option 'max_pairs' must be nonnegative, got -3"),
    (with_task("check", timeout_seconds=-0.5),
     "option 'timeout_seconds' must be nonnegative, got -0.5"),
    ({**SYZ_JOB, "object": {}}, ONE_OBJECT),
    ({**SYZ_JOB, "object": {**SYZ_JOB["object"], "ideal": {"generators": ["X"]}}},
     ONE_OBJECT),
])
def test_bad_job_file_values_are_input_errors(tmp_path, capsys, job, message):
    job_path = tmp_path / "bad.json"
    job_path.write_text(json.dumps(job))
    code, out, err = run_cli(["run", str(job_path)], capsys)
    assert code == 1
    assert out == ""
    assert f"input error: {message}" in err


def forbid_parsing(monkeypatch, *names):
    forbid_work(monkeypatch)
    for name in names:
        def refused(*args, name=name):
            raise AssertionError(f"{name} ran before the job was checked")
        monkeypatch.setattr(cli, name, refused)


def run_job(tmp_path, capsys, job):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    return run_cli(["run", str(path)], capsys)


@pytest.mark.parametrize("job, key, block", [
    ({**SYZ_JOB, "ring": {"variables": ["X", "Y", "Z"], "feild": "fp:7"}},
     "feild", "ring"),
    ({**SYZ_JOB, "object": {**SYZ_JOB["object"], "twsit": 3}}, "twsit", "object"),
    ({**SYZ_JOB, "object": {"syzygy": {"generators": ["X^2", "Y^2", "Z^2"],
                                       "twsit": 3}}}, "twsit", "syzygy"),
    (with_object(twist_b=[4, 4]), "twist_b", "kernel"),
    ({**SYZ_JOB, "object": {"ideal": {"generator": ["X^2", "Y^2", "Z^2"]}}},
     "generator", "ideal"),
    ({**SYZ_JOB, "task": {"name": "check", "option": {"engine": "gb"}}},
     "option", "task"),
    ({**SYZ_JOB, "options": {"engine": "gb"}}, "options", "job"),
])
def test_unknown_job_key_is_refused_before_any_work(tmp_path, capsys,
                                                    monkeypatch, job, key, block):
    # a misspelled key would leave its default in force: QQ, twist 0, ...
    forbid_parsing(monkeypatch, "build_ring", "build_object")
    assert run_job(tmp_path, capsys, job) == (
        1, "", f"input error: unknown key {key!r} in the {block!r} block\n")


CLOSURE_JOB = {"ring": {"variables": ["X", "Y", "Z"], "field": "fp:7"},
               "object": {"ideal": {"generators": ["X^2", "Y^2", "Z^2"]}},
               "task": {"name": "closure", "options": {}}}


@pytest.mark.parametrize("job, message", [
    ({"ring": SYZ_JOB["ring"], "object": SYZ_JOB["object"]},
     "the 'job' block is missing 'task'"),
    ([SYZ_JOB], "the 'job' block must be an object, got [{"),
    ({**SYZ_JOB, "ring": {"field": "fp:7"}},
     "the 'ring' block is missing 'variables'"),
    ({**SYZ_JOB, "task": {}}, "the 'task' block is missing 'name'"),
    ({**SYZ_JOB, "task": {"name": "verify"}}, "unknown task 'verify'"),
    ({**SYZ_JOB, "task": {"name": ["check"]}}, "unknown task ['check']"),
    ({**SYZ_JOB, "task": {"name": "check", "options": None}},
     "task options must be an object, got None"),
    ({**SYZ_JOB, "task": {"name": "check", "options": [["engine", "gb"]]}},
     "task options must be an object, got [['engine', 'gb']]"),
    ({**SYZ_JOB, "object": {"syzygy": {"twist": 3}}},
     "the 'syzygy' block is missing 'generators'"),
    ({**DUAL_JOB, "object": {"kernel": {"twists_a": [-1, -1],
                                        "matrix": [["X", "Y"]]}}},
     "the 'kernel' block is missing 'twists_b'"),
    ({**SYZ_JOB, "object": {"ideal": {}}},
     "the 'ideal' block is missing 'generators'"),
    ({**CLOSURE_JOB, "object": SYZ_JOB["object"]},
     "the 'object' block of a 'closure' job must hold ideal, got 'syzygy'"),
    ({**CLOSURE_JOB, "object": DUAL_JOB["object"]},
     "the 'object' block of a 'closure' job must hold ideal, got 'kernel'"),
    ({**CLOSURE_JOB, "task": {"name": "check"}},
     "the 'object' block of a 'check' job must hold syzygy or kernel, "
     "got 'ideal'"),
    ({**CLOSURE_JOB, "task": {"name": "sections"}},
     "the 'object' block of a 'sections' job must hold syzygy or kernel, "
     "got 'ideal'"),
])
def test_malformed_job_is_refused_before_anything_is_parsed(
        tmp_path, capsys, monkeypatch, job, message):
    # execute_job refuses it for a library caller just as `kbundle run` does
    forbid_parsing(monkeypatch, "build_ring", "build_object")
    with pytest.raises(cli.InputError) as info:
        cli.execute_job(job)
    assert str(info.value).startswith(message)
    code, out, err = run_job(tmp_path, capsys, job)
    assert (code, out) == (1, "")
    assert err.startswith(f"input error: {message}")


def test_the_ring_order_can_only_be_degrevlex(tmp_path, capsys, monkeypatch):
    # no answer depends on the monomial order, so there is only one
    xyz = {"variables": ["X", "Y", "Z"]}
    plain = run_job(tmp_path, capsys, {**SYZ_JOB, "ring": xyz})
    assert plain[0] == 0
    assert run_job(tmp_path, capsys, {**SYZ_JOB, "ring": {
        **xyz, "order": "degrevlex"}}) == plain
    forbid_parsing(monkeypatch, "build_object")
    for order in ("lex", "deglex"):
        assert run_job(tmp_path, capsys, {**SYZ_JOB, "ring": {
            **xyz, "order": order}}) == (
            1, "", f"input error: unknown monomial order {order!r} "
                   "(kbundle computes in degrevlex)\n")


@pytest.mark.parametrize("flag, value", [
    ("--max-degree", "-1"), ("--max-pairs", "-1"),
    ("--timeout-seconds", "-1"), ("--timeout-seconds", "nan"),
])
def test_negative_cap_flags_are_input_errors(capsys, flag, value):
    code, out, err = run_cli(["check", "--syzygy", "X, Y, Z", flag, value],
                             capsys)
    assert code == 1
    assert out == ""
    option = flag[2:].replace("-", "_")
    assert f"input error: option '{option}' must be nonnegative" in err


ENGINE_FAST = "option 'engine' must be one of gb, linalg, both, got 'fast'"


@pytest.mark.parametrize("job, skipped, message", [
    (with_task("check", engine="fast"), "kbundle.bundle.maximal_minors",
     ENGINE_FAST),
    (with_task("check", mode="quick"), "kbundle.bundle.maximal_minors",
     "option 'mode' must be one of semistability, stability_evidence, "
     "got 'quick'"),
    (with_task("tannaka", engine="fast"), "kbundle.bundle.maximal_minors",
     ENGINE_FAST),
    (with_task("restrict", engine="fast"), "kbundle.bundle.maximal_minors",
     ENGINE_FAST),
    ({**with_task("closure", engine="fast"),
      "object": {"ideal": {"generators": ["X^2", "Y^2", "Z^2"]}}},
     "kbundle.bundle.maximal_minors", ENGINE_FAST),
    (with_task("sections", engine="fast", q=2),
     "kbundle.tannaka.power_presentation",
     "option 'engine' must be one of gb, linalg, both, staged, got 'fast'"),
])
def test_unknown_engine_or_mode_is_refused_before_any_work(
        tmp_path, capsys, monkeypatch, job, skipped, message):
    # the bundle test (maximal minors) or the power presentation would run
    # first if the option were checked late
    def refused(*args, **kwargs):
        raise AssertionError(f"{skipped} ran before the options were checked")

    monkeypatch.setattr(skipped, refused)
    job_path = tmp_path / "bad.json"
    job_path.write_text(json.dumps(job))
    code, out, err = run_cli(["run", str(job_path)], capsys)
    assert code == 1
    assert out == ""
    assert f"input error: {message}" in err


def test_job_file_takes_translated_option_names(tmp_path, capsys):
    job_path = tmp_path / "job.json"
    job_path.write_text(json.dumps(with_task(
        "check", engine="gb", upgrade_selfdual=False, timeout_seconds=60)))
    code, out, _ = run_cli(["run", str(job_path)], capsys)
    assert code == 0
    assert "verdict: semistable; stability: proven_stable" in out


def test_restrict_with_computed_certificate(capsys):
    code, out, _ = run_cli([
        "restrict", "--syzygy", "X^2, Y^2, Z^2", "--twist", "3"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "certificate: stable (computed (proven_stable))",
        "langer: k_min = 7",
        "restriction to any smooth divisor of degree k >= 7 with "
        "torsion-free restriction stays stable"]


def test_tannaka_assume_stability(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli([
        "tannaka", "--syzygy", "X^2, Y^2, Z^2", "--twist", "3", "--q-max", "2",
        "--assume-stability", "proven_stable", "--json-out", str(out_path)],
        capsys)
    assert code == 0
    assert out.splitlines()[0] == "stability status: proven_stable"
    assert "dual group: SL(2)" in out
    report = json.loads(out_path.read_text())
    assert report["results"]["stability"] == {"assumed": "proven_stable"}


@pytest.mark.parametrize("candidate, line, member", [
    ("X*Y*Z", "candidate degree 3: in the closure by the threshold rule", True),
    ("X*Y", "candidate degree 2: below the threshold; not decided", False),
])
def test_closure_candidate_in_characteristic_zero(capsys, tmp_path, candidate,
                                                  line, member):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli([
        "closure", "--ideal", "X^2, Y^2, Z^2", "--candidate", candidate,
        "--json-out", str(out_path)], capsys)
    assert code == 0
    assert out.splitlines() == [
        "tau = 3: R_m lies in the closure for m >= 3", line]
    membership = json.loads(out_path.read_text())["results"]["membership"]
    assert membership["candidate"] == candidate
    assert membership["member_by_threshold"] is member


def test_closure_takes_the_genus_or_the_plane_curve_degree(capsys, monkeypatch):
    # a smooth plane quintic has genus 6; the query is refused, not answered
    # with genus 3, and over F_p before any Groebner work
    forbid_work(monkeypatch)
    assert run_cli([
        "closure", "--field", "fp:7", "--ideal", "X^2, Y^2, Z^2",
        "--candidate", "X*Y", "--genus", "3", "--plane-curve-degree", "5",
        "--strong-flag", "assumed"], capsys) == (
        1, "", "input error: give the genus or the plane curve degree, "
               "not both\n")


def test_closure_candidate_must_be_homogeneous_over_fp(capsys):
    assert run_cli([
        "closure", "--field", "fp:7", "--ideal", "X^2, Y^2, Z^2",
        "--candidate", "X*Y + Z", "--genus", "3",
        "--strong-flag", "assumed"], capsys) == (
        1, "", "input error: need a nonzero homogeneous candidate element\n")


@pytest.mark.parametrize("field", [
    [], ["--field", "fp:7", "--strong-flag", "x", "--genus", "1"]],
    ids=["QQ", "F7"])
@pytest.mark.parametrize("candidate", ["0", "X*Y + Z"])
def test_closure_candidate_must_be_nonzero_homogeneous(capsys, field, candidate):
    # the query refuses the candidate over either field, before any
    # threshold or membership line is printed
    assert run_cli([
        "closure", "--ideal", "X^2, Y^2, Z^2", "--candidate", candidate,
        *field], capsys) == (
        1, "", "input error: need a nonzero homogeneous candidate element\n")


README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_readme_job_file_runs():
    text = re.search(r"### Job files\n\n```json\n(.*?)```", README, re.S)[1]
    report, lines, code = cli.execute_job(json.loads(text))
    assert code == 0
    assert report["results"]["report"]["verdict"] == "semistable"
    assert lines[-1] == "verdict: semistable; stability: proven_stable"


def test_readme_library_example_runs(capsys):
    code = re.search(r"## Library\n\n```python\n(.*?)```", README, re.S)[1]
    exec(code, {})
    assert capsys.readouterr().out == "semistable proven_stable\nSL(2)\n"


def test_tannaka_of_unstable_bundle_is_not_classified(capsys):
    code, out, _ = run_cli(["tannaka", "--syzygy", "X, Y, Z^4"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "stability status: unstable"
    assert out.splitlines()[-1] == (
        "dual group not classified: classification requires proven "
        "stability; fingerprints of undetermined bundles are reported as raw "
        "evidence only")


@pytest.mark.parametrize("args, message", [
    (["restrict", "--syzygy", "X, Y, Z^4"],
     "the bundle is unstable; no restriction theorem applies"),
    (["closure", "--ideal", "X, Y, Z^4", "--candidate", "X*Y"],
     "the syzygy bundle of the ideal is unstable; the inclusion bound does "
     "not apply"),
])
def test_unstable_bundle_is_refused_by_restrict_and_closure(capsys, args,
                                                            message):
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == ""
    assert err == f"input error: {message}\n"


def test_check_upgrade_none_and_undetermined_pullback(capsys, tmp_path):
    # without the self-duality upgrade the five quadrics and their pullback
    # both stop at a boundary section of wedge^2
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli([
        "check", "--syzygy", FIVE_QUADRICS, "--upgrade", "none",
        "--via-pullback", "2", "--json-out", str(out_path)], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "verdict: semistable; stability: undetermined"
    report = json.loads(out_path.read_text())
    assert report["job"]["task"]["options"]["upgrade_selfdual"] is False
    results = report["results"]
    assert results["pullback"]["report"]["stability"] == "undetermined"
    assert results["report"]["trace"][-1] == (
        "pullback (k = 2) is semistable but its stability is also "
        "undetermined")


def test_check_unstable_reports_witness(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli([
        "check", "--syzygy", "X, Y, Z^4", "--json-out", str(out_path)], capsys)
    assert code == 0
    assert "witness: q=1, degree 2, verified" in out.splitlines()
    assert out.splitlines()[-1] == "verdict: unstable"
    witness = json.loads(out_path.read_text())["results"]["report"]["witness"]
    assert witness == {"q": 1, "degree": 2, "verified": True,
                       "element": "(-Y, X, 0)"}


@pytest.mark.parametrize("generators, q, degree, element", [
    ("X + 2*Y, Y - Z + W, X*Z + W^2 - Y^2, X^4 + Y^3*Z - 2*W^4 + Z^2*X*Y",
     1, 2, "(-1/2*Y + 1/2*Z - 1/2*W, 1/2*X + Y, 0, 0)"),
    ("X^2 + Y^2, X*Y + Z^2, Y^2 - W^2, X^2 + Z*W, X^3 + Y^3 + Z^3 + W^3",
     3, 8, "(-X^2 - Z*W, Y^2 - W^2, -X*Y - Z^2, X^2 + Y^2, 0, 0, 0, 0, 0, 0)"),
])
def test_check_gb_witness_is_frozen(capsys, tmp_path, generators, q, degree,
                                    element):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli([
        "check", "--syzygy", generators, "--vars", "X,Y,Z,W", "--dim", "3",
        "--engine", "gb", "--json-out", str(out_path)], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "verdict: unstable"
    witness = json.loads(out_path.read_text())["results"]["report"]["witness"]
    assert witness == {"q": q, "degree": degree, "verified": True,
                       "element": element}


def test_sections_engine_both(capsys):
    code, out, _ = run_cli([
        "sections", "--syzygy", "X^2, Y^2, Z^2", "--twist", "3",
        "--engine", "both", "--twists", "0..2"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "h^0((exterior^1 E)(k)) for k in 0..2:",
        "  k = 0: 0", "  k = 1: 3", "  k = 2: 9"]


def test_report_digest_paper_matches_frozen_answers():
    script = Path(__file__).resolve().parent.parent / "scripts" / "report_digest.py"
    proc = subprocess.run([sys.executable, str(script), "paper"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 40
    assert all(line.split()[-1] == "match" for line in lines), lines


def test_unexecuted_lines_summarizes_every_module():
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "unexecuted_lines.py"), "paper"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    split = lines.index("unexecuted:")
    summaries = [re.fullmatch(r"src/kbundle/(\w+\.py): (\d+) of (\d+) lines ran",
                              line) for line in lines[:split]]
    assert all(summaries), lines[:split]
    assert [m[1] for m in summaries] == sorted(
        path.name for path in (root / "src" / "kbundle").glob("*.py"))
    counts = [(int(m[2]), int(m[3])) for m in summaries]
    assert all(0 < ran <= executable for ran, executable in counts)
    # the paper pool leaves some lines unrun, and each is listed once
    missing = lines[split + 1:]
    assert missing and len(set(missing)) == len(missing)
    assert len(missing) == sum(executable - ran for ran, executable in counts)
    assert all(re.match(r"src/kbundle/\w+\.py:\d+: ", line) for line in missing)


def test_check_reports_the_deciding_prime(capsys, tmp_path):
    lines = {}
    for engine in ("linalg", "gb"):
        out_path = tmp_path / f"{engine}.json"
        code, out, _ = run_cli([
            "check", "--syzygy", FIVE_QUADRICS, "--engine", engine,
            "--json-out", str(out_path)], capsys)
        assert code == 0
        lines[engine] = out.splitlines()[2:4]
        per_power = json.loads(out_path.read_text())["results"]["report"]["per_power"]
        assert [c["prime"] for c in per_power] == (
            [32003, "koszul"] if engine == "linalg" else [None, "koszul"])
    assert lines["linalg"] == [
        "q=1: no sections up to twist 2 (threshold 5/2, mod 32003)",
        "q=2: first section at twist 5 = threshold 5 (koszul)"]
    assert lines["gb"] == [
        "q=1: no sections up to twist 2 (threshold 5/2)",
        "q=2: first section at twist 5 = threshold 5 (koszul)"]


def test_report_digest_scan_linalg_matches_frozen_answers():
    # every generic scan job through the linalg first pass, against the
    # answers frozen in bench/expected; the two "-" jobs have none
    script = Path(__file__).resolve().parent.parent / "scripts" / "report_digest.py"
    proc = subprocess.run([sys.executable, str(script), "scan_linalg"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    answers = [line.split()[-1] for line in proc.stdout.splitlines()]
    assert "MISMATCH" not in answers
    assert answers.count("match") == 214
    assert answers.count("-") == 2


def test_report_digest_scan_gb_matches_frozen_answers():
    # the same jobs through the gb engine
    script = Path(__file__).resolve().parent.parent / "scripts" / "report_digest.py"
    proc = subprocess.run([sys.executable, str(script), "scan_gb"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    answers = [line.split()[-1] for line in proc.stdout.splitlines()]
    assert "MISMATCH" not in answers
    assert answers.count("match") == 214
    assert answers.count("-") == 2


def test_engine_mismatch_exits_2(capsys, monkeypatch):
    import kbundle.powers as powers
    # a gb engine that never finds a section disagrees with linalg at q = 2,
    # at the one degree its QQ scan reads
    monkeypatch.setattr(powers, "kernel_dims_gb", lambda *args: lambda k: 0)
    code, out, err = run_cli([
        "check", "--matrix", "X, -Y, -Y, 0, -Z, 0; 0, 0, X, -Y, 0, Z",
        "--twists-a", "3,3,3,3,3,3", "--twists-b", "4,4",
        "--engine", "both"], capsys)
    assert code == 2
    assert out == ""
    assert err == ("INTERNAL cross-check mismatch, no verdict: "
                   "engine mismatch in exterior^2 at degree -5: "
                   "gb 0, linalg 3\n")


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "kbundle.cli", "check", "--syzygy",
         "X^2, Y^2, Z^2", "--twist", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "proven_stable" in proc.stdout


# ---------------------------------------------------------------------------
# Task options: one declaration gives the flags, the job check and the
# defaults.
# ---------------------------------------------------------------------------

# every choice-valued option, with the tuple of the module that acts on it
CHOICES = {
    ("check", "engine"): ENGINES, ("check", "mode"): MODES,
    ("sections", "kind"): KINDS, ("sections", "engine"): SECTION_ENGINES,
    ("tannaka", "method"): METHODS, ("tannaka", "engine"): ENGINES,
    ("tannaka", "assume_stability"): PROVEN,
    ("restrict", "theorem"): THEOREMS, ("restrict", "engine"): ENGINES,
    ("restrict", "assume_stability"): CERTIFICATES,
    ("closure", "engine"): ENGINES, ("closure", "assume_stability"): CERTIFICATES,
}


def flag_args(task, options, field="qq"):
    obj = (["--ideal", "X^2, Y^2, Z^2"] if task == "closure" else
           ["--syzygy", "X^2, Y^2, Z^2", "--twist", "3"])
    argv = [task, "--field", field, *obj]
    for key, value in options.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return argv


def file_args(tmp_path, task, options, field="qq"):
    obj = ({"ideal": {"generators": ["X^2", "Y^2", "Z^2"]}} if task == "closure"
           else {"syzygy": {"generators": ["X^2", "Y^2", "Z^2"], "twist": 3}})
    job = {"ring": {"variables": ["X", "Y", "Z"], "field": field},
           "object": obj, "task": {"name": task, "options": options}}
    path = tmp_path / f"{task}.json"
    path.write_text(json.dumps(job))
    return ["run", str(path)]


def test_every_choice_valued_option_is_listed():
    declared = {(task, key) for task, options in cli._TASK_OPTIONS.items()
                for key, (_, _, allowed, _) in options.items() if allowed}
    assert declared == set(CHOICES)


@pytest.mark.parametrize("task, key", sorted(CHOICES))
def test_unknown_choice_is_refused_before_any_work(tmp_path, capsys,
                                                   monkeypatch, task, key):
    forbid_work(monkeypatch)
    message = (f"input error: option {key!r} must be one of "
               f"{', '.join(CHOICES[task, key])}, got 'bogus'\n")
    for argv in (flag_args(task, {key: "bogus"}),
                 file_args(tmp_path, task, {key: "bogus"})):
        assert run_cli(argv, capsys) == (1, "", message), argv


@pytest.mark.parametrize("task, options, field", [
    # no analysis would read the engine: it is refused all the same
    ("closure", {"engine": "fast", "strong_flag": "x"}, "fp:7"),
    ("closure", {"engine": "fast", "assume_stability": "stable"}, "qq"),
    ("restrict", {"engine": "fast", "assume_stability": "stable"}, "qq"),
    ("tannaka", {"engine": "fast", "assume_stability": "proven_stable"}, "qq"),
])
def test_unread_engine_is_refused(tmp_path, capsys, monkeypatch, task, options,
                                  field):
    forbid_work(monkeypatch)
    for argv in (flag_args(task, options, field),
                 file_args(tmp_path, task, options, field)):
        assert run_cli(argv, capsys) == (1, "", f"input error: {ENGINE_FAST}\n")


def test_job_file_spells_the_theorem_as_bounds_does(tmp_path, capsys,
                                                    monkeypatch):
    code, out, _ = run_cli(flag_args("restrict", {
        "theorem": "langer-strong", "assume_stability": "stable"}, "fp:7"),
        capsys)
    assert code == 0 and out.splitlines()[1].startswith("langer_strong: k_min")
    forbid_work(monkeypatch)
    argv = file_args(tmp_path, "restrict", {"theorem": "langer-strong"})
    assert run_cli(argv, capsys) == (
        1, "", "input error: option 'theorem' must be one of flenner, langer, "
        "langer_strong, got 'langer-strong'\n")


def test_tannaka_takes_engine_both(capsys):
    code, out, _ = run_cli([
        "tannaka", "--syzygy", "X^3, Y^3, Z^3, X*Y*Z", "--twist", "4",
        "--q-max", "3", "--engine", "both"], capsys)
    assert code == 0
    assert "dual group: SL(3)" in out.splitlines()


@pytest.mark.parametrize("task", list(cli.TASKS))
def test_flag_defaults_are_the_job_defaults(tmp_path, capsys, task):
    # a command line puts every default into its job, a job file none
    reports = []
    for argv in (flag_args(task, {}), file_args(tmp_path, task, {})):
        out_path = tmp_path / "report.json"
        code, out, err = run_cli([*argv, "--json-out", str(out_path)], capsys)
        assert code == 0 and not err
        reports.append((out, json.loads(out_path.read_text())["results"]))
    assert reports[0] == reports[1]


FLAGS = {
    "validate": ["--check-surjectivity"],
    "check": ["--engine", "--mode", "--via-pullback", "--upgrade"],
    "sections": ["--kind", "--q", "--twists", "--engine"],
    "tannaka": ["--q-max", "--method", "--engine", "--assume-stability",
                "--via-pullback"],
    "restrict": ["--theorem", "--c", "--engine", "--assume-stability",
                 "--via-pullback"],
    "closure": ["--engine", "--candidate", "--frobenius-e", "--genus",
                "--plane-curve-degree", "--strong-flag", "--assume-stability"],
}


@pytest.mark.parametrize("task", list(cli.TASKS))
def test_help_names_every_option_with_its_values(capsys, task):
    with pytest.raises(SystemExit) as info:
        main([task, "--help"])
    assert info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for flag in FLAGS[task] + ["--max-degree", "--max-pairs",
                               "--timeout-seconds"]:
        assert f" {flag} " in text, flag
    for key, (_, default, allowed, _) in cli._TASK_OPTIONS[task].items():
        if allowed:
            assert f"one of {', '.join(allowed)}" in text, key
        if default is not None and type(default) is not bool:
            assert f"default {default}" in text, key


@pytest.mark.parametrize("argv, message", [
    (["check", "--syzygy", "X^2,Y^2,Z^2", "--dim", "two"],
     "argument --dim: invalid int value: 'two'"),
    (["check", "--syzygy", "X^2,Y^2,Z^2", "--bogus"],
     "unrecognized arguments: --bogus"),
    ([], "the following arguments are required: command"),
    (["check", "--syzygy", "X^2,Y^2,Z^2", "--upgrade", "never"],
     "argument --upgrade: invalid choice: 'never'"),
    (["check", "--syzygy", "X^2,Y^2,Z^2", "--twist", "3", "--order", "lex"],
     "unrecognized arguments: --order lex"),
])
def test_usage_errors_exit_1(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("usage: kbundle")
    assert f"error: {message}" in captured.err


def test_command_line_jobs_golden():
    # the job dict each command line builds, frozen before the flags were
    # built from the option declaration
    golden = json.loads((Path(__file__).parent / "cli_jobs_golden.json")
                        .read_text())
    assert {entry["argv"][0] for entry in golden} == set(cli.TASKS)
    parser = cli._build_parser()
    for entry in golden:
        job = cli._job_from_args(parser.parse_args(entry["argv"]))
        assert (json.dumps(job, sort_keys=True)
                == json.dumps(entry["job"], sort_keys=True)), entry["argv"]


def test_check_validates_the_presentation_once(capsys, monkeypatch):
    # hoppe_check's call, with the bundle test
    import kbundle.bundle
    validate = kbundle.bundle.validate
    calls = []

    def counted(bundle, *args):
        calls.append(args[0] if args else False)    # check_surjectivity
        return validate(bundle, *args)

    monkeypatch.setattr(kbundle.bundle, "validate", counted)
    code, _, _ = run_cli(["check", "--syzygy", "X^2, Y^2, Z^2", "--twist", "3"],
                         capsys)
    assert code == 0
    assert calls == [True]
