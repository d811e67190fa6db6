import json
import os
import subprocess
import sys

import pytest

import kll
from kll.cli import main, verify_paper_examples

# the child imports the same kll as this process, installed or not
SRC = os.path.dirname(os.path.dirname(kll.__file__))


def run_cli(args, tmp_path=None):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "kll.cli"] + args,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    return proc


def test_field_command(capsys):
    rc = main(["field", "--poly", "[1,0,-2,-1,0,1]", "--prime", "11"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["signature"] == [3, 1]
    assert out["poly_discriminant"] == "-4511"
    entries = out["primes"]["11"]
    assert any(e["f"] == 2 and e["norm"] == 121 for e in entries)


def test_field_rejects_reducible(capsys):
    rc = main(["field", "--poly", "[-1,0,1]"])
    assert rc == 2


def test_cheeger_cycle(capsys):
    rc = main(["cheeger", "--cycle", "6"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["h"] == "2/3"


def test_cheeger_input_graph(tmp_path, capsys):
    path = tmp_path / "k4.json"
    path.write_text(json.dumps(
        {"V": 4, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}))
    rc = main(["cheeger", "--input", str(path), "--spectral"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["h"] == "2"
    assert "lo" in out["spectral_bounds"]


def test_cheeger_input_missing_field(tmp_path, capsys):
    path = tmp_path / "nov.json"
    path.write_text(json.dumps({"edges": [[0, 1]]}))
    assert main(["cheeger", "--input", str(path)]) == 2
    assert "/V" in json.loads(capsys.readouterr().err)["detail"]
    assert main(["cheeger"]) == 2


def test_graph_rejects_bad_endpoint(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"V": 2, "edges": [[0, 1], [0, "x"]]}))
    assert main(["graph", "--input", str(path)]) == 2
    assert "/edges/1/1" in json.loads(capsys.readouterr().err)["detail"]


def test_tower_command(capsys):
    rc = main(["tower", "--n1", "50", "--depth", "5"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lower_bound"]["all_hold"] is True
    rc = main(["tower", "--check", "50,60"])
    out = json.loads(capsys.readouterr().out)
    assert out["recurrence"][0]["holds"] is False


def test_tower_hypothesis_violation_exit_code(capsys):
    rc = main(["tower", "--n1", "49", "--depth", "2"])
    assert rc == 2


def test_algebra_symbol(capsys):
    rc = main(["algebra", "--symbol", "-1", "-1", "--prime", "2",
               "--prime", "7"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["symbol"]["places"]["2"] == "Ramified"
    assert out["symbol"]["places"]["7"] == "Split"
    assert out["symbol"]["places"]["real"] == "Ramified"


def test_algebra_clozel(capsys):
    rc = main(["algebra", "--clozel-poly", "[1,0,-2,-1,0,1]",
               "--ram-prime", "11"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["clozel"]["status"] == "Violated"
    assert out["clozel"]["witness"]["f"] == 2


def test_order_command(capsys):
    matrices = json.dumps({"a": [[[1], [1]], [[0], [1]]],
                           "b": [[[1], [0]], [[1], [1]]]})
    rc = main(["order", "--poly", "[0,1]", "--matrices", matrices])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["trace_identities"] is True
    assert out["order"]["closed"] is True
    assert out["order"]["discriminant_generator"] == ["1"]
    assert out["involution"]["exists"] is True


def test_orbifold_command(tmp_path, capsys):
    obj = {
        "manifold": {"gens": ["a", "b"], "rels": []},
        "locus": {
            "vertices": ["u", "v"],
            "edges": [
                {"id": "e0", "ends": ["u", "v"], "order": 2, "meridian": "a"},
                {"id": "e1", "ends": ["u", "v"], "order": 2, "meridian": "b"},
                {"id": "e2", "ends": ["u", "v"], "order": 2, "meridian": "AB"},
            ],
        },
    }
    path = tmp_path / "orb.json"
    path.write_text(json.dumps(obj))
    rc = main(["orbifold", "--input", str(path), "--prime", "2"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["homology_bound"]["holds"] is True
    assert out["stratification"]["b1"] == 2


def test_graph_command(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(
        {"V": 4, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}))
    rc = main(["graph", "--input", str(path)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["short_cycle"]["length"] == 3
    assert out["short_cycle"]["holds"] is True
    assert out["b1_two_subgraph"]["holds"] is True


def test_quotient_command(tmp_path, capsys):
    spec = {
        "primes": [5, 7],
        "generators": [
            [[[0, -1], [1, 0]], [[0, -1], [1, 0]]],
            [[[1, 1], [0, 1]], [[1, 1], [0, 1]]],
        ],
        "klein_four": {
            "a": [[[0, -1], [1, 0]], [[0, -1], [1, 0]]],
            "b": [[[2, 0], [0, 3]], [[2, 3], [3, -2]]],
        },
    }
    path = tmp_path / "q.json"
    path.write_text(json.dumps(spec))
    rc = main(["quotient", "--input", str(path)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["surjective"] is True
    assert out["closure_order"] == 10080
    assert out["normalizer"]["witness_order"] == 16
    assert out["normalizer"]["holds"] is True


def test_count_command(capsys):
    rc = main(["count", "--modulus", "2"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["subgroups"] == 6
    assert out["rank"]["holds"] is True
    assert out["index2"]["consistent"] is True


def test_verify_command(capsys):
    rc = main(["verify"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_pass"] is True
    assert len(out["examples"]) >= 10


def test_verify_examples_structure():
    results = verify_paper_examples()
    names = [r["name"] for r in results]
    assert "quintic-signature" in names
    assert "gs-threshold-81-80" in names
    assert "sl2-11-census" in names
    assert all(r["pass"] for r in results)


def test_output_determinism(tmp_path):
    p1 = run_cli(["field", "--poly", "[1,0,-2,-1,0,1]", "--prime", "11"])
    p2 = run_cli(["field", "--poly", "[1,0,-2,-1,0,1]", "--prime", "11"])
    assert p1.returncode == p2.returncode == 0
    assert p1.stdout == p2.stdout
    p3 = run_cli(["count", "--modulus", "3"])
    p4 = run_cli(["count", "--modulus", "3"])
    assert p3.stdout == p4.stdout and p3.returncode == 0


def test_output_file(tmp_path):
    out = tmp_path / "r.json"
    rc = main(["cheeger", "--cycle", "8", "--output", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["h"] == "1/2"


def test_budget_exit_code(capsys):
    rc = main(["--budget", "10", "count", "--modulus", "5"])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["budget"], err["limit"], err["reached"]) == \
        ("budget", "census order", 10, 120)
    assert main(["count", "--modulus", "5"]) == 0


def test_budget_caps_quotient_closure(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"primes": [7], "generators": [
        [[[0, -1], [1, 0]]], [[[1, 1], [0, 1]]]]}))
    assert main(["--budget", "100", "quotient", "--input", str(path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert (err["budget"], err["limit"], err["reached"]) == \
        ("closure order", 100, 101)
    assert main(["quotient", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["closure_order"] == 168


def test_budget_leaves_environment_alone(capsys):
    before = dict(os.environ)
    assert main(["--budget", "10", "count", "--modulus", "5"]) == 3
    assert dict(os.environ) == before
    assert main(["count", "--modulus", "2"]) == 0
    assert dict(os.environ) == before


def test_budget_flag_rejects_non_integer(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--budget", "ten", "count", "--modulus", "5"])
    assert exc.value.code == 2


def test_no_module_reads_the_environment():
    pkg = os.path.dirname(kll.__file__)
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                assert "os.environ" not in fh.read(), name


QUOTIENT_JOB = {
    "primes": [5, 7],
    "generators": [[[[0, -1], [1, 0]], [[0, -1], [1, 0]]],
                   [[[1, 1], [0, 1]], [[1, 1], [0, 1]]]],
    "klein_four": {"a": [[[0, -1], [1, 0]], [[0, -1], [1, 0]]],
                   "b": [[[2, 0], [0, 3]], [[2, 3], [3, -2]]]},
}


@pytest.mark.parametrize("edit, pointer", [
    (lambda j: j.update(primes=["x", 7]), "/primes/0"),
    (lambda j: j.update(primes=[4, 7]), "/primes/0"),
    (lambda j: j["generators"][1].__setitem__(0, [[1, 1, 0], [0, 1]]),
     "/generators/1/0"),
    (lambda j: j["generators"][0][1].__setitem__(0, [0, "-1"]),
     "/generators/0/1"),
    (lambda j: j["klein_four"].pop("b"), "/klein_four/b"),
    (lambda j: j["generators"][0].__setitem__(0, [[0, 1], [1, 0]]),
     "/generators/0/0"),
], ids=["prime-not-int", "prime-composite", "matrix-not-2x2",
        "entry-not-int", "klein-four-without-b", "determinant-not-one"])
def test_quotient_rejects_bad_job(tmp_path, capsys, edit, pointer):
    job = json.loads(json.dumps(QUOTIENT_JOB))
    edit(job)
    path = tmp_path / "q.json"
    path.write_text(json.dumps(job))
    assert main(["quotient", "--input", str(path)]) == 2
    assert pointer in json.loads(capsys.readouterr().err)["detail"]


def test_order_rejects_missing_matrix(capsys):
    rc = main(["order", "--poly", "[0,1]", "--matrices",
               json.dumps({"a": [[[1], [1]], [[0], [1]]]})])
    assert rc == 2
    assert "/b" in json.loads(capsys.readouterr().err)["detail"]


def test_orbifold_rejects_non_string_relator(tmp_path, capsys):
    path = tmp_path / "orb.json"
    path.write_text(json.dumps({
        "manifold": {"gens": ["a"], "rels": [7]},
        "locus": {"edges": []}}))
    assert main(["orbifold", "--input", str(path)]) == 2
    assert "/manifold/rels/0" in json.loads(capsys.readouterr().err)["detail"]


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_tower_rejects_depth_below_one(capsys, depth):
    assert main(["tower", "--n1", "50", "--depth", depth]) == 2


def test_schema_violation_json_pointer(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "manifold": {"gens": ["a"], "rels": []},
        "locus": {"edges": [{"id": "c", "ends": ["w", "w"], "order": 2}]},
    }))
    rc = main(["orbifold", "--input", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "/locus/edges/0/meridian" in err


def test_no_floats_anywhere(capsys):
    rc = main(["field", "--poly", "[1,0,-2,-1,0,1]", "--prime", "11"])
    out = capsys.readouterr().out
    assert rc == 0

    def walk(x):
        if isinstance(x, float):
            raise AssertionError("float in CLI output")
        if isinstance(x, dict):
            for v in x.values():
                walk(v)
        if isinstance(x, list):
            for v in x:
                walk(v)

    walk(json.loads(out))
