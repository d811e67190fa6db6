import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import kll
from kll import cli, polys, taugraphs, traceorders
from kll.cli import EXAMPLES, main, verify_paper_examples
from kll.numfield import FieldElement
from kll.trivalent import random_connected_trivalent

from oracles import boundary_size, edge_subgraph_betti, is_closed_cycle

# the child imports the same kll as this process, installed or not
SRC = os.path.dirname(os.path.dirname(kll.__file__))


def run_cli(args, timeout=None):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "kll.cli"] + args,
                          capture_output=True, text=True, timeout=timeout,
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


def test_field_computes_discriminant_and_certificate_once(capsys, monkeypatch):
    from kll import numfield, polys
    calls = {"discriminant": 0, "certify_irreducible": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(polys, "discriminant")
    counted(numfield, "certify_irreducible")
    sextic = "[1,-1,-2,2,-1,-1,1]"
    assert main(["field", "--poly", sextic, "--prime", "11",
                 "--prime", "13"]) == 0
    assert calls == {"discriminant": 1, "certify_irreducible": 1}
    out = json.loads(capsys.readouterr().out)
    assert out["poly_discriminant"] == "-104483"
    assert sorted(out["primes"]) == ["11", "13"]


def test_field_rejects_reducible(capsys):
    rc = main(["field", "--poly", "[-1,0,1]"])
    assert rc == 2


def test_cheeger_cycle(capsys):
    rc = main(["cheeger", "--cycle", "6"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["h"] == "2/3"
    # the witness set attains h, checked by the oracle's own boundary count
    cycle = taugraphs.CosetGraph.cycle(6)
    assert 0 < len(out["h_set"]) <= 3
    assert Fraction(boundary_size(cycle, out["h_set"]),
                    len(out["h_set"])) == Fraction(out["h"])


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


# each message of the graph format, as `kll graph` and `kll cheeger --input`
# print it on stderr
@pytest.mark.parametrize("obj, detail", [
    ({"edges": []}, "missing field at /V"),
    ({"V": "2", "edges": []}, "bad value at /V: expected int"),
    ({"V": 0, "edges": []}, "bad value at /V: expected a positive integer"),
    ({"V": 2}, "missing field at /edges"),
    ({"V": 2, "edges": [[0, 1], [0, 1, 1]]},
     "bad value at /edges/1: expected [u, v]"),
    ({"V": 2, "edges": [[0, 1], "01"]}, "bad value at /edges/1: expected [u, v]"),
    ({"V": 2, "edges": [[0, 1], [True, 1]]},
     "bad value at /edges/1/0: expected an integer in [0, 2)"),
    ({"V": 2, "edges": [[0, 1], [0, 2]]},
     "bad value at /edges/1/1: expected an integer in [0, 2)"),
], ids=["missing-V", "V-not-int", "V-below-1", "missing-edges",
        "edge-not-pair", "edge-not-list", "endpoint-bool", "endpoint-out-of-range"])
def test_graph_messages_pinned(tmp_path, capsys, obj, detail):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(obj))
    for command in ("graph", "cheeger"):
        assert main([command, "--input", str(path)]) == 2
        assert capsys.readouterr().err == \
            '{"error": "ValueError", "detail": "%s"}\n' % detail


def test_tower_command(capsys):
    rc = main(["tower", "--n1", "50", "--depth", "5"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lower_bound"]["all_hold"] is True
    rc = main(["tower", "--check", "50,60"])
    out = json.loads(capsys.readouterr().out)
    assert out["recurrence"][0]["holds"] is False


# sha256 of `kll tower` stdout: the two README jobs, a deeper tower and a
# 3,000-level one (3 MB of JSON)
TOWER_STDOUT_SHA256 = {
    "--n1 50 --depth 10":
        "c8a1e1db6e8c1f29f146516e2f13d3e08a1e401d6ae452bdeb8ca8fa6824645f",
    "--check 50,80,140":
        "193f32ee5ade2fd3a760e42eea38964d8149e5ab08e47bb5bb8dd29c0dd56d0c",
    "--n1 370 --depth 30":
        "1df158fe78327db43f5e2282b09dc8b7c55fd264a1a8638b211c9d11d6d54531",
    "--n1 50 --depth 3000":
        "3b61e46ff2f18064aefa059282cd696d8fa91f34ed5747951bb24d7e1bda7177",
}


@pytest.mark.parametrize("args", list(TOWER_STDOUT_SHA256))
def test_tower_stdout_pinned(capsys, args):
    assert main(["tower", *args.split()]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == TOWER_STDOUT_SHA256[args]


def test_tower_hypothesis_violation_exit_code(capsys):
    rc = main(["tower", "--n1", "49", "--depth", "2"])
    assert rc == 2


@pytest.mark.parametrize("check, detail", [
    ("", "need at least two terms n_1, n_2; got 0"),
    ("7", "need at least two terms n_1, n_2; got 1"),
    ("50,-5,7", "n_2 = -5 < 1"),
])
def test_tower_check_rejects_bad_sequence(capsys, check, detail):
    assert main(["tower", "--check", check]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "ValueError", "detail": detail}


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


def test_algebra_dihedral_derives_psi_once(capsys, monkeypatch):
    from kll import quatalg
    calls = []
    derive = quatalg.two_cos_minpoly

    def counted(n):
        calls.append(n)
        return derive(n)

    monkeypatch.setattr(quatalg, "two_cos_minpoly", counted)
    rc = main(["algebra", "--dihedral", "9"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert calls == [9]
    assert out["tau_norm"] == out["dihedral"]["norm"] == "-3"


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


# (poly, matrices, report): `kll order` on one generated pair over each
# field of the benchmark's degree 1-4 list (perfbench/workloads.py
# ORDER_FIELDS), then on a commuting pair and on a pair with the
# non-integral trace 3/2.  The reports were captured before field
# products went through `numfield.dot`, the last one before `build_order`
# checked the identities ahead of integrality; stdout must be each report
# exactly as `_emit` prints it.
ORDER_STDOUT = [
    ([0, 1],
     {"a": [[[-7], [-2]], [[4], [1]]], "b": [[[7], [2]], [[17], [5]]]},
     {"involution": {"exists": True,
                     "matrix": [[["-42"], ["-12"]], [["144"], ["42"]]]},
      "order": {"closed": True, "discriminant_generator": ["36"]},
      "trace_identities": True}),
    ([2, 0, 1],
     {"a": [[[-7, -2], [10, -3]], [[6, 20], [-35, -16]]],
      "b": [[[-3, -2], [-7, 8]], [[3, -4], [-20, -4]]]},
     {"involution": {"exists": True,
                     "matrix": [[["368", "43"], ["-602", "157"]],
                                [["-174", "422"], ["-368", "-43"]]]},
      "order": {"closed": True,
                "discriminant_generator": ["103966", "-249714"]},
      "trace_identities": True}),
    ([-2, 0, 1],
     {"a": [[[1, 0], [0, 0]], [[6, 2], [1, 0]]],
      "b": [[[1, -1], [-2, -1]], [[-6, 4], [-1, -3]]]},
     {"involution": {"exists": True,
                     "matrix": [[["16", "10"], ["0", "0"]],
                                [["20", "16"], ["-16", "-10"]]]},
      "order": {"closed": True, "discriminant_generator": ["456", "320"]},
      "trace_identities": True}),
    ([1, 1, 1],
     {"a": [[[-17, -13], [2, 3]], [[-3, 4], [1, 0]]],
      "b": [[[-3, -4], [-2, -2]], [[1, -10], [-1, -6]]]},
     {"involution": {"exists": True,
                     "matrix": [[["18", "7"], ["20", "44"]],
                                [["146", "-59"], ["-18", "-7"]]]},
      "order": {"closed": True, "discriminant_generator": ["5791", "8043"]},
      "trace_identities": True}),
    ([-3, 0, 1],
     {"a": [[[11, 2], [-4, -3]], [[2, -2], [1, 0]]],
      "b": [[[1, 0], [0, 0]], [[-1, -1], [1, 0]]]},
     {"involution": {"exists": True,
                     "matrix": [[["13", "7"], ["0", "0"]],
                                [["16", "12"], ["-13", "-7"]]]},
      "order": {"closed": True, "discriminant_generator": ["316", "182"]},
      "trace_identities": True}),
    ([-2, 0, 0, 1],
     {"a": [[[2, -2, 3], [-9, 8, 1]], [[-1, 0, 1], [0, 3, -2]]],
      "b": [[[-7, 4, 2], [-4, -6, 11]], [[-20, -1, 15], [23, -38, 24]]]},
     {"involution": {"exists": True,
                     "matrix": [[["426", "-149", "-148"],
                                 ["-180", "780", "-472"]],
                                [["314", "-334", "57"],
                                 ["-426", "149", "148"]]]},
      "order": {"closed": True,
                "discriminant_generator": ["617380", "168092", "-522883"]},
      "trace_identities": True}),
    ([1, -1, 0, 1],
     {"a": [[[1, 0, 0], [-2, 4, -3]], [[0, 2, -2], [15, -24, 18]]],
      "b": [[[-2, 1, 1], [1, 0, 2]], [[-1, 1, 1], [1, 0, 0]]]},
     {"involution": {"exists": True,
                     "matrix": [[["5", "-12", "8"], ["-67", "118", "-90"]],
                                [["-8", "10", "-4"], ["-5", "12", "-8"]]]},
      "order": {"closed": True,
                "discriminant_generator": ["2125", "-3722", "2816"]},
      "trace_identities": True}),
    ([-1, -1, 0, 1],
     {"a": [[[5, 8, 6], [-1, -1, -1]], [[0, -2, -2], [1, 0, 0]]],
      "b": [[[-1, 2, 4], [-1, 2, 0]], [[2, 2, 0], [1, 0, 0]]]},
     {"involution": {"exists": True,
                     "matrix": [[["0", "-4", "-2"], ["12", "22", "18"]],
                                [["-32", "-52", "-36"], ["0", "4", "2"]]]},
      "order": {"closed": True,
                "discriminant_generator": ["-2096", "-3684", "-2780"]},
      "trace_identities": True}),
    ([2, 0, 0, 0, 1],
     {"a": [[[-3, 2, -2, -2], [1, 15, 4, -5]],
            [[-2, 0, 1, -1], [-3, -2, 1, -4]]],
      "b": [[[-39, 38, -26, 5], [5, 3, -3, 6]],
            [[6, 6, -5, 12], [5, 0, 1, 0]]]},
     {"involution": {"exists": True,
                     "matrix": [[["-256", "-26", "206", "-55"],
                                 ["-480", "1000", "-444", "17"]],
                                [["368", "-256", "62", "98"],
                                 ["256", "26", "-206", "55"]]]},
      "order": {"closed": True,
                "discriminant_generator": ["-333936",
                                           "634428",
                                           "-563330",
                                           "152328"]},
      "trace_identities": True}),
    ([-2, 0, 0, 0, 1],
     {"a": [[[-21, 6, 2, 3], [0, 0, -2, 3]], [[-1, -3, 1, 0], [1, 0, 0, 0]]],
      "b": [[[1, 0, 0, 0], [-2, 0, -1, -1]], [[1, 1, -1, -3], [-1, 6, 7, 4]]]},
     {"involution": {"exists": True,
                     "matrix": [[["4", "2", "-19", "-3"],
                                 ["36", "4", "40", "-8"]],
                                [["64", "26", "15", "-46"],
                                 ["-4", "-2", "19", "3"]]]},
      "order": {"closed": True,
                "discriminant_generator": ["3434", "-2484", "3810", "-1168"]},
      "trace_identities": True}),
    ([1, 1, 0, 0, 1],
     {"a": [[[1, 0, 0, 0], [1, -1, -1, -2]],
            [[2, 1, -2, -2], [1, -9, -15, -9]]],
      "b": [[[12, 18, 4, -3], [1, 1, 2, -1]],
            [[17, -4, -52, -44], [2, 0, -3, -7]]]},
     {"involution": {"exists": True,
                     "matrix": [[["-96", "-285", "-304", "-104"],
                                 ["-87", "-97", "25", "84"]],
                                [["-1146", "-2379", "-1701", "-54"],
                                 ["96", "285", "304", "104"]]]},
      "order": {"closed": True,
                "discriminant_generator": ["194345",
                                           "539284",
                                           "564415",
                                           "200924"]},
      "trace_identities": True}),
    ([0, 1],
     {"a": [[2, 1], [1, 1]], "b": [[5, 3], [3, 2]]},
     {"involution": {"exists": False, "reason": "ab - ba is singular"},
      "order": {"closed": False, "reason": "generators commute"},
      "trace_identities": True}),
    ([0, 1],
     {"a": [["1/2", 1], ["-1/2", 1]], "b": [[1, 0], [1, 1]]},
     {"involution": {"exists": True,
                     "matrix": [[["1"], ["0"]], [["1/2"], ["-1"]]]},
      "order": {"closed": False,
                "reason": "trace [3/2] is not an algebraic integer"},
      "trace_identities": True}),
]



@pytest.mark.parametrize("poly, matrices, report", ORDER_STDOUT,
                         ids=[f"{i}-{json.dumps(case[0])}"
                              for i, case in enumerate(ORDER_STDOUT)])
def test_order_stdout_pinned(capsys, poly, matrices, report):
    assert main(["order", "--poly", json.dumps(poly),
                 "--matrices", json.dumps(matrices)]) == 0
    assert capsys.readouterr().out == json.dumps(report, sort_keys=True, indent=2) + "\n"


def test_order_jobs_decide_each_relation_once(monkeypatch, capsys):
    # one check of the six identities certifies ab and the traces that
    # the order table is derived from, each entry of ab - ba is one dot,
    # and det(ab - ba) is taken once; checking the identities twice and
    # the table row by row took 1,417, and det(ab - ba) twice 891
    calls = []
    dot = traceorders.dot

    def counted(k, pairs):
        calls.append(k)
        return dot(k, pairs)

    monkeypatch.setattr(traceorders, "dot", counted)
    for poly, matrices, report in ORDER_STDOUT:
        assert main(["order", "--poly", json.dumps(poly),
                     "--matrices", json.dumps(matrices)]) == 0
    capsys.readouterr()
    assert len(calls) <= 879


# sha256 of [[exit code, stdout], ...] over the 32 `order` jobs of the
# benchmark's `fields` corpus at each seed, as `perfbench/workloads.py`
# builds them for a 20 s run; captured before `build_order` derived its
# table from the trace identities
CORPUS_ORDER_DIGESTS = {
    1: "eceb538051bed393780fd874daf9db733b3fbe02dfe3e3dc2fa16b5bd67af851",
    31: "fe2e54b643503ee4ed608d59643ef67044c3943db7552e944d2bc634cc57742a",
}


def _fields_corpus_jobs(tmp_path, monkeypatch, seed, kind):
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__),
                                             os.pardir, "perfbench"))
    import workloads
    return [job for job in workloads.build("fields", seed, 20, str(tmp_path))
            if job["kind"] == kind]


def _corpus_digest(jobs, capsys):
    outs = []
    for job in jobs:
        code = main(job["argv"])
        outs.append([code, capsys.readouterr().out])
    return hashlib.sha256(json.dumps(outs).encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(CORPUS_ORDER_DIGESTS))
def test_corpus_order_jobs_pinned(tmp_path, monkeypatch, capsys, seed):
    jobs = _fields_corpus_jobs(tmp_path, monkeypatch, seed, "order")
    assert len(jobs) == 32
    assert _corpus_digest(jobs, capsys) == CORPUS_ORDER_DIGESTS[seed]


# sha256 of [[exit code, stdout], ...] over the 48 `field` split jobs of
# the same corpus, captured before F_p[x] arithmetic reduced through
# reduction rows and walked the Frobenius matrix
CORPUS_SPLIT_DIGESTS = {
    1: "bf9420654f9fe2b7d6550cc784db129af2c7b47de5167198d9f21cd467496060",
    31: "dd38f658918ad29093457c6fba4e0b32c5e3b0a3d2e0d211dfdb7152ba8673e5",
}


@pytest.mark.parametrize("seed", sorted(CORPUS_SPLIT_DIGESTS))
def test_corpus_split_jobs_pinned(tmp_path, monkeypatch, capsys, seed):
    jobs = _fields_corpus_jobs(tmp_path, monkeypatch, seed, "split")
    assert len(jobs) == 48
    assert _corpus_digest(jobs, capsys) == CORPUS_SPLIT_DIGESTS[seed]


def test_split_jobs_make_no_polynomial_products(tmp_path, monkeypatch, capsys):
    # products mod f reduce through reduction rows and every x^(p^d) is a
    # vector times the Frobenius matrix, so neither the irreducibility
    # certificate nor factor_modp calls polys.mul; powering by mul and
    # division made 1,919 calls over these 48 jobs
    calls = []
    mul = polys.mul

    def counted(f, g):
        calls.append((f, g))
        return mul(f, g)

    monkeypatch.setattr(polys, "mul", counted)
    jobs = _fields_corpus_jobs(tmp_path, monkeypatch, 1, "split")
    for job in jobs:
        assert main(job["argv"]) == 0
    capsys.readouterr()
    assert len(jobs) == 48 and calls == []


def test_order_and_klein_four_make_no_field_inversion(monkeypatch, capsys):
    # every inverse they take is projective, so an adjugate serves
    def no_inverse(self):
        raise AssertionError("a field element was inverted")

    monkeypatch.setattr(FieldElement, "inverse", no_inverse)
    for poly, matrices, report in ORDER_STDOUT:
        assert main(["order", "--poly", json.dumps(poly),
                     "--matrices", json.dumps(matrices)]) == 0
        assert json.loads(capsys.readouterr().out) == report
    [klein] = [check for name, check in EXAMPLES
               if name == "klein-four-relations"]
    assert klein() == (True, {"klein_four": True, "tau1_twice_refused": True})


ORBIFOLD = {
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


def test_orbifold_command(tmp_path, capsys):
    path = tmp_path / "orb.json"
    path.write_text(json.dumps(ORBIFOLD))
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
    assert set(out["short_cycle"]) == {"length", "bound", "holds", "cycle_vertices"}
    assert set(out["b1_two_subgraph"]) == {"edges", "bound", "holds", "strategy",
                                           "edge_indices"}


def test_graph_builds_adjacency_once_per_ball_pass(tmp_path, capsys, monkeypatch):
    # the lemma pass and the one ball each lemma regrows at its root;
    # b1, for b1_two_subgraph and the report, comes from the lemma pass
    from kll import trivalent
    calls = []
    adjacency = trivalent.TrivalentGraph.adjacency

    def counted(self):
        calls.append(self)
        return adjacency(self)
    monkeypatch.setattr(trivalent.TrivalentGraph, "adjacency", counted)
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"V": 10, "edges": WITNESS_GRAPHS["petersen"]}))
    assert main(["graph", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["b1"] == 6
    assert len(calls) == 3


WITNESS_GRAPHS = {
    "theta": [[0, 1], [0, 1], [0, 1]],
    "dumbbell": [[0, 0], [1, 1], [0, 1]],
    "k4": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
    "loop-and-double": [[0, 0], [0, 1], [1, 2], [1, 3], [2, 3], [2, 3]],
    "petersen": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4], [0, 5], [1, 6],
                 [2, 7], [3, 8], [4, 9], [5, 7], [7, 9], [6, 9], [6, 8],
                 [5, 8]],
    "random-64": [list(e) for e in random_connected_trivalent(
        64, random.Random(211)).edges],
}


@pytest.mark.parametrize("name", sorted(WITNESS_GRAPHS))
def test_graph_witnesses_pass_oracles(tmp_path, capsys, name):
    # the printed cycle and b1 = 2 edges, re-checked on the input alone
    edges = WITNESS_GRAPHS[name]
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"V": 1 + max(map(max, edges)), "edges": edges}))
    assert main(["graph", "--input", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    cyc, sub = out["short_cycle"], out["b1_two_subgraph"]
    assert len(cyc["cycle_vertices"]) == cyc["length"]
    assert is_closed_cycle(edges, cyc["cycle_vertices"])
    assert edge_subgraph_betti(edges, sub["edge_indices"]) == (2, 1)
    assert len(set(sub["edge_indices"])) == sub["edges"]


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


# `kll count` stdout as printed by the census with one extension per right
# coset and d(H) found by an exhaustive generator search: for the odd prime
# powers m <= 13 by the direct census on the SL(2, Z/m) table, which the
# lifted PSL census and Dickson's classes must reproduce byte for byte, and
# for m = 4, 6, 8, 10, 12, 14 and 15, which still take the direct route.
# m = 17, 19 and 23 are as printed by the lifted PSL census (m = 23 with
# --budget 20000); Dickson's classes print them at the default budgets.
COUNT_STDOUT = {
    3: """\
{
  "essential": {
    "count": 14,
    "exceptional": true,
    "expected_minimal": 4,
    "minimal_index": 3,
    "prime_field": true
  },
  "group_order": 24,
  "index2": {
    "consistent": true,
    "count": 0,
    "expected": 0
  },
  "modulus": 3,
  "rank": {
    "bound": 3,
    "holds": true,
    "value": 2
  },
  "subgroups": 15
}
""",
    5: """\
{
  "essential": {
    "count": 75,
    "exceptional": true,
    "expected_minimal": 6,
    "minimal_index": 5,
    "prime_field": true
  },
  "group_order": 120,
  "index2": {
    "consistent": true,
    "count": 0,
    "expected": 0
  },
  "modulus": 5,
  "rank": {
    "bound": 3,
    "holds": true,
    "value": 2
  },
  "subgroups": 76
}
""",
    7: """\
{
  "essential": {
    "count": 223,
    "exceptional": true,
    "expected_minimal": 8,
    "minimal_index": 7,
    "prime_field": true
  },
  "group_order": 336,
  "index2": {
    "consistent": true,
    "count": 0,
    "expected": 0
  },
  "modulus": 7,
  "rank": {
    "bound": 3,
    "holds": true,
    "value": 2
  },
  "subgroups": 224
}
""",
    9: """\
{
  "essential": {
    "count": 441,
    "exceptional": false,
    "expected_minimal": null,
    "minimal_index": 9,
    "prime_field": false
  },
  "group_order": 648,
  "index2": {
    "consistent": true,
    "count": 0,
    "expected": 0
  },
  "modulus": 9,
  "rank": {
    "bound": 3,
    "holds": true,
    "value": 3
  },
  "subgroups": 456
}
""",
    11: """\
{
  "essential": {
    "count": 765,
    "exceptional": true,
    "expected_minimal": 12,
    "minimal_index": 11,
    "prime_field": true
  },
  "group_order": 1320,
  "index2": {
    "consistent": true,
    "count": 0,
    "expected": 0
  },
  "modulus": 11,
  "rank": {
    "bound": 3,
    "holds": true,
    "value": 2
  },
  "subgroups": 766
}
""",
    13: """\
{
  "essential": {
    "count": 1139,
    "exceptional": false,
    "expected_minimal": 14,
    "minimal_index": 14,
    "prime_field": true
  },
  "group_order": 2184,
  "index2": {
    "consistent": true,
    "count": 0,
    "expected": 0
  },
  "modulus": 13,
  "rank": {
    "bound": 3,
    "holds": true,
    "value": 2
  },
  "subgroups": 1140
}
""",
    4: """\
{
  "essential": {
    "count": 46,
    "exceptional": false,
    "expected_minimal": null,
    "minimal_index": 4,
    "prime_field": false
  },
  "group_order": 48,
  "index2": {
    "consistent": true,
    "count": 1,
    "expected": 1
  },
  "modulus": 4,
  "rank": {
    "bound": 3,
    "holds": true,
    "value": 3
  },
  "subgroups": 52
}
""",
    6: """\
{
  "essential": {
    "count": 132,
    "exceptional": false,
    "expected_minimal": null,
    "minimal_index": 6,
    "prime_field": false
  },
  "group_order": 144,
  "index2": {
    "consistent": true,
    "count": 1,
    "expected": 1
  },
  "modulus": 6,
  "rank": {
    "bound": 3,
    "holds": true,
    "value": 3
  },
  "subgroups": 152
}
""",
    8: """\
{
  "essential": {
    "count": 621,
    "exceptional": false,
    "expected_minimal": null,
    "minimal_index": 8,
    "prime_field": false
  },
  "group_order": 384,
  "index2": {
    "consistent": true,
    "count": 1,
    "expected": 1
  },
  "modulus": 8,
  "rank": {
    "bound": 3,
    "holds": false,
    "value": 4
  },
  "subgroups": 673
}
""",
    10: """\
{
  "essential": {
    "count": 737,
    "exceptional": false,
    "expected_minimal": null,
    "minimal_index": 10,
    "prime_field": false
  },
  "group_order": 720,
  "index2": {
    "consistent": true,
    "count": 1,
    "expected": 1
  },
  "modulus": 10,
  "rank": {
    "bound": 3,
    "holds": true,
    "value": 3
  },
  "subgroups": 818
}
""",
    12: """\
{
  "essential": {
    "count": 2122,
    "exceptional": false,
    "expected_minimal": null,
    "minimal_index": 12,
    "prime_field": false
  },
  "group_order": 1152,
  "index2": {
    "consistent": true,
    "count": 1,
    "expected": 1
  },
  "modulus": 12,
  "rank": {
    "bound": 3,
    "holds": false,
    "value": 5
  },
  "subgroups": 2320
}
""",
    14: """\
{
  "essential": {
    "count": 2475,
    "exceptional": false,
    "expected_minimal": null,
    "minimal_index": 14,
    "prime_field": false
  },
  "group_order": 2016,
  "index2": {
    "consistent": true,
    "count": 1,
    "expected": 1
  },
  "modulus": 14,
  "rank": {
    "bound": 3,
    "holds": true,
    "value": 3
  },
  "subgroups": 2704
}
""",
    15: """\
{
  "essential": {
    "count": 2849,
    "exceptional": false,
    "expected_minimal": null,
    "minimal_index": 15,
    "prime_field": false
  },
  "group_order": 2880,
  "index2": {
    "consistent": true,
    "count": 0,
    "expected": 0
  },
  "modulus": 15,
  "rank": {
    "bound": 3,
    "holds": false,
    "value": 4
  },
  "subgroups": 2939
}
""",
    17: """\
{
  "essential": {
    "count": 2710,
    "exceptional": false,
    "expected_minimal": 18,
    "minimal_index": 18,
    "prime_field": true
  },
  "group_order": 4896,
  "index2": {
    "consistent": true,
    "count": 0,
    "expected": 0
  },
  "modulus": 17,
  "rank": {
    "bound": 3,
    "holds": true,
    "value": 2
  },
  "subgroups": 2711
}
""",
    19: """\
{
  "essential": {
    "count": 3523,
    "exceptional": false,
    "expected_minimal": 20,
    "minimal_index": 20,
    "prime_field": true
  },
  "group_order": 6840,
  "index2": {
    "consistent": true,
    "count": 0,
    "expected": 0
  },
  "modulus": 19,
  "rank": {
    "bound": 3,
    "holds": true,
    "value": 2
  },
  "subgroups": 3524
}
""",
    23: """\
{
  "essential": {
    "count": 6492,
    "exceptional": false,
    "expected_minimal": 24,
    "minimal_index": 24,
    "prime_field": true
  },
  "group_order": 12144,
  "index2": {
    "consistent": true,
    "count": 0,
    "expected": 0
  },
  "modulus": 23,
  "rank": {
    "bound": 3,
    "holds": true,
    "value": 2
  },
  "subgroups": 6493
}
""",
}


@pytest.mark.parametrize("m", sorted(COUNT_STDOUT))
def test_count_stdout_pinned(capsys, m):
    assert main(["count", "--modulus", str(m)]) == 0
    assert capsys.readouterr().out == COUNT_STDOUT[m]


# stdout of exact spectral bounds (Laplacian characteristic polynomial,
# lambda2 bisection) and of a sextic field's discriminant and splitting
SPECTRAL_FIELD_STDOUT = {
    ("cheeger", "--cycle", "15", "--spectral"): """{
  "V": 15,
  "h": "2/7",
  "h_set": [
    0,
    1,
    2,
    3,
    12,
    13,
    14
  ],
  "spectral_bounds": {
    "hi": "446486957/536870912",
    "lo": "1485277725/17179869184"
  }
}
""",
    ("cheeger", "--cycle", "22", "--spectral"): """{
  "V": 22,
  "h": "2/11",
  "h_set": [
    0,
    1,
    2,
    3,
    4,
    5,
    17,
    18,
    19,
    20,
    21
  ],
  "spectral_bounds": {
    "hi": "1222475153/2147483648",
    "lo": "347952705/8589934592"
  }
}
""",
    ("field", "--poly", "[1,-1,-2,2,-1,-1,1]", "--prime", "163"): """{
  "degree": 6,
  "irreducibility": {
    "certified": true,
    "method": "irreducible mod 2"
  },
  "poly": [
    1,
    -1,
    -2,
    2,
    -1,
    -1,
    1
  ],
  "poly_discriminant": "-104483",
  "primes": {
    "163": [
      {
        "e": 2,
        "f": 1,
        "local_factor": [
          113,
          1
        ],
        "norm": 163,
        "quadratic_subextension": "Contains"
      },
      {
        "e": 1,
        "f": 4,
        "local_factor": [
          83,
          142,
          64,
          99,
          1
        ],
        "norm": 705911761,
        "quadratic_subextension": "Contains"
      }
    ]
  },
  "signature": [
    4,
    1
  ]
}
""",
}


@pytest.mark.parametrize("args", list(SPECTRAL_FIELD_STDOUT),
                         ids=["cycle-15", "cycle-22", "sextic-163"])
def test_spectral_and_field_stdout_pinned(capsys, args):
    assert main(list(args)) == 0
    assert capsys.readouterr().out == SPECTRAL_FIELD_STDOUT[args]


def test_verify_command(capsys):
    rc = main(["verify"])
    assert rc == 0
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert out["all_pass"] is True
    assert len(out["examples"]) >= 10
    # one timing line per example on stderr; stdout carries no time
    timings = [json.loads(line) for line in captured.err.splitlines()]
    assert [t["name"] for t in timings] == [name for name, _ in EXAMPLES] \
        == [r["name"] for r in out["examples"]]
    for t in timings:
        assert set(t) == {"name", "seconds"}
        assert Fraction(t["seconds"]) >= 0 and "e" not in t["seconds"]
    assert "seconds" not in captured.out


def test_parser_reuse_keeps_no_state(tmp_path, capsys, monkeypatch):
    """One parser serves every `main` call in a process, and each call
    behaves as the same argv run alone in a fresh process."""
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    graph = tmp_path / "two-k4.json"
    graph.write_text(json.dumps(
        {"V": 8, "edges": K4 + [[u + 4, v + 4] for u, v in K4]}))
    output = tmp_path / "symbol.json"
    quintic = ["field", "--poly", "[1,0,-2,-1,0,1]"]
    argvs = [quintic + ["--prime", "3", "--prime", "5"], quintic,
             ["no-such-command"], ["--budget", "10", "count", "--modulus", "9"],
             ["count", "--modulus", "25"],
             ["graph", "--input", str(graph)],
             ["algebra", "--symbol", "3", "5", "--prime", "3",
              "--output", str(output)]]
    argvs.append(argvs[0])

    def written():
        if not output.exists():
            return None
        text = output.read_text()
        output.unlink()
        return text

    alone = []
    for argv in argvs:
        proc = run_cli(argv, timeout=60)
        alone.append((proc.returncode, proc.stdout, proc.stderr, written()))
    together = []
    for argv in argvs:
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        together.append((rc, captured.out, captured.err, written()))
    assert [r[0] for r in together] == [0, 0, 2, 3, 3, 2, 0, 0]
    assert together == alone
    assert together[-1] == together[0]
    assert json.loads(together[0][1])["primes"].keys() == {"3", "5"}
    assert json.loads(together[1][1])["primes"] == {}


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
    rc = main(["--budget", "10", "count", "--modulus", "9"])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["budget"], err["limit"], err["reached"]) == \
        ("budget", "census order", 10, 648)
    assert main(["count", "--modulus", "9"]) == 0


def test_budget_caps_dickson_witness_closures(capsys):
    # for a prime p >= 5 the budget caps the witness closures, the largest
    # of which is A_5 (60 elements in PSL(2, 11)), not |SL(2, p)| = 1320
    assert main(["--budget", "59", "count", "--modulus", "11"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["budget"], err["limit"], err["reached"]) == \
        ("budget", "closure order", 59, 60)
    assert main(["--budget", "60", "count", "--modulus", "11"]) == 0
    assert capsys.readouterr().out == COUNT_STDOUT[11]


def test_budget_caps_quotient_closure(tmp_path, capsys):
    # an onto factor closes at most max(p + 1, 60) elements (Dickson), so
    # only a budget below 60 stops PSL(2, 7); --budget 100 now exits 0
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"primes": [7], "generators": [
        [[[0, -1], [1, 0]]], [[[1, 1], [0, 1]]]]}))
    assert main(["--budget", "50", "quotient", "--input", str(path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert (err["budget"], err["limit"], err["reached"]) == \
        ("closure order", 50, 51)
    assert main(["--budget", "100", "quotient", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["closure_order"] == 168


def test_budget_caps_proper_quotient_closure(tmp_path, capsys):
    # the upper-triangular group of PSL(2, 7), of order 21, fixes
    # infinity: its closure is enumerated, and under the budget
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"primes": [7], "generators": [
        [[[3, 0], [0, 5]]], [[[1, 1], [0, 1]]]]}))
    assert main(["--budget", "20", "quotient", "--input", str(path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert (err["budget"], err["limit"], err["reached"]) == \
        ("closure order", 20, 21)
    assert main(["--budget", "21", "quotient", "--input", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["closure_order"], out["surjective"]) == (21, False)


@pytest.mark.parametrize("primes", [[7], [7, 7]])
def test_quotient_of_no_generators(tmp_path, capsys, primes):
    # the trivial subgroup: every point of P^1 is a common fixed point
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"primes": primes, "generators": []}))
    assert main(["quotient", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "primes": primes, "closure_order": 1,
        "product_order": 168 ** len(primes), "surjective": False}


def test_budget_caps_cheeger_sets(capsys):
    assert main(["--budget", "10", "cheeger", "--cycle", "30"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "h" not in out and "h_set" not in out
    assert Fraction(out["h_bounds"]["lo"]) <= Fraction(2, 15) \
        <= Fraction(out["h_bounds"]["hi"])
    assert out["exact_budget"] == {"budget": "cheeger sets", "limit": 10,
                                   "reached": 11}
    assert main(["cheeger", "--cycle", "30"]) == 0
    assert json.loads(capsys.readouterr().out)["h"] == "2/15"


def test_budget_leaves_environment_alone(capsys):
    before = dict(os.environ)
    assert main(["--budget", "10", "count", "--modulus", "9"]) == 3
    assert dict(os.environ) == before
    assert main(["count", "--modulus", "2"]) == 0
    assert dict(os.environ) == before


def test_budget_flag_rejects_non_integer(capsys):
    # a negative cap is an argparse error too; 0 stays a valid cap
    for value in ("ten", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["--budget", value, "count", "--modulus", "5"])
        assert exc.value.code == 2, value
    assert main(["--budget", "0", "cheeger", "--cycle", "6"]) == 0


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


def test_quotient_rejects_non_klein_four(tmp_path, capsys):
    job = json.loads(json.dumps(QUOTIENT_JOB))
    job["klein_four"]["b"][1] = [[1, 1], [0, 1]]   # of order 7, not 2
    path = tmp_path / "q.json"
    path.write_text(json.dumps(job))
    assert main(["quotient", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ValueError"
    assert err["detail"].startswith("slot 2: A_2, B_2 are not commuting")


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


def _orbifold(edit):
    obj = json.loads(json.dumps(ORBIFOLD))
    edit(obj)
    return ["orbifold", "--input", obj]


def _edge0(**fields):
    return _orbifold(lambda o: o["locus"]["edges"][0].update(fields))


def _locus(**fields):
    return _orbifold(lambda o: o["locus"].update(fields))


def _gens(gens):
    return _orbifold(lambda o: o["manifold"].update(gens=gens))


B = [[[1], [0]], [[1], [1]]]
# a circle of order 2 with meridian b and core a: phi = (1, 0) kills b^2
CIRCLE = ["orbifold", "--prime", "2", "--input", {
    "manifold": {"gens": ["a", "b"], "rels": []},
    "locus": {"vertices": ["w"], "edges": [
        {"id": "c", "ends": ["w", "w"], "order": 2, "meridian": "b",
         "core": "a"}]}}]
K4 = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
# circles of order 3 about a and of order 2 about b: phi = (0, 1) leaves bb
TWO_CIRCLES = ["orbifold", "--phi", "0,1", "--input", {
    "manifold": {"gens": ["a", "b"], "rels": []},
    "locus": {"vertices": ["w", "x"], "edges": [
        {"id": "c", "ends": ["w", "w"], "order": 3, "meridian": "a"},
        {"id": "d", "ends": ["x", "x"], "order": 2, "meridian": "b"}]}}]
FIELD = ["field", "--poly", "[1,0,1]"]
SYMBOL = ["algebra", "--symbol", "3", "5"]


# Each bad input exits 2 (3 for the budget) at once, with one JSON line
# on stderr whose detail names the fault, by JSON pointer where the fault
# is in a document.
@pytest.mark.parametrize("argv, code, detail", [
    (_locus(vertices=5), 2, "/locus/vertices"),
    (_locus(vertices="uv"), 2, "/locus/vertices"),
    (_edge0(core=5), 2, "/locus/edges/0/core"),
    (_edge0(core="zz"), 2, "/locus/edges/0/core"),
    (_edge0(ends=[["u"], "v"]), 2, "/locus/edges/0/ends/0"),
    (_edge0(ends=["u", "w"]), 2, "/locus/edges/0/ends/1"),
    (_edge0(order=1), 2, "/locus/edges/0/order"),
    (_gens(["ab", "b"]), 2, "/manifold/gens/0"),
    (_gens(["a", "a"]), 2, "/manifold/gens/1"),
    (_gens(["x", "y"]), 2, "/locus/edges/0/meridian"),
    (_gens([]), 2, "/manifold/gens"),
    (["order", "--poly", "[0,1]", "--matrices",
      json.dumps({"a": [1, 2], "b": B})], 2, "/a"),
    (["order", "--poly", "[0,1]", "--matrices",
      json.dumps({"a": [[1, 0.5], [0, 1]], "b": B})], 2, "/a/0/1"),
    (["graph", "--input", {"V": 0, "edges": []}], 2, "/V"),
    (["graph", "--input", {"V": 8, "edges": K4 + [[u + 4, v + 4]
                                                  for u, v in K4]}],
     2, "not connected"),
    (["quotient", "--input", {"primes": [], "generators": []}], 2,
     "/primes"),
    (FIELD + ["--prime", "1"], 2, "p = 1 is not a prime"),
    (FIELD + ["--prime", "-5"], 2, "p = -5 is not a prime"),
    (["algebra", "--symbol", "1", "1", "--prime", "1"], 2, "p = 1 is not"),
    (SYMBOL + ["--prime", "4"], 2, "p = 4 is not a prime"),
    (SYMBOL + ["--prime", "9"], 2, "p = 9 is not a prime"),
    (_orbifold(lambda o: None) + ["--prime", "1"], 2, "p = 1 is not"),
    (CIRCLE + ["--phi", "1"], 2, "has 1 entries"),
    (CIRCLE + ["--phi", "1,0,5"], 2, "has 3 entries"),
    (CIRCLE + ["--phi", "0,0"], 2, "gcd of exponents is not 1"),
    (TWO_CIRCLES, 2, "relator bb maps to 2"),
    (["field", "--poly", "[1.5,0,1]"], 2, "JSON integers"),
    (["field", "--poly", "[true,1]"], 2, "JSON integers"),
    (["count", "--modulus", "25"], 3, "census order reached 15000"),
    (["cheeger", "--cycle", "0"], 2, "n >= 1"),
    # det(ab - ba) is a nonzero zero divisor of Q[x]/(x^2 - 1)
    (["order", "--poly", "[-1,0,1]", "--matrices",
      json.dumps({"a": [[1, 1], [0, 1]], "b": [[1, 0], [["1/2", "1/2"], 1]]})],
     2, "zero divisor"),
    (["order", "--poly", "[0,1]", "--matrices",
      json.dumps({"a": [[2, 0], [0, 1]], "b": B})],
     2, "both determinants must equal 1"),
], ids=["vertices-int", "vertices-string", "core-int", "core-unknown-letter",
        "end-not-a-name", "end-unknown-vertex", "order-below-2",
        "multi-letter-generator", "duplicate-generator",
        "meridian-not-a-generator", "no-generators", "order-matrix-shape",
        "order-float-entry", "graph-no-vertices", "graph-disconnected",
        "quotient-no-primes",
        "field-prime-1", "field-prime-negative", "symbol-prime-1",
        "symbol-prime-4", "symbol-prime-9", "orbifold-prime-1",
        "orbifold-phi-short", "orbifold-phi-long", "orbifold-phi-zero",
        "orbifold-phi-relator",
        "poly-float", "poly-bool", "count-over-budget", "cheeger-cycle-0",
        "order-zero-divisor", "order-not-unimodular"])
def test_bad_input_exits_with_json(tmp_path, argv, code, detail):
    for i, arg in enumerate(argv):
        if isinstance(arg, dict):
            path = tmp_path / f"input{i}.json"
            path.write_text(json.dumps(arg))
            argv = argv[:i] + [str(path)] + argv[i + 1:]
    proc = run_cli(argv, timeout=10)  # a hang fails, as a timeout
    assert (proc.returncode, proc.stdout) == (code, "")
    [line] = proc.stderr.splitlines()
    assert detail in json.loads(line)["detail"]

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
