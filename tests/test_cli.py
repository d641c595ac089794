"""Command-line behavior: formats, exit codes, determinism."""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import orderdim
from orderdim.campaigns import CAMPAIGNS
from orderdim.selectors import MAX_MONOTONE_LENGTH
from orderdim.cli import (
    SUBCOMMANDS,
    _fast_parse,
    _parse,
    build_parser,
    main,
    run,
)

from .test_search_identity import CAMPAIGN_DIGESTS


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child(*args, **kwargs):
    """Start a fresh interpreter that imports this same orderdim."""
    env = dict(os.environ)
    src = str(Path(orderdim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.Popen([sys.executable, *args], env=env, **kwargs)


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def c3(tmp_path):
    return write(
        tmp_path,
        "c3.json",
        {"kind": "digraph", "n": 3, "edges": [[0, 1], [1, 2], [2, 0]]},
    )


@pytest.fixture
def crown(tmp_path):
    return write(
        tmp_path,
        "crown.json",
        {
            "kind": "quasi",
            "n": 6,
            "pairs": [[0, 4], [0, 5], [1, 3], [1, 5], [2, 3], [2, 4]],
            "closure": True,
        },
    )


def test_dicr_json_output(capsys, c3):
    code, out, _ = invoke(capsys, "dicr", c3)
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 2
    assert sorted(len(c) for c in doc["cover"]["classes"]) == [1, 2]


def test_dim_both_methods_agree(capsys, crown):
    code, out, _ = invoke(capsys, "dim", crown)
    assert code == 0 and json.loads(out)["d"] == 3


def test_chrom_requires_symmetric_input(capsys, c3):
    code, _, err = invoke(capsys, "chrom", c3)
    assert code == 1
    assert "property violated" in err


def test_selector_text_matches_published_example(capsys):
    code, out, _ = invoke(
        capsys, "g0", "selector", "--sigma", "2,2", "--format", "text"
    )
    assert code == 0 and out.strip() == "1,0"


def test_monotone_violation_exits_one(capsys):
    code, out, _ = invoke(capsys, "g0", "monotone", "--sigma", "3,2")
    assert code == 1
    assert json.loads(out)["counterexample"] == [0, 1]
    code, _, _ = invoke(capsys, "g0", "monotone", "--sigma", "2,3")
    assert code == 0


def test_monotone_length_guard_exits_three(capsys):
    at = ",".join(["2"] * MAX_MONOTONE_LENGTH)
    code, out, _ = invoke(capsys, "g0", "monotone", "--sigma", at)
    assert code == 0 and json.loads(out)["monotone"] is True
    t0 = time.perf_counter()
    code, out, err = invoke(capsys, "g0", "monotone", "--sigma", at + ",2")
    assert time.perf_counter() - t0 < 1
    assert code == 3 and out == ""
    # a size guard is not a budget, and its message says so
    assert err == (
        f"too large: length {MAX_MONOTONE_LENGTH + 1} exceeds the "
        f"monotone guard of {MAX_MONOTONE_LENGTH}\n"
    )


def test_density_depth_guard(capsys):
    code, _, err = invoke(
        capsys, "g0", "density", "--sigma", "2,2", "--depth", "9"
    )
    assert code == 2 and "depth" in err


@pytest.mark.parametrize(
    "sigma, message",
    [("2,x", "comma-separated integers"), ("1,2", "at least 2")],
)
def test_bad_sigma_is_a_usage_error(capsys, sigma, message):
    code, out, err = invoke(capsys, "g0", "selector", "--sigma", sigma)
    assert code == 2 and out == "" and message in err


def test_enumerate_counts(capsys):
    code, out, _ = invoke(capsys, "enumerate", "--n", "2")
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    assert len(lines) == 3
    code, out, _ = invoke(capsys, "enumerate", "--n", "3", "--format", "text")
    assert code == 0 and out.strip() == "count=19"


def test_enumerate_guard_exits_three(capsys):
    code, _, err = invoke(capsys, "enumerate", "--n", "9")
    assert code == 3


def test_gen_is_byte_deterministic(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["gen", "poset", "--n", "6", "--p", "0.3",
                 "--seed", "42", "--out", a]) == 0
    assert main(["gen", "poset", "--n", "6", "--p", "0.3",
                 "--seed", "42", "--out", b]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_gen_crown_feeds_dim(capsys, tmp_path):
    path = str(tmp_path / "crown.json")
    assert main(["gen", "crown", "--n", "3", "--out", path]) == 0
    code, out, _ = invoke(capsys, "dim", path)
    assert code == 0 and json.loads(out)["d"] == 3


# sha256 of `orderdim gen KIND --n 5 --seed 1` for every kind
GEN_DIGESTS = {
    "poset": "f597b7a751f4b1e6320aad7fed591ed0b8288525a1d468fa4076d3f50a7818d6",
    "quasi": "2bc6d4d8e7df4a88d336704e7ce645fef661249b3aa113cc3f66e8daa0dc4cca",
    "digraph": "9e46cb8c47bddf7b7b81bae7858ce489dd97e0ae5d4ebd497ff50ff2125eca5a",
    "symmetric": "b586657b6f0f43d00abf02365928f44cdb85e4d45f796b54f99657dec0677fa6",
    "crown": "c17c54b054a8e722ba1ed3540294b93fe1b7c7ff3846d28bb0b10d90c18eac63",
    "chain": "ba00853c97d3a596c135bc61967473f76e5bd8f278ae72f15de159ef7d339b4c",
    "antichain": "5cf268db56ba704df3355a1f27de133aa82795b3021876166ff6feade7b9a021",
    "boolean": "04ab4c3fdbd7e61d1be6fce7b3cc165a38886dbf90138b9a70f179306af373d2",
    "cycle": "337c1110eb18ee2316aef76ba471c66cb7c0b49749685e0d289a1f9c898b2f52",
    "biclique": "aa873eee6af919da54df0653e9a85103dff9c3c18b991a7a727128ad67f4dfdc",
}


def test_gen_table_output_bytes_are_pinned(capsys):
    from orderdim.cli import GENERATORS

    assert list(GENERATORS) == list(GEN_DIGESTS)
    for kind, digest in GEN_DIGESTS.items():
        code, out, _ = invoke(capsys, "gen", kind, "--n", "5", "--seed", "1")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, kind
    code, out, err = invoke(capsys, "gen", "ladder")
    assert code == 2 and out == "" and "invalid choice" in err


def test_self_loop_input_is_usage_error(capsys, tmp_path):
    bad = write(
        tmp_path, "bad.json",
        {"kind": "digraph", "n": 2, "edges": [[0, 0]]},
    )
    code, _, err = invoke(capsys, "dicr", bad)
    assert code == 2 and "self-loop" in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = invoke(capsys, "dim", "definitely-not-here.json")
    assert code == 2


def test_budget_env_var_exits_three(capsys, tmp_path, monkeypatch):
    k5 = write(
        tmp_path,
        "k5.json",
        {
            "kind": "digraph",
            "n": 5,
            "edges": [
                [i, j] for i in range(5) for j in range(5) if i != j
            ],
        },
    )
    monkeypatch.setenv("DICHRO_BUDGET", "5")
    code, _, err = invoke(capsys, "dicr", k5)
    assert code == 3 and "budget" in err.lower()
    monkeypatch.setenv("DICHRO_BUDGET", "sometimes")
    code, _, err = invoke(capsys, "dicr", k5)
    assert code == 2


def test_budget_flag_overrides_env(capsys, tmp_path, monkeypatch):
    c2 = write(
        tmp_path, "c2.json",
        {"kind": "digraph", "n": 2, "edges": [[0, 1], [1, 0]]},
    )
    monkeypatch.setenv("DICHRO_BUDGET", "1")
    code, out, _ = invoke(capsys, "dicr", c2, "--budget", "100000")
    assert code == 0 and json.loads(out)["k"] == 2


def test_budget_zero_is_honoured(capsys, tmp_path, c3, crown):
    code, out, err = invoke(capsys, "dicr", c3, "--budget", "0")
    assert code == 3 and out == "" and "budget" in err.lower()
    code, out, err = invoke(capsys, "dim", crown, "--budget", "0")
    assert code == 3 and out == "" and "budget" in err.lower()
    # a digraph without cycles has only singleton components: no search node
    path = write(
        tmp_path, "path.json",
        {"kind": "digraph", "n": 3, "edges": [[0, 1], [1, 2]]},
    )
    code, out, _ = invoke(capsys, "dicr", path, "--budget", "0")
    assert code == 0 and json.loads(out)["k"] == 1


def test_hom_check_reads_the_budget(capsys, tmp_path, monkeypatch, c3):
    # a minimal witness makes the check enumerate the minimal cycles
    code, out, _ = invoke(capsys, "hom", "find", c3, c3, "--minimal")
    assert code == 0
    witness = str(tmp_path / "w.json")
    Path(witness).write_text(out)
    argv = ["hom", "check", c3, c3, witness]
    code, out, _ = invoke(capsys, *argv)
    assert code == 0 and json.loads(out)["ok"] is True
    code, out, err = invoke(capsys, *argv, "--budget", "0")
    assert code == 3 and out == "" and "budget" in err.lower()
    monkeypatch.setenv("DICHRO_BUDGET", "0")
    code, out, err = invoke(capsys, *argv)
    assert code == 3 and out == "" and "budget" in err.lower()


def test_hom_takes_options_between_its_positionals(capsys, tmp_path, c3):
    code, out, _ = invoke(capsys, "hom", "find", c3, c3, "--minimal")
    witness = str(tmp_path / "w.json")
    Path(witness).write_text(out)
    for argv, options in (
        (["hom", "check", c3, c3, witness], ["--budget", "5"]),
        (["hom", "check", c3, c3, witness], ["--budget", "100000"]),
        (["hom", "find", c3, c3], ["--minimal"]),
        (["hom", "check", c3, c3, witness], ["--format", "text"]),
        (["hom", "check", c3, c3, witness], ["--min", "--budget=9"]),
    ):
        last = invoke(capsys, *argv, *options)
        assert last[0] == 0 and last[1], (argv, options)
        for at in range(1, len(argv)):
            line = argv[:at] + options + argv[at:]
            assert invoke(capsys, *line) == last, line


def test_hom_find_refuses_a_witness_file(capsys, tmp_path, c3):
    missing = str(tmp_path / "nonexistent.json")
    for argv in (["hom", "find", c3, c3, missing],
                 ["hom", "find", c3, "--minimal", c3, missing]):
        assert invoke(capsys, *argv) == (
            2, "", "error: hom find takes no witness file\n"
        )


def test_extra_hom_positional_after_an_option_is_refused_as_typed(capsys):
    # the table refuses the line and argparse words the error for it as
    # typed; 3.11 gives the witness nothing once the option interrupts
    # hom's positionals, so w and x are both left over
    argv = ["hom", "check", "g.json", "h.json", "--budget", "5", "w", "x"]
    assert _fast_parse(argv) is None
    code, out, err = invoke(capsys, *argv)
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    assert (code, out, err) == (2, "", capsys.readouterr().err)
    if sys.version_info[:2] == (3, 11):
        assert err.endswith("error: unrecognized arguments: w x\n")


def test_negative_budget_is_usage_error(capsys, c3):
    code, out, err = invoke(capsys, "dicr", c3, "--budget", "-1")
    assert code == 2 and out == "" and "--budget" in err


def test_negative_budget_env_is_usage_error(capsys, c3, monkeypatch):
    monkeypatch.setenv("DICHRO_BUDGET", "-5")
    code, out, err = invoke(capsys, "dicr", c3)
    assert code == 2 and out == "" and "DICHRO_BUDGET" in err


def test_chrom_budget_exits_three(capsys, tmp_path):
    k3 = write(
        tmp_path, "k3.json",
        {"kind": "digraph", "n": 3,
         "edges": [[i, j] for i in range(3) for j in range(3) if i != j]},
    )
    code, out, err = invoke(capsys, "chrom", k3, "--budget", "1")
    assert code == 3 and out == ""
    assert err == "budget exceeded: acyclic cover search\n"
    code, out, _ = invoke(capsys, "chrom", k3)
    assert code == 0 and json.loads(out) == {"k": 3, "coloring": [0, 1, 2]}


def test_declared_size_above_the_limit_is_usage_error(capsys, tmp_path):
    # both inputs are refused without allocating even when the guard is
    # missing (boolean orders above 6 atoms exit 3, null edges are
    # malformed), so a missing guard shows as the wrong code or message
    code, out, err = invoke(capsys, "gen", "boolean", "--n", str(10**12))
    assert code == 2 and out == "" and "input limit" in err
    huge = write(
        tmp_path, "huge.json", {"kind": "digraph", "n": 10**12, "edges": None}
    )
    code, out, err = invoke(capsys, "dicr", huge)
    assert code == 2 and out == "" and "input limit" in err


def test_negative_gen_size_is_usage_error(capsys):
    code, out, err = invoke(capsys, "gen", "chain", "--n", "-3")
    assert code == 2 and out == "" and "at least 0" in err


@pytest.mark.parametrize("p", ["nan", "inf", "-inf", "-0.5", "2"])
def test_gen_probability_outside_the_unit_interval_is_usage_error(capsys, p):
    code, out, err = invoke(capsys, "gen", "poset", f"--p={p}")
    assert code == 2 and out == "" and "--p must be a number in [0, 1]" in err


@pytest.mark.parametrize("p", ["0", "1"])
def test_gen_probability_at_the_interval_ends(capsys, p):
    code, out, _ = invoke(capsys, "gen", "digraph", "--n", "3", "--p", p)
    assert code == 0
    edges = json.loads(out)["edges"]
    assert len(edges) == (0 if p == "0" else 6)


def test_negative_enumerate_size_is_usage_error(capsys):
    code, out, err = invoke(capsys, "enumerate", "--n", "-1")
    assert code == 2 and out == "" and "at least 0" in err


@pytest.mark.parametrize("kind, n", [("cycle", "1"), ("crown", "0")])
def test_gen_below_a_kinds_least_size_is_usage_error(capsys, kind, n):
    code, out, err = invoke(capsys, "gen", kind, "--n", n)
    assert code == 2 and out == "" and "property violated" not in err


def test_gen_size_guard_exits_three(capsys):
    code, out, err = invoke(capsys, "gen", "boolean", "--n", "30")
    assert code == 3 and out == "" and err.startswith("too large: ")


@pytest.mark.parametrize("enabled", [True, False])
def test_run_pauses_the_collector_and_restores_it(
    capsys, c3, monkeypatch, enabled
):
    import orderdim.cli as cli

    paused = []
    dumps = cli.dumps
    monkeypatch.setattr(
        cli, "dumps", lambda obj: paused.append(not gc.isenabled()) or dumps(obj)
    )
    cases = [
        (["dicr", c3], 0),
        (["dicr", c3 + ".missing"], 2),
        (["dicr", c3, "--budget", "1"], 3),
    ]
    try:
        for argv, want in cases:
            gc.enable() if enabled else gc.disable()
            code, _, _ = invoke(capsys, *argv)
            assert code == want and gc.isenabled() is enabled, argv
    finally:
        gc.enable()
    assert paused == [True]


def test_gen_refuses_quadratic_kinds_above_their_guard(capsys):
    from orderdim.generate import MAX_GEN_N

    t0 = time.perf_counter()
    code, out, err = invoke(capsys, "gen", "chain", "--n", "16384")
    assert time.perf_counter() - t0 < 1
    assert code == 3 and out == "" and err.startswith("too large: ")
    code, out, _ = invoke(capsys, "gen", "chain", "--n", str(MAX_GEN_N))
    assert code == 0 and json.loads(out)["n"] == MAX_GEN_N


def test_pair_digraph_guard_exits_three_at_once(capsys, tmp_path):
    # an antichain of the largest input size would have n(n - 1) pair
    # vertices; every command that builds a pair digraph refuses it
    doc = {"kind": "quasi", "n": 16384, "pairs": []}
    order = write(tmp_path, "a.json", doc)
    cover = write(tmp_path, "c.json", {"classes": [[0]]})
    for argv in (
        ["dim", order],
        ["reduce", "ap", order],
        ["reduce", "bp", order],
        ["convert", "cover-to-ext", order, cover],
    ):
        t0 = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - t0 < 1, argv
        assert code == 3 and out == "" and "pair vertex guard" in err, argv


def test_hom_budget_zero_exits_three_at_once(capsys, tmp_path):
    # ordering the vertices of the largest empty digraph by degree must
    # not cost a row scan per vertex before the budget is counted
    g = write(tmp_path, "e.json", {"kind": "digraph", "n": 16384, "edges": []})
    t0 = time.perf_counter()
    code, out, err = invoke(capsys, "hom", "find", g, g, "--budget", "0")
    assert time.perf_counter() - t0 < 5
    assert code == 3 and out == "" and "budget exceeded" in err


def test_density_is_counted_and_guarded(capsys):
    # each tuple's enumeration index is counted, not scanned for, so a
    # tree just under the guard answers at once and one over it exits 3
    t0 = time.perf_counter()
    code, out, _ = invoke(capsys, "g0", "density", "--sigma", "40,40")
    assert time.perf_counter() - t0 < 5
    doc = json.loads(out)
    assert code == 0 and len(doc["witnessed"]) + len(doc["unresolved"]) == 1641
    code, out, err = invoke(capsys, "g0", "density", "--sigma", "64,64")
    assert code == 3 and out == "" and "tree guard" in err
    code, out, _ = invoke(
        capsys, "g0", "density", "--sigma", "64,64", "--depth", "1"
    )
    doc = json.loads(out)
    assert code == 0 and doc["witnessed"] == [[[], 0], [[0], 1]]
    assert len(doc["unresolved"]) == 63


def test_reduce_edge_guard_exits_three_at_once(capsys, tmp_path):
    # a chain of 80 has 3,160 pair vertices, under the vertex guard, and
    # 1,663,740 edges; an antichain of 128 has 2,064,512 between
    # incomparable pairs
    chain80, chain70, anti = (
        str(tmp_path / name) for name in ("c80.json", "c70.json", "a.json")
    )
    assert main(["gen", "chain", "--n", "80", "--out", chain80]) == 0
    assert main(["gen", "chain", "--n", "70", "--out", chain70]) == 0
    assert main(["gen", "antichain", "--n", "128", "--out", anti]) == 0
    for argv in (["reduce", "ap", chain80], ["reduce", "bp", anti]):
        t0 = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - t0 < 1, argv
        assert code == 3 and out == "" and "pair edge guard" in err, argv
    code, out, _ = invoke(capsys, "reduce", "ap", chain70, "--format", "text")
    assert code == 0 and out == "vertices=2415 edges=971635\n"


def test_bool_declared_size_is_usage_error(capsys, tmp_path):
    # bool is an int in Python, so true would otherwise read as n = 1
    flag = write(tmp_path, "flag.json", {"kind": "digraph", "n": True, "edges": []})
    code, out, err = invoke(capsys, "dicr", flag)
    assert code == 2 and out == "" and '"n" must be a non-negative int' in err


def test_hom_find_and_check_round_trip(capsys, tmp_path, c3):
    c6 = write(
        tmp_path,
        "c6.json",
        {
            "kind": "digraph",
            "n": 6,
            "edges": [[i, (i + 1) % 6] for i in range(6)],
        },
    )
    code, out, _ = invoke(capsys, "hom", "find", c6, c3)
    assert code == 0
    found = json.loads(out)
    assert found["map"] == [0, 1, 2, 0, 1, 2]
    witness = write(
        tmp_path, "w.json",
        {"kind": "homwitness", "map": found["map"], "minimal": False},
    )
    code, out, _ = invoke(capsys, "hom", "check", c6, c3, witness)
    assert code == 0 and json.loads(out)["ok"] is True
    bad = write(
        tmp_path, "wm.json",
        {"kind": "homwitness", "map": found["map"], "minimal": True},
    )
    code, out, _ = invoke(capsys, "hom", "check", c6, c3, bad)
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False and doc["pair"] is not None
    code, out, _ = invoke(capsys, "hom", "find", c6, c3, "--minimal")
    assert code == 1 and json.loads(out)["found"] is False


@pytest.mark.parametrize(
    "mapping, message",
    [
        ([0, 1], "mapping covers 2 of 3 vertices"),
        ([0, 1, 3], "image 3 outside 0..2"),
    ],
)
def test_hom_check_malformed_map_is_usage_error(
    capsys, tmp_path, c3, mapping, message
):
    witness = write(
        tmp_path, "w.json", {"kind": "homwitness", "map": mapping}
    )
    for extra in ((), ("--minimal",)):
        assert invoke(capsys, "hom", "check", c3, c3, witness, *extra) == (
            2, "", f"error: {witness}: {message}\n"
        )


def test_hom_check_minimal_flag_asks_for_the_cycle_rule(capsys, tmp_path, c3):
    c6 = write(
        tmp_path,
        "c6.json",
        {
            "kind": "digraph",
            "n": 6,
            "edges": [[i, (i + 1) % 6] for i in range(6)],
        },
    )
    # the plain wrap that hom find prints, with "minimal": false
    code, out, _ = invoke(capsys, "hom", "find", c6, c3)
    assert code == 0 and json.loads(out)["minimal"] is False
    witness = str(tmp_path / "w.json")
    Path(witness).write_text(out)
    code, out, _ = invoke(capsys, "hom", "check", c6, c3, witness)
    assert code == 0 and json.loads(out)["ok"] is True
    code, out, _ = invoke(capsys, "hom", "check", "--minimal", c6, c3, witness)
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["reason"] == "cycle non-edge mapped to an edge"


def test_reduce_and_convert_pipeline(capsys, tmp_path):
    chain = write(
        tmp_path,
        "chain.json",
        {"kind": "quasi", "n": 3, "pairs": [[0, 1], [1, 2]], "closure": True},
    )
    code, out, _ = invoke(capsys, "reduce", "ap", chain)
    assert code == 0
    doc = json.loads(out)
    assert doc["pairs"] == [[0, 1], [0, 2], [1, 2]]
    assert doc["digraph"]["edges"] == [[0, 2]]
    cover = write(tmp_path, "cover.json", {"classes": [[0, 1, 2]]})
    code, out, _ = invoke(capsys, "convert", "cover-to-ext", chain, cover)
    assert code == 0
    fam = json.loads(out)
    code, out, _ = invoke(
        capsys,
        "convert",
        "ext-to-cover",
        chain,
        write(tmp_path, "fam.json", fam),
    )
    assert code == 0
    assert len(json.loads(out)["classes"]) == 1
    short = write(tmp_path, "short.json", {"classes": [[0]]})
    code, _, err = invoke(capsys, "convert", "cover-to-ext", chain, short)
    assert code == 1 and "uncovered" in err


def test_convert_bad_witness_is_usage_error(capsys, tmp_path):
    chain = write(
        tmp_path,
        "chain.json",
        {"kind": "quasi", "n": 3, "pairs": [[0, 1], [1, 2]], "closure": True},
    )
    junk = tmp_path / "junk.json"
    junk.write_text("not json")
    for direction in ("cover-to-ext", "ext-to-cover"):
        code, out, err = invoke(capsys, "convert", direction, chain, str(junk))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {junk}: not valid JSON")
    scalar = write(tmp_path, "scalar.json", {"extensions": 5})
    code, out, err = invoke(capsys, "convert", "ext-to-cover", chain, scalar)
    assert code == 2 and out == ""
    assert err == f'error: {scalar}: "extensions" must be a list\n'


def test_boolean_ids_are_usage_errors(capsys, tmp_path):
    order = write(
        tmp_path, "bool.json", {"kind": "quasi", "n": 2, "pairs": [[True, False]]}
    )
    code, out, err = invoke(capsys, "dim", order)
    assert code == 2 and out == ""
    assert err == f"error: {order}: pairs entry [True, False] is not an int pair\n"
    chain = write(tmp_path, "chain.json", {"kind": "quasi", "n": 2, "pairs": [[0, 1]]})
    cover = write(tmp_path, "cover.json", {"classes": [[False]]})
    code, out, err = invoke(capsys, "convert", "cover-to-ext", chain, cover)
    assert code == 2 and out == ""
    assert err == f'error: {cover}: "classes" must be lists of ints\n'


def test_non_transitive_order_payload_is_usage_error(capsys, tmp_path):
    # "closure": false takes the pairs as they are, and 0 < 1 < 2 without
    # 0 < 2 is not transitive: the reader must refuse it, not trust it
    order = write(
        tmp_path,
        "loose.json",
        {"kind": "quasi", "n": 3, "pairs": [[0, 1], [1, 2]], "closure": False},
    )
    cover = write(tmp_path, "cover.json", {"classes": [[0]]})
    for argv in (("dim", order), ("convert", "cover-to-ext", order, cover)):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {order}: transitivity fails at (0, 1, 2)\n"


def test_convert_cover_vertex_outside_pair_digraph_exits_2(capsys, tmp_path):
    chain = write(
        tmp_path,
        "chain.json",
        {"kind": "quasi", "n": 3, "pairs": [[0, 1], [1, 2]], "closure": True},
    )
    cover = write(tmp_path, "cover.json", {"classes": [[0, 9]]})
    code, out, err = invoke(capsys, "convert", "cover-to-ext", chain, cover)
    assert code == 2 and out == ""
    assert err == f"error: {cover}: vertex 9 outside 0..2\n"


def test_convert_cyclic_cover_class_is_a_violation(capsys, tmp_path):
    # both pairs of a 2-antichain lie below each other in its pair digraph
    order = write(tmp_path, "anti.json", {"kind": "quasi", "n": 2, "pairs": []})
    cover = write(tmp_path, "cover.json", {"classes": [[0, 1]]})
    code, out, err = invoke(capsys, "convert", "cover-to-ext", order, cover)
    assert code == 1 and out == ""
    assert err == "property violated: class (0, 1) holds cycle (0, 1)\n"


def test_out_may_name_the_input(capsys, crown):
    _, plain, _ = invoke(capsys, "dim", crown)
    code, out, err = invoke(capsys, "dim", crown, "--out", crown)
    assert (code, out, err) == (0, "", "")
    assert Path(crown).read_text() == plain


def test_refused_command_leaves_no_out_file(capsys, tmp_path, crown):
    result = tmp_path / "r.json"
    code, out, err = invoke(
        capsys, "dim", crown, "--budget", "-1", "--out", str(result)
    )
    assert code == 2 and out == ""
    assert err == "error: --budget must be at least 0, got -1\n"
    assert not result.exists()


def test_unwritable_out_is_usage_error(capsys, tmp_path, crown):
    result = tmp_path / "missing" / "r.json"
    code, out, err = invoke(capsys, "dim", crown, "--out", str(result))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot open {result}: ")


def test_reduce_pg_embedding(capsys, c3):
    code, out, _ = invoke(capsys, "reduce", "pg", c3)
    assert code == 0
    doc = json.loads(out)
    assert doc["order"]["n"] == 6
    assert len(doc["embedding"]) == 3


def test_reduce_pg_writes_only_orders_that_read_back(
    capsys, tmp_path, monkeypatch
):
    # the order has two elements per vertex: up to half the input limit
    # it reads back, one vertex more is refused before it is built
    import orderdim.cli as cli
    from orderdim.serialize import MAX_INPUT_N, order_from_payload

    half = MAX_INPUT_N // 2
    edgeless = {"kind": "digraph", "edges": []}
    code, out, _ = invoke(
        capsys, "reduce", "pg", write(tmp_path, "a.json", {**edgeless, "n": half})
    )
    assert code == 0
    assert order_from_payload(json.loads(out)["order"]).n == 2 * half
    monkeypatch.setattr(
        cli, "two_level_order", lambda g: pytest.fail("order built")
    )
    over = write(tmp_path, "b.json", {**edgeless, "n": half + 1})
    code, out, err = invoke(capsys, "reduce", "pg", over)
    assert code == 3 and out == "" and err.startswith("too large: ")


def test_verify_small_campaign_streams_certificates(capsys):
    code, out, err = invoke(capsys, "verify", "g0", "--n", "1")
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    assert lines and all(c["verified"] for c in lines)
    assert "all verified" in err


def test_verify_unknown_campaign(capsys):
    code, _, err = invoke(capsys, "verify", "nope")
    assert code == 2 and "unknown campaign" in err


@pytest.mark.parametrize("budget", ["0", "12"])
@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_verify_budget_stops_or_keeps_the_default_bytes(name, budget):
    # a budget stop must end the run with exit 3, never skip an instance
    # or redraw it
    proc = child(
        "-m", "orderdim.cli", "verify", name, "--budget", budget,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    if proc.returncode == 3:
        assert b"budget exceeded" in err and b"Traceback" not in err
    else:
        assert proc.returncode == 0, err.decode()
        assert hashlib.sha256(out).hexdigest() == CAMPAIGN_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_verify_n_below_the_least_size_is_usage_error(capsys, name):
    _, default, least = CAMPAIGNS[name]
    if default is None:
        # a campaign without a size bound reads no n, so it refuses any
        for n in (-1, least):
            code, out, err = invoke(capsys, "verify", name, "--n", str(n))
            assert code == 2 and out == "" and "takes no n" in err
        code, out, _ = invoke(capsys, "verify", name)
        assert code == 0 and out
        return
    for n in sorted({-1, least - 1}):
        code, out, err = invoke(capsys, "verify", name, "--n", str(n))
        assert code == 2 and out == "" and f"needs n >= {least}" in err
    code, out, _ = invoke(capsys, "verify", name, "--n", str(least))
    assert code == 0 and out


@pytest.mark.parametrize(
    "name", ["h1plus", "odim-eq-dicr", "roundtrip", "separators"]
)
def test_verify_refuses_enumeration_above_its_guard_at_once(capsys, name):
    # these campaigns enumerate every poset up to n; 7 would run every
    # smaller size first, 130,023 posets on 6 points among them
    t0 = time.perf_counter()
    code, out, err = invoke(capsys, "verify", name, "--n", "7")
    assert time.perf_counter() - t0 < 1
    assert code == 3 and out == ""
    assert err == "too large: poset enumeration guarded to n <= 6, got 7\n"
    assert invoke(capsys, "enumerate", "--n", "7") == (3, "", err)


def test_verify_output_bytes_are_seed_stable(tmp_path):
    a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    assert main(["verify", "cyclefree-extends", "--n", "4",
                 "--seed", "5", "--out", a]) == 0
    assert main(["verify", "cyclefree-extends", "--n", "4",
                 "--seed", "5", "--out", b]) == 0
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_usage_errors_from_argparse(capsys):
    assert run([]) == 2
    assert run(["frobnicate"]) == 2
    assert run(["dim"]) == 2


@pytest.mark.parametrize(
    "command, option", [("dim", "--out"), ("dicr", "--budget"), ("dicr", "--format")]
)
def test_double_dash_option_value_is_a_usage_error(
    capsys, crown, c3, command, option
):
    # argparse stores a value for --opt=-- (an empty list on 3.11), which
    # no handler may read
    argv = [command, crown if command == "dim" else c3, option + "=--"]
    assert _fast_parse(argv) is None
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"usage: orderdim {command} ")
    assert "Traceback" not in err


def test_removed_options_are_unknown(capsys, crown):
    for argv in (["dim", crown, "--method", "realizer"],
                 ["verify", "g0", "--exhaustive"]):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == "" and "unrecognized arguments" in err


# sha256 of json.dumps([exit code, stdout, stderr]) of each argv (the key,
# split on spaces) at 80 columns, recorded while every call built the full
# parser; argparse words its messages differently in other Python versions
SURFACE_DIGESTS = {
    "": "938afad2dea95c8c1a4ad4c5b130070ad4e654df7d10806184b1126988ef877e",
    "-h": "19a412e2e754269046d2a59a667dd44a1617d504b473aa1b9ca08d9df9292f47",
    "bogus": "7965d3a286366fbd06e6fef696d9b2d4ec45f9f37ca6fa8e35e0bbb1d45795b4",
    "dim -h": "5f94a7b158617c064b80c8f0f0e5f0b10ec3a7128de70b8efb890ebfd734608e",
    "dicr -h": "01187d1a81c4414b88728cea33950b1b14f37092d57793aaa24ece083fecb70e",
    "chrom -h": "f8a9914fbcdf1da6e720a0dca780dcdb170301bb1e2451840e5f9187e2c6ec4d",
    "reduce -h": "711adf02bb13c383da242139c05c554be17d6e78a218c4f70dc9007a017afda5",
    "convert -h": "f463f0bda647c06a447fb987608c5ed7f8b89433876ee46236d8cfa64f7f9a2e",
    "g0 -h": "99e2ab37fc7c26dea1c4a350a4cb67df88a273a7fd2cef89f7c7af0d2697b929",
    "hom -h": "6e3cd12c4c24786353ed97896e7cd606ed632acaabd91391bcaebf5cb44935f0",
    "gen -h": "01d95e01ed1542b393a3931099778df1d56da64d237c9da3bf1607b4f49a64b9",
    "enumerate -h": "a4bfb894e21b210bc91e05124077a13675f457c100fc2081d41fb4c85006e967",
    "verify -h": "5d5715fe85bd9b4310ddc384770f15c6781911fcdd6ecbea70e3d7f15b3021b7",
    "dim": "08ffb8ae3aa1448833d1c24b9949216e74aa72ece1fe118004ca4bd1261d98c4",
    "dicr": "3b282fa225dbf7a9ddc046252711909968b68527983c92cc63f1de6aea5b916e",
    "chrom": "8f08843d5a9308df3233d442ac74c70a870bb0bf633126943a64c63ee5ad5f61",
    "reduce": "3157b40e23a06f0df518e6f4072b68ba392eaf2224a3b056755a7092edf8a7c3",
    "convert": "8105e59476106d323f206ccd69a26b7791f1ec0303e752a9edffd98761380e1e",
    "g0": "f7491eedce8cc7318914199a6886af847c18182d5b331f79680e44ca78fe4977",
    "hom": "05da80a140237dd7f5ffba9344f350751d986244fc727a3ca46b651b792cb03e",
    "gen": "86e7f62652c061e3dba072346c70560c7301855242bf5f4fcc5313d8061da025",
    "verify": "f1deef69691ca0f8394d8d83b8f07b32a1c0deb090cc20120ac0df71685737de",
    "enumerate --n": "3f3b2a0bbcc67a0089054e6b33403e64ef4937cc18aba603d62ffb6caac9248a",
    "dim x.json --format yaml": "aaf57bc9b876433248263f5bd04121e4b01ddc005c893dd688145db9a04d7240",
    "--help": "19a412e2e754269046d2a59a667dd44a1617d504b473aa1b9ca08d9df9292f47",
    "-x": "938afad2dea95c8c1a4ad4c5b130070ad4e654df7d10806184b1126988ef877e",
    "dim --help x": "5f94a7b158617c064b80c8f0f0e5f0b10ec3a7128de70b8efb890ebfd734608e",
    "dim x --method realizer": "91657c00c415e41cf3477e505e86803d2f072e87de0ea647b32f624c65336e69",
    "verify g0 --exhaustive": "da0bc42c10d3589911b3972908e4f08a017a089038978970d77c17d9c75626a2",
    "gen crown --n 3 extra": "d7c1470a7f226bc5cc9a7baba8b47815a72f6b99de06383d2b67ae1ac9eb7c77",
}


def _surface(capsys, call):
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="digests recorded on Python 3.11"
)
def test_cli_surface_bytes_are_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for key, digest in SURFACE_DIGESTS.items():
        assert _surface(capsys, lambda: run(key.split())) == digest, key


def test_parse_matches_the_argparse_parser(capsys, monkeypatch):
    # every surface key is help or a usage error, which the fast path
    # leaves to argparse
    monkeypatch.setenv("COLUMNS", "80")
    for key in SURFACE_DIGESTS:
        argv = key.split()
        assert _fast_parse(argv) is None, key
        fast = _surface(capsys, lambda: run(argv))
        full = _surface(capsys, lambda: build_parser().parse_args(argv))
        assert fast == full, key
    for argv in (
        ["dim", "o.json", "--budget", "5", "--format", "text"],
        ["dim", "--budget", "5", "-"],
        ["dim", "o.json", "--bud=5", "--form", "text", "--out=-"],
        ["hom", "find", "g.json", "h.json"],
        ["hom", "check", "g.json", "h.json", "w.json", "--minimal"],
        ["hom", "--minimal", "find", "g.json", "h.json", "--budget", "7"],
        ["convert", "cover-to-ext", "o.json", "--out", "-", "c.json"],
        ["gen", "crown", "--n", "3", "--out", "c.json"],
        ["gen", "poset", "--p", "1e-1", "--seed", "1_0"],
        ["gen", "poset", "--se=3", "--p=0.5"],
        ["g0", "density", "--sigma", "2,3", "--depth", "1"],
        ["g0", "density", "--sig", "2,3"],
        ["enumerate"],
        ["verify", "g0", "--n", "2", "--seed", "4"],
        ["verify", "g0", "--n=2"],
        ["verify", "g0", "--budget=-5"],
    ):
        fast = _fast_parse(argv)
        assert fast is not None, argv
        assert vars(fast) == vars(build_parser().parse_args(argv)), argv
    # argparse gives hom's optional witness no value once an option
    # interrupts the positionals; the table reads such a line as argparse
    # reads it intermixed, which is its options-last form
    last = ["hom", "find", "g.json", "h.json", "w.json", "--minimal"]
    for argv in (
        ["hom", "find", "g.json", "h.json", "--minimal", "w.json"],
        ["hom", "find", "g.json", "--minimal", "h.json", "w.json"],
        ["hom", "find", "g.json", "h.json", "--min", "w.json"],
    ):
        assert vars(_fast_parse(argv)) == vars(_reference(argv))
        assert vars(_fast_parse(argv)) == vars(_fast_parse(last))
    # lines that argparse words an error or help for, or reads differently
    # across versions, reach it as typed
    for argv in (
        ["gen", "crown", "--n", "3", "extra"],
        ["gen", "crown", "--n=3", "--h"],
        ["dim", "o.json", "--format=yaml"],
        ["hom", "find", "g.json", "h.json", "--minimal="],
        ["hom", "find", "g.json", "h.json", "--m=x"],
        ["hom", "find", "g.json", "--budget", "h.json", "--bogus", "w"],
        ["hom", "find", "g.json", "--budget", "-5", "h.json", "w.json"],
        ["hom", "find", "g.json", "--", "h.json", "w.json"],
        ["hom", "find", "g.json", "--h", "h.json", "w.json"],
    ):
        assert _fast_parse(argv) is None, argv
        full = _outcome(capsys, lambda: build_parser().parse_args(argv))
        assert _outcome(capsys, lambda: _parse(argv)) == full, argv


def _outcome(capsys, parse):
    try:
        result = vars(parse())
    except SystemExit as exc:
        result = exc.code
    return result, capsys.readouterr()


def _reference(argv):
    """argparse's reading of argv: intermixed for hom, whose optional
    witness plain argparse leaves empty after an interleaved option."""
    if argv[:1] != ["hom"]:
        return build_parser().parse_args(argv)
    _, handler, arguments = SUBCOMMANDS["hom"]
    parser = argparse.ArgumentParser(prog="orderdim hom")
    for arg, kwargs in arguments:
        parser.add_argument(arg, **kwargs)
    parser.set_defaults(command="hom", handler=handler)
    return parser.parse_intermixed_args(argv[1:])


_FLAGS = sorted(
    {name for _, _, args in SUBCOMMANDS.values() for name, _ in args
     if name.startswith("-")}
)
_CHOICES = sorted(
    {c for _, _, args in SUBCOMMANDS.values() for _, kw in args
     for c in kw.get("choices", ())}
)
_JUNK = ("x.json", "-", "", "2,3", "1_0", "+2", " 3", "0x1", "2.5", "-0.5",
         "nan", "1e-3", "-1", "-x", "--", "-h", "--help", "--bogus")
_VALUES = st.one_of(
    st.integers(-3, 12).map(str),
    st.floats(-2, 2).map(repr),
    st.sampled_from(_CHOICES),
    st.sampled_from(_JUNK),
)
_PIECES = st.one_of(
    _VALUES,
    st.sampled_from(sorted(SUBCOMMANDS)),
    st.sampled_from(_FLAGS),
    # abbreviations of the flags
    st.sampled_from(sorted({f[:k] for f in _FLAGS for k in range(3, len(f))})),
    st.builds("{}={}".format, st.sampled_from(_FLAGS), _VALUES),
)


def _value_of(kwargs):
    if "choices" in kwargs:
        return st.sampled_from(kwargs["choices"])
    if kwargs.get("type") is int:
        return st.integers(0, 60).map(str)
    if kwargs.get("type") is float:
        return st.floats(0, 1).map(repr)
    return st.sampled_from(("x.json", "-", "2,3", "", "-x", "--n"))


@st.composite
def _plain_argv(draw):
    """A command line close to well-formed: its options anywhere among
    the positionals, a required one sometimes left out, and sometimes
    one random piece inserted."""
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    positionals, groups = [], []
    for name, kwargs in SUBCOMMANDS[command][2]:
        if not name.startswith("-"):
            if kwargs.get("nargs") != "?" or draw(st.booleans()):
                positionals.append(draw(_value_of(kwargs)))
        elif draw(st.booleans()):
            value = kwargs.get("action") != "store_true"
            groups.append([name, *([draw(_value_of(kwargs))] * value)])
    # slots[i] holds the options placed before positional i
    slots = [[] for _ in range(len(positionals) + 1)]
    for group in groups:
        slots[draw(st.integers(0, len(positionals)))] += group
    argv = [command, *slots[0]]
    for word, options in zip(positionals, slots[1:]):
        argv += [word, *options]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(_PIECES))
    return argv


def _items(args):
    # repr, so that a nan --p equals itself and 1 differs from 1.0 and True
    return sorted((key, repr(value)) for key, value in vars(args).items())


@settings(max_examples=600, deadline=None)
@given(st.one_of(
    _plain_argv(),
    # random pieces, after a subcommand or not
    st.builds(
        list.__add__,
        st.lists(st.sampled_from(sorted(SUBCOMMANDS)), max_size=1),
        st.lists(_PIECES, max_size=8),
    ),
))
@example(["hom", "find", "g.json", "h.json", "--minimal", "w.json"])
@example(["gen", "poset", "--p", "nan"])
def test_fast_parse_accepts_only_what_argparse_parses_alike(argv):
    fast = _fast_parse(argv)
    if fast is None:
        return
    try:
        full = _reference(argv)
    except SystemExit as exc:
        pytest.fail(f"argparse exits {exc.code} on {argv}")
    assert _items(fast) == _items(full), argv


_HOM_OPTIONS = st.sampled_from((
    ("--minimal",), ("--min",), ("--format", "text"), ("--format=json",),
    ("--budget", "5"), ("--bud", "0"), ("--budget=7",), ("--out", "o.json"),
))


@st.composite
def _interleaved_hom_argv(draw):
    """A well-formed hom line with its options among its positionals, in
    full, abbreviated or with =value, and the same line options last."""
    positionals = [
        "hom",
        draw(st.sampled_from(("find", "check"))),
        "g.json",
        "h.json",
        *draw(st.lists(st.just("w.json"), max_size=1)),
    ]
    groups = draw(st.lists(_HOM_OPTIONS, min_size=1, max_size=4))
    argv = positionals[:1]
    slots = [draw(st.integers(1, len(positionals))) for _ in groups]
    for i, word in enumerate(positionals[1:], 1):
        for slot, group in zip(slots, groups):
            if slot == i:
                argv += group
        argv.append(word)
    for slot, group in zip(slots, groups):
        if slot == len(positionals):
            argv += group
    # options keep their order, which decides between repeated ones
    placed = sorted(zip(slots, range(len(groups))))
    return argv, positionals + [w for _, i in placed for w in groups[i]]


@settings(max_examples=300, deadline=None)
@given(_interleaved_hom_argv())
@example((
    ["hom", "check", "g.json", "h.json", "--budget", "5", "w.json"],
    ["hom", "check", "g.json", "h.json", "w.json", "--budget", "5"],
))
def test_both_parsers_read_interleaved_hom_lines_options_last(lines):
    argv, last = lines
    fast = _fast_parse(argv)
    assert fast is not None, argv
    assert _items(fast) == _items(build_parser().parse_args(last)), argv
    assert _items(fast) == _items(_reference(argv)), argv


def test_closed_stdout_pipe_exits_two():
    proc = child(
        "-m", "orderdim.cli", "enumerate", "--n", "6",
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 2
    assert "Traceback" not in err and "pipe" in err


@pytest.mark.parametrize(
    "argv", [("enumerate", "--n", "6"), ("verify", "g0")]
)
def test_closed_pipe_shared_with_stderr_exits_two(argv):
    # stderr on the same closed pipe: the closing message cannot be
    # written either, and must not raise a second time
    proc = child(
        "-m", "orderdim.cli", *argv,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    assert proc.wait(timeout=120) == 2


def test_cold_imports_skip_dataclasses_and_campaigns(tmp_path, crown, c3):
    # a cold process pays for every module it imports; only `verify`
    # needs the campaigns, and no record type needs dataclasses
    for code in (
        "import orderdim.cli, sys; "
        "assert 'dataclasses' not in sys.modules; "
        "assert 'orderdim.campaigns' not in sys.modules",
        "import orderdim, sys; assert 'dataclasses' not in sys.modules",
    ):
        proc = child("-c", code, stderr=subprocess.PIPE)
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
    # a well-formed request loads only what its subcommand runs, and not
    # argparse, which only help and usage errors need
    chain = write(
        tmp_path, "chain.json",
        {"kind": "quasi", "n": 3, "pairs": [[0, 1], [0, 2], [1, 2]]},
    )
    cover = write(tmp_path, "cover.json", {"classes": [[0, 1, 2]]})
    witness = write(
        tmp_path, "w.json", {"kind": "homwitness", "map": [0, 1, 2]}
    )
    code = (
        "import sys; from orderdim.cli import main; "
        "code = main(sys.argv[2:]); "
        "loaded = [m for m in sys.argv[1].split(',') if m in sys.modules]; "
        "assert code == 0 and not loaded, (code, loaded)"
    )
    light = ("check", "generate", "rng", "selectors", "campaigns")
    for argv, skipped in (
        (["dim", crown], light),
        (["dicr", c3], light),
        (["reduce", "ap", crown], light),
        (["convert", "cover-to-ext", chain, cover], light),
        (["g0", "selector", "--sigma", "2,2"], light[:3] + light[4:]),
        (["dim", crown, "--form", "text"], light),
        (["hom", "find", c3, c3], light),
        (["hom", "check", c3, c3, "--bud=100000", witness], light),
        (["gen", "crown", "--n", "3"], ("check", "selectors", "campaigns")),
        (["enumerate", "--n", "2"], ("check", "selectors", "campaigns")),
        (["verify", "g0", "--n", "1"], ()),
    ):
        names = ",".join(
            ["argparse", "gettext", *(f"orderdim.{m}" for m in skipped)]
        )
        proc = child(
            "-c", code, names, *argv,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, (argv, err.decode())
        assert out
    proc = child(
        "-c",
        "import sys; from orderdim.cli import main; "
        "assert main(['dim', '-h']) == 0 and 'argparse' in sys.modules",
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err.decode()
    assert out.startswith(b"usage: orderdim dim")


def test_import_does_not_load_numpy():
    proc = child(
        "-c", "import orderdim, sys; assert 'numpy' not in sys.modules",
        stderr=subprocess.PIPE,
    )
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err.decode()
