import hashlib
import io
import re
import sys

import pytest

from hublab.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_gen_hypercube(capsys, tmp_path):
    rc, out, _ = run(capsys, "gen", "hypercube", "--d", "2")
    assert rc == 0
    assert out.startswith("# hypercube d=2\n4 4\n")


def test_pipeline_subset(capsys, tmp_path):
    gpath = str(tmp_path / "h2.g")
    lpath = str(tmp_path / "h2.hl")
    assert run(capsys, "gen", "hypercube", "--d", "2", "--out", gpath)[0] == 0
    rc, out, _ = run(
        capsys, "build", "--scheme", "subset-hhl", "--graph", gpath, "--out", lpath
    )
    assert rc == 0 and "size 9" in out
    rc, out, _ = run(
        capsys, "verify", "--graph", gpath, "--labels", lpath, "--hierarchy"
    )
    assert rc == 0
    assert "cover: OK" in out
    assert "hierarchical: yes" in out
    assert "size: 9" in out


def test_build_from_stdin(capsys, tmp_path, monkeypatch):
    from hublab.graph import hypercube, serialize_graph

    monkeypatch.setattr(sys, "stdin", io.StringIO(serialize_graph(hypercube(2))))
    lpath = str(tmp_path / "out.hl")
    rc, out, _ = run(
        capsys, "build", "--scheme", "halfsplit-hl", "--graph", "-", "--out", lpath
    )
    assert rc == 0 and "size 12" in out


def test_query_halfsplit(capsys, tmp_path):
    gpath = str(tmp_path / "h2.g")
    lpath = str(tmp_path / "h2.hl")
    run(capsys, "gen", "hypercube", "--d", "2", "--out", gpath)
    run(capsys, "build", "--scheme", "halfsplit-hl", "--graph", gpath, "--out", lpath)
    rc, out, _ = run(capsys, "query", "--labels", lpath, "--s", "0", "--t", "3")
    assert rc == 0 and out.strip() == "2"


def test_query_no_common_hub(capsys, tmp_path):
    lpath = str(tmp_path / "bad.hl")
    lpath_file = tmp_path / "bad.hl"
    lpath_file.write_text("HL 2\n0 1 0 0\n1 1 1 0\n")
    rc, out, _ = run(capsys, "query", "--labels", lpath, "--s", "0", "--t", "1")
    assert rc == 1 and "no common hub" in out


def test_verify_detects_invalid(capsys, tmp_path):
    gpath = tmp_path / "h1.g"
    gpath.write_text("# hypercube d=1\n2 1\n0 1\n")
    lpath = tmp_path / "bad.hl"
    lpath.write_text("HL 2\n0 1 0 0\n1 1 1 0\n")
    rc, out, _ = run(capsys, "verify", "--graph", str(gpath), "--labels", str(lpath))
    assert rc == 1
    assert "cover: FAIL" in out
    assert "violation: 0 1" in out


def test_verify_sample_must_be_positive(capsys, tmp_path):
    from hublab.constructions import subset_hhl
    from hublab.graph import hypercube
    from hublab.labeling import Labeling, save_labeling

    # hub 0 removed from L(7): the pair (0, 7) has no common hub left
    g = hypercube(3)
    labels = [list(label) for label in subset_hhl(3, graph=g).labels]
    labels[7] = [p for p in labels[7] if p[0] != 0]
    gpath, lpath = str(tmp_path / "h3.g"), str(tmp_path / "broken.hl")
    run(capsys, "gen", "hypercube", "--d", "3", "--out", gpath)
    save_labeling(Labeling(labels, fingerprint=g.fingerprint()), lpath)
    rc, out, _ = run(capsys, "verify", "--graph", gpath, "--labels", lpath)
    assert rc == 1 and "violation: 0 7" in out
    for bad in ("0", "-5"):
        rc, out, err = run(capsys, "verify", "--graph", gpath, "--labels", lpath, "--sample", bad)
        assert rc == 2 and "cover: OK" not in out and "--sample" in err


def test_verify_failing_text_is_pinned(capsys, tmp_path):
    from hublab.constructions import subset_hhl
    from hublab.graph import hypercube
    from hublab.labeling import Labeling, save_labeling

    # hub 0 removed from L(7); the sampled run draws (0, 7) 14 times and
    # reports it once
    g = hypercube(3)
    labels = [list(label) for label in subset_hhl(3, graph=g).labels]
    labels[7] = [p for p in labels[7] if p[0] != 0]
    gpath, lpath = str(tmp_path / "h3.g"), str(tmp_path / "broken.hl")
    run(capsys, "gen", "hypercube", "--d", "3", "--out", gpath)
    save_labeling(Labeling(labels, fingerprint=g.fingerprint()), lpath)
    rc, out, err = run(capsys, "verify", "--graph", gpath, "--labels", lpath)
    assert (rc, out, err) == (1, "cover: FAIL (1 violations)\n  violation: 0 7\nsize: 26\n", "")
    rc, out, err = run(capsys, "verify", "--graph", gpath, "--labels", lpath,
                       "--sample", "500", "--seed", "2")
    assert (rc, err) == (1, "")
    assert out == "cover: FAIL (1 violations)\n  violation: 0 7\nsize: 26\n"


def test_verify_sampled_empty_graph(capsys, tmp_path):
    gpath, lpath = tmp_path / "empty.g", tmp_path / "empty.hl"
    gpath.write_text("0 0\n")
    lpath.write_text("HL 0\n")
    for extra in ((), ("--sample", "3")):
        rc, out, err = run(capsys, "verify", "--graph", str(gpath), "--labels", str(lpath), *extra)
        assert rc == 0 and "cover: OK" in out and err == ""


def test_canonical_order_variants(capsys, tmp_path):
    gpath = str(tmp_path / "h2.g")
    run(capsys, "gen", "hypercube", "--d", "2", "--out", gpath)
    a = str(tmp_path / "a.hl")
    b = str(tmp_path / "b.hl")
    rc, out, _ = run(
        capsys, "build", "--scheme", "canonical", "--graph", gpath,
        "--out", a, "--order", "reverse-id",
    )
    assert rc == 0 and "size 9" in out
    rc, out, _ = run(
        capsys, "build", "--scheme", "canonical", "--graph", gpath,
        "--out", b, "--order", "random:7",
    )
    assert rc == 0 and "size 9" in out
    ofile = tmp_path / "order.txt"
    ofile.write_text("3\n2\n1\n0\n")
    rc, out, _ = run(
        capsys, "build", "--scheme", "canonical", "--graph", gpath,
        "--out", b, "--order", str(ofile),
    )
    assert rc == 0 and "size 9" in out


def test_order_file_skips_an_indented_comment(capsys, tmp_path):
    gpath = str(tmp_path / "h2.g")
    run(capsys, "gen", "hypercube", "--d", "2", "--out", gpath)
    ofile = tmp_path / "order.txt"
    ofile.write_text("  # note\n3\n\t# another\n2\n1\n0\n")
    rc, out, err = run(
        capsys, "build", "--scheme", "canonical", "--graph", gpath,
        "--out", str(tmp_path / "c.hl"), "--order", str(ofile),
    )
    assert rc == 0 and "size 9" in out and err == ""


def test_canonical_bad_orders_are_typed_errors(capsys, tmp_path):
    gpath = str(tmp_path / "h2.g")
    run(capsys, "gen", "hypercube", "--d", "2", "--out", gpath)
    out = str(tmp_path / "c.hl")
    bad = tmp_path / "bad.txt"
    bad.write_text("# least important first\n3\n\nx\n1\n0\n")
    short = tmp_path / "short.txt"
    short.write_text("2\n1\n0\n")
    for order, message in (
        ("random:x", "random: seed 'x' is not an integer"),
        (str(bad), "line 4: vertex 'x' is not an integer"),
        (str(short), "order covers 3 vertices"),
    ):
        rc, _, err = run(
            capsys, "build", "--scheme", "canonical", "--graph", gpath,
            "--out", out, "--order", order,
        )
        assert rc == 1 and message in err
        assert "invalid literal" not in err


def test_greedy_scheme(capsys, tmp_path):
    gpath = str(tmp_path / "h2.g")
    run(capsys, "gen", "hypercube", "--d", "2", "--out", gpath)
    lpath = str(tmp_path / "g.hl")
    rc, out, err = run(
        capsys, "build", "--scheme", "greedy", "--graph", gpath, "--out", lpath
    )
    assert rc == 0
    assert "iter 1:" in err  # progress goes to stderr


def test_greedy_refuses_q10_before_bfs(capsys, tmp_path, monkeypatch):
    import hublab.graph as graph

    def never(*args, **kwargs):
        raise AssertionError("a BFS row was computed")

    gpath = str(tmp_path / "h10.g")
    run(capsys, "gen", "hypercube", "--d", "10", "--out", gpath)
    monkeypatch.setattr(graph, "bfs_distances", never)
    rc, _, err = run(
        capsys, "build", "--scheme", "greedy", "--graph", gpath, "--out", str(tmp_path / "g.hl")
    )
    assert rc == 1
    # 1024 * 1024 * 1025 / 2 pair ids of 4 bytes
    assert err == "error: greedy_run(n=1024) needs 2149580800 store bytes; budget 536870912\n"


def test_canonical_random_order_file_is_pinned(capsys, tmp_path):
    # the bytes the subcube scan wrote for Q6 under the random:1 order
    gpath, lpath = str(tmp_path / "h6.g"), tmp_path / "c6.hl"
    run(capsys, "gen", "hypercube", "--d", "6", "--out", gpath)
    rc, out, _ = run(
        capsys, "build", "--scheme", "canonical", "--order", "random:1",
        "--graph", gpath, "--out", str(lpath),
    )
    assert rc == 0 and "size 729" in out
    assert hashlib.sha256(lpath.read_bytes()).hexdigest() == (
        "510dd2999491d3f443bda5d1b45ab9952a94ce79ea47cc5ef007a0a13854b2e8"
    )


def test_greedy_file_and_log_are_pinned(capsys, tmp_path):
    # the bytes the set-based greedy wrote for Q5, and its per-round log
    gpath, lpath = str(tmp_path / "h5.g"), tmp_path / "g5.hl"
    run(capsys, "gen", "hypercube", "--d", "5", "--out", gpath)
    rc, out, err = run(capsys, "build", "--scheme", "greedy", "--graph", gpath, "--out", str(lpath))
    assert rc == 0 and "size 228" in out
    assert hashlib.sha256(lpath.read_bytes()).hexdigest() == (
        "d090fd3d74d9d73e337725f6e9747a1734f9635f2d315e6752cffb2262b8ea92"
    )
    assert hashlib.sha256(err.encode()).hexdigest() == (
        "3d1e6744e5a42859212e664075dff40a08fe254166a93c8470d64cd448287fb3"
    )


def test_greedy_stuck_is_domain_error(capsys, tmp_path, monkeypatch):
    # a BFS that puts every vertex at distance 1 from itself leaves the
    # self-pairs without a covering center, which greedy must report; the
    # graph file has no hypercube header, so its path system runs BFS
    import hublab.graph as graph

    bfs_distances = graph.bfs_distances

    def self_at_one(g, s):
        row = bfs_distances(g, s)
        row[s] = 1
        return row

    monkeypatch.setattr(graph, "bfs_distances", self_at_one)
    gpath = tmp_path / "q2.g"
    gpath.write_text("4 4\n0 1\n0 2\n1 3\n2 3\n")
    rc, _, err = run(
        capsys, "build", "--scheme", "greedy", "--graph", str(gpath),
        "--out", str(tmp_path / "g.hl"),
    )
    assert rc == 1 and "uncovered" in err


def test_scheme_requires_hypercube(capsys, tmp_path):
    gpath = tmp_path / "p3.g"
    gpath.write_text("3 2\n0 1\n1 2\n")
    rc, _, err = run(
        capsys, "build", "--scheme", "subset-hhl", "--graph", str(gpath),
        "--out", str(tmp_path / "x.hl"),
    )
    assert rc == 1 and "hypercube" in err


def test_bounds_text_and_tsv(capsys):
    rc, out, _ = run(capsys, "bounds", "--d", "2")
    assert rc == 0 and "argmax k = 1" in out
    rc, tsv, _ = run(capsys, "bounds", "--d", "2", "--tsv")
    assert rc == 0
    lines = tsv.strip().splitlines()
    assert lines[0] == "k\tN_k\ty_star\tpsi"
    assert lines[1] == "0\t4\t1\t4"
    assert lines[2] == "1\t4\t3/2\t6"


def test_bounds_with_lp_and_oracle(capsys):
    rc, out, _ = run(capsys, "bounds", "--d", "1", "--lp", "--oracle")
    assert rc == 0
    assert "ROPT = 3" in out
    assert "LOPT = 3" in out
    assert "OPT = 3" in out


def test_bounds_lp_reports_ropt_d7(capsys):
    rc, out, _ = run(capsys, "bounds", "--d", "7", "--lp")
    assert rc == 0 and "ROPT = 6208/5" in out


def test_bounds_lp_reports_ropt_d8(capsys):
    rc, out, _ = run(capsys, "bounds", "--d", "8", "--lp")
    assert rc == 0 and "ROPT = 9728/3" in out
    assert "sandwich: max_k psi(k) = 1536 <= ROPT = 9728/3" in out


@pytest.mark.parametrize("d", [775, 1000])
def test_bounds_max_psi_past_the_float_range(capsys, d):
    # max psi passes 1.8e308 at d = 775; its approximation is still printed
    rc, out, _ = run(capsys, "bounds", "--d", str(d))
    assert rc == 0
    line = out.splitlines()[-1]
    assert re.fullmatch(r"argmax k = \d+, max psi = \d+/\d+ \(~\d(\.\d+)?e\+\d+\)", line), line


def test_bounds_deterministic(capsys):
    a = run(capsys, "bounds", "--d", "3", "--lp")
    b = run(capsys, "bounds", "--d", "3", "--lp")
    assert a == b


def test_oracle_command(capsys, tmp_path):
    gpath = str(tmp_path / "h2.g")
    run(capsys, "gen", "hypercube", "--d", "2", "--out", gpath)
    rc, out, _ = run(capsys, "oracle", "--graph", gpath, "--mode", "hl")
    assert rc == 0 and "optimum: 9" in out
    rc, out, _ = run(capsys, "oracle", "--graph", gpath, "--mode", "hhl-orders")
    assert rc == 0 and "optimum: 9" in out


def test_gap_report(capsys):
    rc, out, _ = run(capsys, "gap-report", "--d-max", "6", "--verify-max", "4")
    assert rc == 0
    assert "materialized+verified" in out
    assert "formula-only" in out
    assert "gap at d=6" in out


def test_gap_report_tsv_d12(capsys):
    rc, out, _ = run(
        capsys, "gap-report", "--d-max", "12", "--verify-max", "-1", "--tsv"
    )
    assert rc == 0
    last = out.strip().splitlines()[-1]
    assert last.split("\t")[:3] == ["12", "531441", "520192"]


def test_gap_report_rejects_empty_sample_and_negative_d_max(capsys):
    rc, out, err = run(capsys, "gap-report", "--d-max", "10", "--sample", "0")
    assert rc == 2 and "materialized+verified" not in out and "--sample" in err
    rc, out, err = run(capsys, "gap-report", "--d-max", "-1")
    assert rc == 2 and out == "" and "--d-max" in err


def test_usage_errors(capsys):
    assert run(capsys, "build", "--scheme", "nope", "--graph", "x", "--out", "y")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "bounds", "--d", "one")[0] == 2
    assert run(capsys, "bounds", "--d", "1", "--self-pairs", "off")[0] == 2


def test_missing_file_is_domain_error(capsys):
    rc, _, err = run(capsys, "query", "--labels", "/nonexistent", "--s", "0", "--t", "0")
    assert rc == 1 and "error:" in err


def test_budget_error(capsys):
    rc, _, err = run(capsys, "gen", "hypercube", "--d", "25")
    assert rc == 1 and "budget" in err
