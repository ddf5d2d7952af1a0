import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from blockslide import (
    Graph,
    InvalidParamsError,
    Reason,
    Verdict,
    parse_instance,
    render_instance,
)
import blockslide.fuzz as fuzz_mod
from blockslide.cli import main
from conftest import disjoint_union


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


PATH3 = "p 3 2\ne 1 2\ne 2 3\ns 1\nt 3\n"
STAR = "p 4 3\ne 1 2\ne 1 3\ne 1 4\ns 2 3\nt 2 4\n"
C4 = "p 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\ns 1\nt 2\n"


def write(tmp_path, text, name="inst.ts"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_decide_yes(tmp_path):
    code, out = run(["decide", write(tmp_path, PATH3)])
    assert code == 0
    assert out.splitlines() == ["YES", "reason: reachable"]


def test_decide_no(tmp_path):
    code, out = run(["decide", write(tmp_path, STAR)])
    assert code == 0
    assert out.splitlines()[0] == "NO"
    assert "component-count-mismatch" in out


def test_decide_non_block_graph_exit_3(tmp_path):
    code, out = run(["decide", write(tmp_path, C4)])
    assert code == 3


def test_missing_file_exit_2():
    code, out = run(["decide", "/nonexistent/input.ts"])
    assert code == 2


def test_malformed_file_exit_2(tmp_path):
    code, out = run(["decide", write(tmp_path, "p 2 0\ns 1\n")])
    assert code == 2


def test_repeated_token_vertex_exit_2(tmp_path, capsys):
    code, out = run(["decide", write(tmp_path, "p 3 2\ne 1 2\ne 2 3\ns 1 1\nt 3\n")])
    assert code == 2
    assert out == ""
    assert "line 4" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("p 3 2\ne 1 2\ne 3 3\ns 1\nt 1\n", "line 3: self-loop at vertex 3"),
    ("p 3 2\ne 2 3\ne 3 2\ns 1\nt 1\n", "line 3: duplicate edge (2, 3)"),
    ("p 3 2\ne 1 1\ne 2 3\ns 1 1\nt 1\n", "line 2: self-loop at vertex 1"),
    ("p 3 2\ne 1 2\ne 2 9\ns 1\nt 1\n", "line 3: vertex 9 out of range for graph with 3 vertices"),
])
def test_edge_fault_exit_2_names_its_line(tmp_path, capsys, text, message):
    code, out = run(["decide", write(tmp_path, text)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_token_out_of_range_exit_2_names_its_line(tmp_path, capsys):
    """The token's line is reported, not the unknown tag after it."""
    code, out = run(["decide", write(tmp_path, "p 3 0\ns 9\nq\n")])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "error: line 2: vertex 9 out of range for graph with 3 vertices\n"
    )


def test_internal_error_exit_4_under_optimize(tmp_path):
    """Under python -O a contradictory Verdict still raises InternalError,
    and the CLI maps it to exit code 4."""
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import sys\n"
        "if __debug__:\n"
        "    sys.exit('not running under -O')\n"
        "import blockslide.cli as cli\n"
        "from blockslide import Reason, Verdict\n"
        "cli.decide = lambda g, c1, c2: Verdict(True, Reason.RIGID_MISMATCH)\n"
        "sys.exit(cli.main(['decide', sys.argv[1]]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", script, write(tmp_path, PATH3)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 4, result.stderr
    assert "internal error" in result.stderr


def test_potentials_output(tmp_path):
    code, out = run(["potentials", write(tmp_path, PATH3)])
    assert code == 0
    assert out.splitlines() == [
        "pot B0->2 = 0 ua=1 d=0",
        "pot 2->B0 = 1 ua=1 d=1",
        "pot B1->2 = 1 ua=1 d=0",
        "pot 2->B1 = 0 ua=1 d=1",
    ]


def test_potentials_target_set(tmp_path):
    code, out = run(["potentials", "--set", "target", write(tmp_path, PATH3)])
    assert code == 0
    assert out.splitlines()[0] == "pot B0->2 = 1 ua=1 d=0"


def test_potentials_disconnected(tmp_path):
    text = "p 6 4\ne 1 2\ne 2 3\ne 4 5\ne 5 6\ns 1 4\nt 3 6\n"
    code, out = run(["potentials", write(tmp_path, text)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# component 0"
    assert "# component 1" in lines
    # second component's labels stay in the original 1-based numbering
    assert any(line.startswith("pot B0->5") for line in lines)


# Three components with interleaved ids: the path 1-4-7-9, the triangle
# 2-5-8 with the pendant 3, and the isolated vertex 6.  Globally the path's
# blocks are B0, B3 and B5 and the triangle's B1 and B2; each component
# numbers its own blocks from 0.
INTERLEAVED = "p 9 7\ne 1 4\ne 4 7\ne 7 9\ne 2 5\ne 2 8\ne 5 8\ne 5 3\ns 1 9 8\nt 4 3 2\n"

INTERLEAVED_SOURCE = """\
# component 0
pot B0->4 = 0 ua=1 d=0
pot 4->B0 = 0 ua=0 d=3
pot B1->4 = 0 ua=0 d=2
pot 4->B1 = 0 ua=1 d=1
pot B1->7 = 0 ua=0 d=2
pot 7->B1 = 0 ua=1 d=1
pot B2->7 = 0 ua=1 d=0
pot 7->B2 = 0 ua=0 d=3
# component 1
pot B0->5 = 0 ua=1 d=0
pot 5->B0 = 1 ua=1 d=1
pot B1->5 = 1 ua=1 d=0
pot 5->B1 = 0 ua=1 d=1
# component 2
"""

INTERLEAVED_TARGET = """\
# component 0
pot B0->4 = 1 ua=1 d=0
pot 4->B0 = 1 ua=0 d=3
pot B1->4 = 1 ua=0 d=2
pot 4->B1 = 1 ua=1 d=1
pot B1->7 = 0 ua=0 d=2
pot 7->B1 = 1 ua=1 d=1
pot B2->7 = 1 ua=1 d=0
pot 7->B2 = 0 ua=0 d=3
# component 1
pot B0->5 = 0 ua=1 d=0
pot 5->B0 = 0 ua=1 d=1
pot B1->5 = 0 ua=1 d=0
pot 5->B1 = 0 ua=1 d=1
# component 2
"""


def test_potentials_disconnected_golden(tmp_path):
    path = write(tmp_path, INTERLEAVED)
    assert run(["potentials", path]) == (0, INTERLEAVED_SOURCE)
    assert run(["potentials", "--set", "target", path]) == (0, INTERLEAVED_TARGET)


def test_potentials_copies_no_subgraph(tmp_path, monkeypatch):
    """One decomposition of the whole graph serves every component."""
    def induced(self, vertices):
        raise AssertionError("potentials copied a subgraph")

    monkeypatch.setattr(Graph, "induced", induced)
    assert run(["potentials", write(tmp_path, INTERLEAVED)]) == (0, INTERLEAVED_SOURCE)


GOLDEN = Path(__file__).parent / "golden"


def test_golden_instances_are_what_they_claim():
    """gen-seed5.ts is `blockslide gen --seed 5 --blocks 14 --max-clique 5
    --tokens 5`, and union-seed5-seed6.ts the disjoint union of it and the
    same command's output for seed 6."""
    def gen(seed):
        return run(["gen", "--seed", str(seed), "--blocks", "14", "--max-clique", "5",
                    "--tokens", "5"])[1]

    assert gen(5) == (GOLDEN / "gen-seed5.ts").read_text()
    union = disjoint_union([parse_instance(gen(5)), parse_instance(gen(6))])
    assert render_instance(union) == (GOLDEN / "union-seed5-seed6.ts").read_text()


@pytest.mark.parametrize("name", ["gen-seed5", "union-seed5-seed6"])
@pytest.mark.parametrize("which", ["source", "target"])
def test_potentials_golden_bytes(name, which):
    """The lines of instances whose pair ids, the rooted order, are far
    from the printed canonical order, byte for byte as they were printed
    when ids were canonical."""
    path = str(GOLDEN / f"{name}.ts")
    expected = (GOLDEN / f"{name}.{which}.out").read_text()
    assert run(["potentials", "--set", which, path]) == (0, expected)


def test_potentials_rejects_non_block_graph(tmp_path):
    code, out = run(["potentials", write(tmp_path, C4)])
    assert code == 3


def test_oracle_yes_no(tmp_path):
    code, out = run(["oracle", write(tmp_path, PATH3)])
    assert (code, out.strip()) == (0, "YES")
    code, out = run(["oracle", write(tmp_path, STAR)])
    assert (code, out.strip()) == (0, "NO")


def test_oracle_unknown(tmp_path):
    code, out = run(["oracle", "--max-states", "1", write(tmp_path, PATH3)])
    assert (code, out.strip()) == (0, "UNKNOWN")


def test_gen_emits_valid_instance(tmp_path):
    code, out = run(["gen", "--seed", "5", "--blocks", "4", "--tokens", "2"])
    assert code == 0
    from blockslide import is_block_graph, parse_instance

    inst = parse_instance(out)
    assert is_block_graph(inst.graph)
    assert len(inst.source) == len(inst.target)


def test_gen_deterministic():
    a = run(["gen", "--seed", "9"])
    b = run(["gen", "--seed", "9"])
    assert a == b


def test_gen_then_decide(tmp_path):
    _, text = run(["gen", "--seed", "3", "--blocks", "3", "--tokens", "2"])
    code, out = run(["decide", write(tmp_path, text)])
    assert code == 0
    assert out.splitlines()[0] in ("YES", "NO")


def test_fuzz_clean_run():
    code, out = run(["fuzz", "--count", "25"])
    assert code == 0
    assert out.strip() == "25/25 ok"


def test_fuzz_detects_corrupted_solver(tmp_path, monkeypatch):
    """Sabotage the decision procedure; the fuzz loop must catch it."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(
        fuzz_mod, "decide", lambda g, c1, c2: Verdict(True, Reason.REACHABLE, {})
    )
    code, out = run(["fuzz", "--count", "40"])
    assert code == 1
    assert "failed" in out
    dumps = list(tmp_path.glob("fuzz-failure-seed*.ts"))
    assert len(dumps) == 1
    assert dumps[0].read_text().startswith("# fuzz seed")


def test_fuzz_negative_max_tokens_exit_2(tmp_path, monkeypatch, capsys):
    """A bad envelope is an input error (exit 2), never reported with the
    exit code of a fuzz failure, and no instance is generated or dumped."""
    monkeypatch.chdir(tmp_path)
    assert run(["fuzz", "--count", "2", "--max-tokens", "-1"]) == (2, "")
    assert "max_tokens must be nonnegative" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_fuzz_negative_count_exit_2(capsys):
    """A negative count is an input error, not a clean run of no seeds."""
    assert run(["fuzz", "--count", "-5"]) == (2, "")
    assert "count must be nonnegative" in capsys.readouterr().err


def test_gen_negative_tokens_exit_2(capsys):
    """A negative token count is an input error, not an instance with empty
    token sets."""
    assert run(["gen", "--tokens", "-1"]) == (2, "")
    assert "token_count must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("max_blocks", 0), ("max_clique", 1), ("max_tokens", -1),
    ("max_vertices", -3), ("max_vertices", 3),
])
def test_fuzz_envelope_rejects_bad_bounds(field, value):
    with pytest.raises(InvalidParamsError):
        fuzz_mod.FuzzEnvelope(**{field: value})


def test_fuzz_envelope_honours_max_vertices():
    """A single block of max_clique vertices is the smallest graph the
    generator shrinks to, so max_vertices may go down to max_clique."""
    env = fuzz_mod.FuzzEnvelope(max_clique=4, max_vertices=4)
    assert all(fuzz_mod.gen_fuzz_instance(seed, env).graph.n <= 4 for seed in range(40))


def test_fuzz_max_vertices_below_max_clique_exit_2(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["fuzz", "--count", "3", "--max-vertices", "-1"]) == (2, "")
    assert "max_vertices must be at least max_clique" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
