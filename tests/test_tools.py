import importlib.util
import os
import pathlib

import numpy as np
import pytest

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"

# docstrings, comments and blank lines are not code; a multi-line
# expression and a string that is not a docstring count every line they
# span: 9 code lines
SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a trailing comment


class C:
    """Class docstring."""

    x = 1


def f(x):
    """Function docstring."""
    # a comment line
    y = (x +
         1)

    s = """not a docstring,
spanning two lines"""
    return y, s
'''


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_counts_code_only():
    assert load_tool("code_lines").code_lines(SNIPPET) == 9


def test_code_lines_compares_two_checkouts(tmp_path, capsys):
    # ROOT then PARENT: each module's parent count, root count and change,
    # a module on one side only counting 0 on the other, then the totals
    def checkout(name, modules):
        package = tmp_path / name / "src" / "bubbledyn"
        package.mkdir(parents=True)
        for module, source in modules.items():
            (package / module).write_text(source)
        return str(tmp_path / name)

    parent = checkout("parent", {"a.py": SNIPPET, "b.py": "x = 1\ny = 2\n"})
    root = checkout("root", {"a.py": SNIPPET + "z = 3\n", "c.py": "w = 4\n"})
    load_tool("code_lines").main(["code_lines.py", root, parent])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    a, b, c = (os.path.join("src", "bubbledyn", m) for m in ("a.py", "b.py", "c.py"))
    assert rows == [["9", "10", "+1", a], ["2", "0", "-2", b], ["0", "1", "+1", c],
                    ["11", "11", "+0", "total"]]


def test_package_has_no_dead_names(capsys):
    # no function of the package assigns a name that it never reads
    root = str(TOOLS.parent)
    assert load_tool("dead_names").main(["dead_names.py", root]) == 0
    assert capsys.readouterr().out == ""


def test_dead_names_finds_a_name_never_read():
    # a name read only by a nested scope, an augmented assignment's target,
    # a global and a name led by "_" are not dead; an unpacked name never
    # read is
    source = '''
def f(x, out):
    a, dead = x
    used = a + 1
    out += used
    _skipped = 2
    global g
    g = 3
    return lambda: [used * k for k in range(2)]
'''
    assert load_tool("dead_names").dead_names(source) == [(3, "f", "dead")]


def test_same_outputs_runs_two_more_walls(tmp_path):
    # the workload draws and shipped scenarios, then two_bubble_cavity in a
    # wall off the origin and in the L1 icosphere of radius 4 read from an
    # OFF file, written into the run's directory; nothing is run
    import json
    from bubbledyn.shapes import load_off, reference_icosphere
    runs = load_tool("same_outputs").scenarios(str(tmp_path))
    assert len(runs) == 16
    names = [name for name, _, _ in runs]
    assert names[-4:] == ["single_bubble", "two_bubble_cavity",
                          "two_bubble_cavity off-centre", "two_bubble_cavity off-file"]
    with open(runs[-3][1]) as fh:
        shipped = json.load(fh)
    docs = []
    for _, path, args in runs[-2:]:
        assert args == ["--residual-cadence", "3"]
        with open(path) as fh:
            docs.append(json.load(fh))
        assert {k: v for k, v in docs[-1].items() if k != "domain"} == {
            k: v for k, v in shipped.items() if k != "domain"}
    assert docs[0]["domain"] == {"type": "cavity_sphere", "center": [0.3, -0.2, 0.1],
                                 "radius": 3.6}
    assert docs[1]["domain"]["type"] == "cavity_mesh"
    off = docs[1]["domain"]["path"]
    assert os.path.dirname(off) == str(tmp_path)
    verts, faces = reference_icosphere(1)
    wall = load_off(off)
    assert np.array_equal(wall.vertices, 4.0 * verts)
    assert np.array_equal(wall.triangles, faces)


def test_same_outputs_reads_roundoff_against_the_trajectory_scale():
    # two synthetic trajectories, no runs: a column zero by symmetry
    # (roundoff on both sides) is compared against the largest bubble
    # parameter, and a relative change in a nonzero column reads as itself
    import re
    difference = load_tool("same_outputs").difference
    header = "t,b0_cx,b0_cz,b0_r,b0_vcx,b0_vcz,b0_vr,energy_total\n"

    def csv(cz, r):
        rows = [f"{t},0.5,{cz},{r * (1 + t)},0.1,0.0,0.2,3.0\n" for t in (0.0, 0.5)]
        return (header + "".join(rows)).encode()

    def read(text):
        found = re.fullmatch(r"largest column-relative difference (\S+) \((\w+)\)", text)
        return float(found[1]), found[2]

    base = csv(6.7e-17, 1.25)
    assert read(difference(base, base)) == (0.0, "t")
    worst, _ = read(difference(base, csv(-2.6e-17, 1.25)))
    assert worst <= 1e-12
    worst, where = read(difference(base, csv(-2.6e-17, 1.25 * (1 + 1e-9))))
    assert where == "b0_r" and worst == pytest.approx(1e-9, rel=1e-3)


def test_rhs_cost_prints_every_layer_at_level_0(capsys):
    # one round of one call per layer, both pair workloads at level 0: a
    # header, then five rows (three timings, two call counts) per workload
    assert load_tool("rhs_cost").main(["rhs_cost.py", "--levels", "0", "--reps", "1",
                                       "--calls", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["workload", "level", "quantity", "value"]
    rows = [line.split() for line in lines[1:]]
    assert [(r[0], r[1], r[2]) for r in rows] == [
        (name, "L0", quantity) for name in ("ellipsoid_pair_l1", "cavity_pair_l1")
        for quantity in ("added_mass", "_velocity_rates", "rhs", "calls/contraction",
                         "calls/added_mass")]
    assert all(r[3] == "ms" for r in rows if not r[2].startswith("calls"))
    assert all(float(r[-1]) > 0.0 for r in rows)


@pytest.mark.parametrize("tool", ["rhs_cost", "same_outputs"])
def test_help_prints_usage_and_runs_nothing(tool, monkeypatch, capsys):
    # --help is an option, not a checkout: the usage text, exit 0, and no
    # interpreter started
    import subprocess

    def refused(*args, **kwargs):
        raise AssertionError("an interpreter was started")

    monkeypatch.setattr(subprocess, "run", refused)
    monkeypatch.setattr(subprocess, "Popen", refused)
    with pytest.raises(SystemExit) as exit_:
        load_tool(tool).main([f"{tool}.py", "--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: {tool}.py") and "PARENT" in out
