"""Smoke tests for the example applications.

Examples are documentation that executes; these tests keep them from
rotting.  Each example's ``main()`` runs at reduced scale where the script
supports it.
"""

import importlib.util
import pathlib
import sys

import pytest

_EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(name, _EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_quickstart(self, capsys):
        module = load_example("quickstart")
        module.main()
        out = capsys.readouterr().out
        assert "H(x)" in out
        assert "verification        : OK" in out

    def test_network_forks(self, capsys):
        module = load_example("network_forks")
        module.main()
        out = capsys.readouterr().out
        fork = next(line for line in out.splitlines()
                    if line.startswith("after gossip (equal-work fork)"))
        assert "converged=False" in fork
        assert "converged=True" in out
        assert "reorgs=1" in out

    def test_inverted_benchmarking_small(self, capsys):
        module = load_example("inverted_benchmarking")
        module.main(4)
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "Figure 3" in out
        assert "<- Leela" in out

    def test_mining_simulation_parts(self, capsys):
        module = load_example("mining_simulation")
        module.real_mining()
        module.network_study()
        out = capsys.readouterr().out
        assert "chain height 3" in out
        assert "revenue shares" in out

    @pytest.mark.slow
    def test_asic_advantage(self, capsys):
        module = load_example("asic_advantage")
        module.main()
        out = capsys.readouterr().out
        assert "sha256d" in out
        assert "hashcore" in out

    def test_cryptocurrency(self, capsys):
        module = load_example("cryptocurrency")
        module.main()
        out = capsys.readouterr().out
        assert "block accepted at height 1" in out
        assert "replay rejected" in out

    def test_chaos_scenario(self, capsys):
        module = load_example("chaos_scenario")
        module.main()
        out = capsys.readouterr().out
        assert "round-trip OK" in out
        assert "violations=[] converged=True" in out
        assert "byte-identical report on replay: True" in out
