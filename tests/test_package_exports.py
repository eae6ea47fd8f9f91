"""Package exports: each ``repro`` package ``__init__`` only names its
exports, and a name's defining module loads the first time it is read.

Two contracts:

* the export table: ``__all__`` is the table's names and the names the
  packages have always exported; every name resolves, ``dir()`` lists it,
  ``from package import *`` binds it, and an unknown name raises
  ``AttributeError``, so ``from package import submodule`` still works;
* the import set: what a miner, node or pool process imports loads none
  of the network simulator, the ASIC model, the baseline PoW functions or
  the suite workloads, and hashing loads no numpy.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Every package's ``__all__``, in order.
EXPORTED = {
    "repro": """
        HashCore HashCoreTrace HashGate HashSeed SeedField Widget WidgetResult
        hash_gate meets_target difficulty_to_target target_to_difficulty
        default_profile suite_profiles Machine MachineConfig ivy_bridge
        mobile_arm scalar_inorder modern_desktop preset PerformanceProfile
        profile_program profile_workload GeneratorParams WidgetGenerator
        WidgetPool SelectionHashCore RotatingHashCore SUITE get_workload Block
        BlockHeader Blockchain mine_block simulate_network Sha256d ScryptLike
        EquihashLike RandomXLike AsicModel PowTraits utilization_from_counters
        ReproError __version__
    """,
    "repro.analysis": """
        DistributionSummary summarize ascii_histogram gaussian_fit ks_distance
        CollisionReduction find_gate_collision_from_h_collision render_table
        HashrateEstimate estimate_hashrate rolling_hashrate
        CentralizationResult centralization_study gini histogram_svg
        save_histogram
    """,
    "repro.asicmodel": """
        Resource GPP_RESOURCES total_area total_power PowTraits AsicAdvantage
        AsicModel utilization_from_counters
    """,
    "repro.baselines": """
        Sha256d ScryptLike EquihashLike RandomXLike
    """,
    "repro.blockchain": """
        merkle_root merkle_proof verify_proof Block BlockHeader
        GENESIS_PREV_HASH RetargetSchedule next_compact_target Blockchain
        block_id MinedBlock mine_block mine_header NetworkResult
        simulate_network Node ReceiveResult LinkFaults Partition Crash
        ByzantinePeer Scenario random_scenario ChaosNetwork ChaosReport
        ChaosRunner InvariantChecker LamportKeyPair Wallet Transaction
        BLOCK_REWARD Account Ledger Mempool fee_rate BlockStore encode_block
        decode_block
    """,
    "repro.core": """
        HASH_GATE_BYTES HashGate hash_gate HashSeed SeedField Widget
        WidgetResult HashCore HashCoreTrace RotatingHashCore SelectionHashCore
        MAX_TARGET PowFunction compact_to_target difficulty_to_target
        meets_target target_to_compact target_to_difficulty
    """,
    "repro.isa": """
        NUM_FP_REGS NUM_INT_REGS NUM_VEC_REGS VEC_LANES OpClass Opcode
        opcode_class opcode_name Instruction Program INSTRUCTION_SIZE
        encode_instruction decode_instruction encode_program decode_program
        assemble disassemble ProgramBuilder
    """,
    "repro.machine": """
        EXECUTION_MODES CacheConfig MachineConfig AlwaysTakenPredictor
        BimodalPredictor GsharePredictor make_predictor Cache CacheHierarchy
        Memory PerfCounters ExecutionResult Machine EnergyBreakdown
        EnergyModel EnergyParams
    """,
    "repro.pool": """
        BatchVerifier ChainTemplateSource ClientSession ClientStats Job
        JobManager MAX_LINE_BYTES PPLNSWindow PoolClient PoolConfig
        PoolProtocolError PoolServer PoolStats StaticTemplateSource Vardiff
        VardiffConfig VerifierStats
    """,
    "repro.profiling": """
        PerformanceProfile profile_program profile_workload
    """,
    "repro.widgetgen": """
        GeneratorParams BlockSpec GuardSpec LoopSpec WidgetSpec MemoryPlan
        plan_memory WidgetGenerator generate_spec compile_spec WidgetPool
    """,
    "repro.workloads": """
        MemoryDirective Workload WorkloadImage LeelaWorkload CompressWorkload
        MatrixWorkload GraphWorkload MediaWorkload SUITE get_workload
    """,
}

#: What the benchmark's miner, node and pool processes import.
PROCESS_IMPORTS = (
    "repro.core.hashcore",
    "repro.blockchain.mining_engine",
    "repro.blockchain.chain",
    "repro.blockchain.store",
    "repro.pool.server",
    "repro.pool.client",
)

#: Modules (and packages, with everything under them) those imports must
#: not load: no mining, verifying or pool path uses them.
NEVER_LOADED = (
    "repro.blockchain.sim",
    "repro.blockchain.faults",
    "repro.blockchain.gossip",
    "repro.blockchain.network",
    "repro.blockchain.node",
    "repro.asicmodel",
    "repro.baselines",
    "repro.workloads.leela",
    "repro.workloads.suite",
    "repro.isa.assembler",
)


def fresh_python(code: str) -> str:
    """Run ``code`` in a new interpreter importing ``repro`` from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True, timeout=60,
    ).stdout


@pytest.fixture(params=sorted(EXPORTED))
def package(request):
    return importlib.import_module(request.param)


class TestExportTable:
    def test_all_is_the_table_and_the_pinned_names(self, package):
        names = list(package._EXPORTS)
        if package.__name__ == "repro":
            names.append("__version__")
        assert package.__all__ == names
        assert package.__all__ == EXPORTED[package.__name__].split()

    def test_every_name_resolves_from_its_module(self, package):
        for name, module in package._EXPORTS.items():
            home = importlib.import_module(module, package.__name__)
            assert getattr(package, name) is getattr(home, name), name

    def test_dir_lists_every_name(self, package):
        assert set(package.__all__) <= set(dir(package))

    def test_star_import_binds_every_name(self, package):
        namespace: dict = {}
        exec(f"from {package.__name__} import *", namespace)
        for name in package.__all__:
            assert namespace[name] is getattr(package, name), name

    def test_unknown_name_raises_attribute_error(self, package):
        with pytest.raises(AttributeError, match="no_such_export"):
            package.no_such_export
        assert not hasattr(package, "no_such_export")

    def test_submodules_import_through_the_package(self, package):
        for info in pkgutil.iter_modules(package.__path__):
            if info.name in package._EXPORTS:
                continue
            namespace: dict = {}
            exec(f"from {package.__name__} import {info.name}", namespace)
            assert namespace[info.name] is sys.modules[
                f"{package.__name__}.{info.name}"
            ]

    def test_hash_gate_stays_the_function_after_its_module_loads(self):
        # ``repro.core.hash_gate`` names both a submodule and the gate
        # function the package exports; the function wins.
        out = fresh_python(
            "import repro.core, repro.core.hash_gate, sys\n"
            "module = sys.modules['repro.core.hash_gate']\n"
            "print(repro.core.hash_gate is module.hash_gate)\n"
        )
        assert out.split() == ["True"]


class TestProcessImports:
    def test_hash_chain_and_pool_imports_skip_unused_subsystems(self):
        out = fresh_python(
            f"import sys, {', '.join(PROCESS_IMPORTS)}\n"
            "print('\\n'.join(m for m in sys.modules if m.startswith('repro')))\n"
        )
        loaded = set(out.split())
        assert set(PROCESS_IMPORTS) <= loaded
        unwanted = sorted(
            module for module in loaded
            if any(module == never or module.startswith(never + ".")
                   for never in NEVER_LOADED)
        )
        assert not unwanted

    def test_hashing_never_loads_numpy(self):
        # The memory fills run on Python ints: no process on the hash path
        # pays numpy's import.
        out = fresh_python(
            f"import sys, {', '.join(PROCESS_IMPORTS)}\n"
            "from repro.core.hashcore import HashCore\n"
            "from repro.widgetgen.params import GeneratorParams\n"
            "HashCore(params=GeneratorParams.test_scale()).hash(b'numpy probe')\n"
            "print('numpy' in sys.modules)\n"
        )
        assert out.split() == ["False"]
