"""Package-surface tests: public API, versioning, module docs.

An adoptable library keeps its public surface stable and documented; these
tests pin the top-level API and require docstrings on every public module.
"""

import importlib

import pytest

import repro


PUBLIC_MODULES = [
    "repro",
    "repro.errors",
    "repro.units",
    "repro.rng",
    "repro.fpga",
    "repro.fpga.pmbus",
    "repro.fpga.regulator",
    "repro.fpga.power",
    "repro.fpga.timing",
    "repro.fpga.thermal",
    "repro.fpga.variation",
    "repro.fpga.resources",
    "repro.fpga.transients",
    "repro.fpga.board",
    "repro.fpga.calibration",
    "repro.nn",
    "repro.nn.tensor",
    "repro.nn.layers",
    "repro.nn.graph",
    "repro.nn.quantize",
    "repro.nn.prune",
    "repro.models",
    "repro.models.spec",
    "repro.models.architectures",
    "repro.models.builders",
    "repro.models.datasets",
    "repro.models.profiles",
    "repro.models.zoo",
    "repro.dpu",
    "repro.dpu.config",
    "repro.dpu.compiler",
    "repro.dpu.memory",
    "repro.dpu.perf",
    "repro.dpu.engine",
    "repro.faults",
    "repro.faults.model",
    "repro.faults.injector",
    "repro.faults.bram",
    "repro.faults.mitigation",
    "repro.core",
    "repro.core.experiment",
    "repro.core.session",
    "repro.core.undervolt",
    "repro.core.regions",
    "repro.core.freq_scaling",
    "repro.core.temperature",
    "repro.core.dvfs",
    "repro.core.guardband",
    "repro.core.deployment",
    "repro.analysis",
    "repro.analysis.metrics",
    "repro.analysis.stats",
    "repro.analysis.tables",
    "repro.analysis.plots",
    "repro.analysis.report",
    "repro.analysis.expectations",
    "repro.experiments",
    "repro.experiments.registry",
    "repro.runtime",
    "repro.runtime.hashing",
    "repro.runtime.cache",
    "repro.runtime.points",
    "repro.runtime.journal",
    "repro.runtime.shards",
    "repro.runtime.executor",
    "repro.runtime.campaign",
    "repro.runtime.query",
    "repro.query",
    "repro.serve",
    "repro.cli",
]


class TestSurface:
    def test_version_is_pep440ish(self):
        assert repro.__version__.count(".") == 2

    def test_top_level_exports(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_module_imports_and_is_documented(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"
        assert len(module.__doc__.strip()) > 20

    def test_no_unexpected_import_side_effects(self):
        """Importing the package must not build workloads (slow) — the
        zoo's memo cache stays empty until first use in a fresh process."""
        import subprocess
        import sys

        code = (
            "import repro\n"
            "from repro.models import zoo\n"
            "print(zoo._build_cached.cache_info().currsize)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "0"

    def test_runtime_needs_neither_scipy_nor_networkx(self, tmp_path):
        """scipy and networkx are test-only oracles: with both blocked,
        every public module imports and a smoke campaign still runs."""
        import os
        import subprocess
        import sys

        code = (
            "import importlib, sys\n"
            "sys.modules['scipy'] = sys.modules['networkx'] = None\n"
            f"for name in {PUBLIC_MODULES!r}:\n"
            "    importlib.import_module(name)\n"
            "from repro.cli import main\n"
            "sys.exit(main(['campaign', 'table1', 'fig3', '--repeats', '1',\n"
            "               '--samples', '8', '--no-cache']))\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=env,
        )
        assert out.returncode == 0, out.stderr
