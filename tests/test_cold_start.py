"""Cold start: each CLI command imports only what it runs.

The import-budget tests run real ``python -m repro`` commands under
``-X importtime`` and assert which modules they loaded -- module sets, not
timings, so they hold on a loaded host.  The public-API tests pin the lazy
``repro`` namespace: every ``__all__`` name still resolves to the object
its defining module holds.
"""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")

#: Third-party and package modules no closed-form command needs.
KERNELS = ("scipy", "networkx", "repro.simulation")

#: A small weak-mobility family with a full-mesh backbone (scheme B).
SWEEP_B = [
    "sweep", "--scheme", "B", "--alpha", "1/4", "--bs", "1/2",
    "--grid", "64,128", "--trials", "2", "--seed", "3", "--no-progress",
]


def loaded_modules(*args):
    """Run ``python -X importtime *args``; return the imported module names."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return {
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:") and "[us]" not in line
    }


def loaded_by_cli(*argv):
    return loaded_modules("-m", "repro", *argv)


def assert_not_loaded(modules, packages):
    """No module in ``modules`` is one of ``packages`` or inside them."""
    offending = sorted(
        name
        for name in modules
        for package in packages
        if name == package or name.startswith(package + ".")
    )
    assert not offending, offending


class TestImportBudget:
    def test_importing_the_cli_loads_no_kernels(self):
        modules = loaded_modules("-c", "import repro.__main__")
        assert "repro.__main__" in modules  # the probe really saw the import
        assert_not_loaded(modules, (
            "numpy", "scipy", "networkx", "repro.simulation",
            "repro.routing", "concurrent.futures.process",
        ))

    @pytest.mark.parametrize("argv", [
        ["analyze", "--alpha", "1/4", "--bs", "1/2"],
        ["table1"],
    ], ids=["analyze", "table1"])
    def test_closed_form_commands_load_no_numpy(self, argv):
        assert_not_loaded(loaded_by_cli(*argv), ("numpy",) + KERNELS)

    def test_full_mesh_sweep_and_store_queries(self, tmp_path):
        store = str(tmp_path / "store")
        sweep = loaded_by_cli(*SWEEP_B, "--store", store)
        assert "repro.routing.scheme_b" in sweep
        assert_not_loaded(sweep, ("scipy", "networkx"))
        for argv in (["serve", "query"], ["runs", "list"]):
            assert_not_loaded(
                loaded_by_cli(*argv, "--store", store), ("numpy",) + KERNELS
            )


class TestLazyPublicApi:
    @pytest.mark.parametrize("name", repro.__all__)
    def test_name_resolves_to_its_defining_module_object(self, name):
        value = getattr(repro, name)
        defining = importlib.import_module(value.__module__)
        assert getattr(defining, name) is value

    def test_dir_lists_every_public_name(self):
        assert set(repro.__all__) <= set(dir(repro))

    def test_star_import(self):
        namespace = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)

    def test_unknown_name_raises_attribute_error_naming_the_module(self):
        with pytest.raises(AttributeError, match="module 'repro' has no "
                           "attribute 'NoSuchName'"):
            repro.NoSuchName  # noqa: B018

    def test_quickstart_import_line(self):
        source = (ROOT / "examples" / "quickstart.py").read_text()
        (line,) = [
            line for line in source.splitlines()
            if line.startswith("from repro import")
        ]
        namespace = {}
        exec(line, namespace)
        assert {"HybridNetwork", "NetworkParameters", "analyze"} <= set(namespace)
