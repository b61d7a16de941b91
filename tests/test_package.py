"""The public names of the package and the attributes the traced benchmark
wraps by name."""

import ast
import importlib
from pathlib import Path

import mayerbounds

ROOT = Path(__file__).resolve().parents[1]


def test_exports():
    assert {"subset_energies", "enumerate_labeled_trees", "split"} <= set(mayerbounds.__all__)
    removed = {
        "subset_energy",
        "enumerate_trees",
        "enumerate_partitions",
        "SetPartition",
        "EdgeLabeledTree",
        "MergeState",
        "CappedPotential",
        "PotentialSplit",
        "mps_bound",
        "basuev_c_star",
        "basuev_c_hat",
        "basuev_radius",
        "lj_type_check",
        "LJTypeCheckReport",
        "lennard_jones",
        "hard_core_wrap",
        "negative_part",
        "radial_integral_err",
    }
    assert not removed & set(mayerbounds.__all__)
    for name in mayerbounds.__all__:
        assert hasattr(mayerbounds, name), name


def test_benchmark_shim_targets_resolve():
    # perfbench/shims.py patches these attributes by name and aborts a traced
    # run when one is missing; read its TARGETS without importing perfbench
    tree = ast.parse((ROOT / "perfbench" / "shims.py").read_text())
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    )
    assert targets
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in targets
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
