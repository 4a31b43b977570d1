import json
import runpy
import subprocess
import sys
from pathlib import Path

from usolib.construct import FAMILIES

LAYERS_SCRIPT = Path(__file__).resolve().parent.parent / "perf" / "layers.py"


def test_layer_harness_writes_every_cell(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends its imports' dirs
    layer_names = list(runpy.run_path(str(LAYERS_SCRIPT))["LAYERS"])
    assert {f"family:{family}" for family in FAMILIES} <= set(layer_names)
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(LAYERS_SCRIPT), "--n", "6", "--out", str(out)],
                   check=True, capture_output=True, timeout=120)
    result = json.loads(out.read_text())
    assert set(result) == {"host", "dimensions", "calls", "timeout_s", "cells", "skipped", "failed"}
    assert set(result["host"]) == {"python", "numpy", "machine", "cpus"}
    assert result["dimensions"] == [6] and result["skipped"] == result["failed"] == []
    layers = [cell["layer"] for cell in result["cells"]]
    assert layers == layer_names
    for cell in result["cells"]:
        assert set(cell) == {
            "layer", "n", "calls", "wall_ms", "cpu_ms", "wall_ms_ref", "cpu_ms_ref",
            "minflt_first", "minflt_per_call", "maxrss_mib_before", "maxrss_mib",
            "calibration_ms",
        }
        assert cell["n"] == 6 and cell["calls"] == result["calls"]
        assert cell["wall_ms"] > 0 and cell["wall_ms_ref"] > 0 and cell["cpu_ms_ref"] > 0
        assert cell["maxrss_mib"] >= cell["maxrss_mib_before"] > 0
        assert len(cell["calibration_ms"]) == 4
