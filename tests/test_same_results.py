import copy
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import same_results  # noqa: E402

RESULTS = {
    "bodies": {"cylinder --hbar 1 --seed 0": "schema: geoquant-report/1\npassed: true\nexit 0\n",
               "fock --degree 150": "schema: geoquant-report/1\npassed: true\nexit 0\n"},
    "records": {
        "matrix-models seed 1 task 0 #0": ["fock D=40", "oscillator-spectrum",
                                           (2.0 ** -48).hex(), (1e-10).hex(), True, ""],
        "matrix-models seed 1 task 0 #1": ["fock D=40", "ladder-raise",
                                           (0.0).hex(), (1e-10).hex(), True, ""]},
}


def test_identical_results_report_nothing():
    assert same_results.compare(RESULTS, copy.deepcopy(RESULTS)) == []


def test_a_one_ulp_move_in_one_record_is_reported():
    moved = copy.deepcopy(RESULTS)
    record = moved["records"]["matrix-models seed 1 task 0 #0"]
    record[2] = float(np.nextafter(2.0 ** -48, 1.0)).hex()
    lines = same_results.compare(RESULTS, moved)
    assert lines[0].startswith("record moved: matrix-models seed 1 task 0 #0: ")
    assert lines[-1] == "largest relative move: 2.22e-16 at matrix-models seed 1 task 0 #0"
    assert len(lines) == 2


def test_a_one_byte_change_in_one_body_is_reported():
    moved = copy.deepcopy(RESULTS)
    moved["bodies"]["fock --degree 150"] = moved["bodies"]["fock --degree 150"].replace(
        "exit 0", "exit 1")
    lines = same_results.compare(RESULTS, moved)
    assert lines[0] == "body moved: geoquant fock --degree 150"
    assert "-exit 0" in lines and "+exit 1" in lines


def test_head_against_the_working_tree_on_one_demo_and_one_task(tmp_path):
    inside = shutil.which("git") and subprocess.run(
        ["git", "-C", str(same_results.ROOT), "rev-parse", "--verify", "HEAD"],
        capture_output=True).returncode == 0
    if not inside:
        pytest.skip("not a git checkout")
    runs, tasks = [["cylinder", "--hbar", "0.7", "--seed", "3"]], [["matrix-models", 1, 0]]
    same_results.unpack("HEAD", tmp_path)
    old = same_results.results(tmp_path, runs, tasks)
    new = same_results.results(same_results.ROOT, runs, tasks)
    assert old["bodies"]["cylinder --hbar 0.7 --seed 3"].endswith("passed: true\nexit 0\n")
    assert len(old["records"]) > 10
    assert same_results.compare(old, new) == []
