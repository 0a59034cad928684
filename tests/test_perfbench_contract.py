"""The benchmark's contract with the program, checked on a tiny workload.

perfbench/ traces the program from outside: it wraps named functions and
methods and asserts exact call counts derived from the workload. A rename or
a change in how often a traced function runs fails `perfbench/run.py
--trace 1`; running the same check here makes it fail the test suite too.
"""

import os
import sys
from dataclasses import replace

import pytest

from zsvr import cli, mediaio

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _config():
    return replace(cli.demo_config(0), steps=3, batch_size=3, flow_block=5, flow_search=2)


@pytest.mark.parametrize("ablate", [False, True], ids=["restore", "ablate"])
def test_traced_job_makes_the_expected_calls(tmp_path, ablate):
    wl = workloads.Workload("contract", 5, 16, _config, ablate, 1)
    cfg = wl.config()
    _, lq = workloads.make_clip(wl, seed=0)
    lq_dir, out_dir = tmp_path / "lq", tmp_path / "out"
    mediaio.write_frames(lq, str(lq_dir))
    out_dir.mkdir()
    with tracer.Tracer() as tr:
        res = workloads.run_job(wl, cfg, str(lq_dir), str(out_dir))
    assert workloads.check_job(wl, res, None) == []
    counts = run.check_calls(wl, cfg, tr.take())
    assert counts["toydiff.denoise_step"] == (10 if ablate else 1) * 2 * cfg.steps
