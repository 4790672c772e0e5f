"""The benchmark's output check in tier-1: one frame of each perfbench
workload at variant 0 against perfbench/reference.json, through
perfbench/workloads.py and perfbench/check.py as they stand, so an output
drift shows here before a benchmark run."""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's check and workloads modules, imported from its directory."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import check
        import workloads
        yield check, workloads


@pytest.mark.parametrize("name", ["infer_dense_stvd", "infer_default_full",
                                  "train_default_stvd"])
def test_one_frame_matches_the_benchmark_reference(perfbench, name):
    check, workloads = perfbench
    frames = workloads.Frames(name, 0)
    out = frames.run()
    assert check.compare(check.summarize(out), check.load_reference(name, 0)) == []
    if frames.workload.training:
        composed = workloads.FrameOutput(out.levels)
        reference = workloads.FrameOutput(frames.forward_reference())
        assert check.exact_digest(composed) == check.exact_digest(reference)


def test_every_benchmark_workload_is_checked(perfbench):
    assert set(perfbench[1].WORKLOADS) == {"infer_dense_stvd", "infer_default_full",
                                           "train_default_stvd"}
