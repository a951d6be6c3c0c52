"""The frame count behind samples_per_s, against sew's own batcher."""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from sew import training  # noqa: E402
from sew.data import Dataset  # noqa: E402


@pytest.mark.parametrize("n, bs", [(100, 32), (97, 32), (64, 32), (33, 32)])
def test_samples_match_the_batcher(n, bs):
    data = Dataset(np.zeros((2, n)), np.zeros((1, n)), np.zeros((1, n)))
    sizes = [b.m_s.shape[1] for b in training.batcher(data, bs, np.random.default_rng(0), shuffle=True)]
    wl = workloads.TrainingWorkload(0, Path("."))
    wl.cfg = SimpleNamespace(batch_size=bs)
    for epochs in (1, 3):
        run = sizes * epochs
        for steps in range(len(run) + 1):
            assert wl.samples(steps, n) == sum(run[:steps])
