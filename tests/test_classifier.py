"""Refusals and map reuse of the noise-classification testbed."""

from dataclasses import replace

import numpy as np
import pytest

from virconv import SeededRng, SparseVoxelTensor, classifier
from virconv.classifier import (
    HEAD_CONV3D,
    HEAD_NRCONV,
    NoiseClassifier,
    default_classifier_scene_spec,
    roc_auc,
    scene_to_dataset,
    train_noise_classifier,
)
from virconv.scene import generate_scene


def test_unknown_head_rejected():
    with pytest.raises(ValueError, match="unknown head 'mlp_head'"):
        NoiseClassifier("mlp_head", SeededRng(0))


@pytest.mark.parametrize("labels", [[True, True, True], [False, False, False]])
def test_roc_auc_needs_both_classes(labels):
    with pytest.raises(ValueError, match="AUC needs both classes present"):
        roc_auc(np.array([0.1, 0.5, 0.9]), np.array(labels))


@pytest.mark.parametrize("head, maps", [(HEAD_NRCONV, 2), (HEAD_CONV3D, 1)])
def test_training_builds_each_dataset_map_once(monkeypatch, head, maps):
    """Every epoch reuses each dataset's kernel map (and cell map): the map
    searches do not grow with CLASSIFIER_EPOCHS."""
    calls = []
    self_pairs = SparseVoxelTensor._self_pairs
    monkeypatch.setattr(SparseVoxelTensor, "_self_pairs",
                        lambda self, offsets: calls.append(len(offsets)) or self_pairs(self, offsets))
    spec = replace(default_classifier_scene_spec(), num_objects=2)
    counts = []
    for epochs in (2, 4):
        monkeypatch.setattr(classifier, "CLASSIFIER_EPOCHS", epochs)
        train, held_out = (scene_to_dataset(generate_scene(spec, SeededRng(s))) for s in (1, 2))
        calls.clear()
        train_noise_classifier([train], [held_out], head, SeededRng(0))
        counts.append(len(calls))
    assert counts == [2 * maps] * 2
