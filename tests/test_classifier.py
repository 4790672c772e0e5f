"""Refusals of the noise-classification testbed."""

import numpy as np
import pytest

from virconv import SeededRng
from virconv.classifier import NoiseClassifier, roc_auc


def test_unknown_head_rejected():
    with pytest.raises(ValueError, match="unknown head 'mlp_head'"):
        NoiseClassifier("mlp_head", SeededRng(0))


@pytest.mark.parametrize("labels", [[True, True, True], [False, False, False]])
def test_roc_auc_needs_both_classes(labels):
    with pytest.raises(ValueError, match="AUC needs both classes present"):
        roc_auc(np.array([0.1, 0.5, 0.9]), np.array(labels))
