"""Training-loop tests."""

import numpy as np
import pytest

from anglereloc import losses
from anglereloc.regressor import AdamState, adam_step


def test_adam_step_shape_mismatch_raises_the_losses_error():
    params = [np.zeros((4, 3)), np.zeros(3)]
    state = AdamState.for_params(params)
    with pytest.raises(losses.DimensionMismatchError):
        adam_step(state, params, [np.zeros((4, 3)), np.zeros(2)])
    with pytest.raises(losses.DimensionMismatchError):
        adam_step(state, params, [np.zeros((4, 3))])
