"""The queue block's two kernels, `_draw_paths` and `_wait_sums`, against
their specified values bit for bit."""
import numpy as np
import pytest

from corfd import oracle as oracle_module
from corfd.sampling import stream


@pytest.mark.parametrize("lam,mu", [(3.0, 5.0), (5.0, 3.0)])
def test_draw_paths_scale_log_uniforms_by_the_reciprocal_rate(lam, mu):
    rng, ref = stream(50), stream(50)
    arrivals, services = np.empty((37, 9)), np.empty((37, 10))
    oracle_module._draw_paths(rng, lam, mu, arrivals, services)
    # Every interarrival uniform, then every service uniform.
    np.testing.assert_array_equal(arrivals, np.log(ref.random((37, 9))) * (-1.0 / lam))
    np.testing.assert_array_equal(services, np.log(ref.random((37, 10))) * (-1.0 / mu))
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("lam,mu", [(3.0, 5.0), (5.0, 3.0)], ids=["stable", "growing"])
@pytest.mark.parametrize("horizon", [10, 500])
@pytest.mark.parametrize("extra", [-1, 0], ids=["path-wise", "customer-wise"])
def test_wait_sums_add_closed_form_waits_in_customer_order(extra, horizon, lam, mu):
    # One path fewer than ``_WALK_PATHS`` walks path by path, ``_WALK_PATHS``
    # customer by customer; at both horizons the block is one piece.
    paths = oracle_module._WALK_PATHS + extra
    assert paths <= oracle_module._walk_width(horizon - 1)
    rng = stream(51)
    shape = (paths, horizon - 1)
    x = rng.exponential(1.0 / mu, shape) - rng.exponential(1.0 / lam, shape)
    partial = np.cumsum(x, axis=1)
    waits = partial - np.minimum(np.minimum.accumulate(partial, axis=1), 0.0)
    want = np.cumsum(waits, axis=1)[:, -1]
    np.testing.assert_array_equal(oracle_module._wait_sums(x.copy()), want)
