"""Batching the gradient stage changes no number.

A batched ``cor_cfd`` call over several coordinates spawns, per coordinate,
the same stream tree as a single-coordinate call and draws the same random
numbers in the same order.  So each coordinate's estimate equals the
single-coordinate estimate exactly, and seeded values stay where the
per-coordinate implementation put them: its closed-form bias fit differed
from the earlier ``lstsq`` solve only by rounding.
"""
import numpy as np
import pytest

from corfd.dfo import DfoConfig, gradient_via_corcfd
from corfd.estimators import EstimatorConfig, cor_cfd
from corfd.oracle import SimulationOracle, parse_problem
from corfd.sampling import stream


def noisy_bowl(d):
    """A d-dimensional oracle drawn one ``sample`` call per point."""
    scales = np.arange(1.0, d + 1)

    def sample(theta, rng, size):
        return float(np.sum(scales * np.asarray(theta) ** 3)) + rng.standard_normal(size)

    return SimulationOracle(dim=d, label=f"bowl@{d}", sample=sample)


class TestBatchInvariance:
    @pytest.mark.parametrize("oracle", [parse_problem("zakharov@6").oracle, noisy_bowl(4)],
                             ids=["zakharov", "bowl"])
    @pytest.mark.parametrize(
        "n, cfg",
        [
            (20, EstimatorConfig(K=5)),
            (40, EstimatorConfig(K=4, bootstrap_reps=100)),
            (20, EstimatorConfig(K=3)),  # n_b = 6, so n2 = 2 fresh pairs
            (300, EstimatorConfig(K=5, pilot_fraction=0.5, bootstrap_reps=100)),
        ],
        ids=["closed-form", "monte-carlo", "fresh-pairs", "fresh-pairs-monte-carlo"],
    )
    def test_each_coordinate_equals_its_own_call(self, oracle, n, cfg):
        d = oracle.dim
        theta = np.linspace(0.3, 0.8, d)
        batch = cor_cfd(oracle, theta, range(d), n, cfg, stream(3).spawn(d))
        alone = [cor_cfd(oracle, theta, i, n, cfg, rng) for i, rng in enumerate(stream(3).spawn(d))]
        assert len(batch) == d
        assert batch == alone  # values, perturbations and constants, exactly

    def test_single_coordinate_keeps_its_return_type(self):
        sin1 = parse_problem("sin1")
        est = cor_cfd(sin1.oracle, sin1.theta0, 0, 100, EstimatorConfig(), stream(4))
        (batched,) = cor_cfd(sin1.oracle, sin1.theta0, [0], 100, EstimatorConfig(), [stream(4)])
        assert est == batched

    def test_one_generator_per_coordinate(self):
        zak = parse_problem("zakharov@3")
        with pytest.raises(ValueError, match="one generator per coordinate"):
            cor_cfd(zak.oracle, zak.theta0, range(3), 20, EstimatorConfig(K=5), stream(5).spawn(2))


# Recorded with the per-coordinate implementation that preceded batching.
ZAKHAROV_10_FIRST_GRADIENT = [
    41624.07353814542, 83245.54683842094, 124867.9487263384, 166488.52174744956,
    208111.69807493142, 249726.12260117388, 291354.5840322863, 332974.93118446454,
    374602.81050431787, 416218.84660831897,
]
ZAKHAROV_100_FIRST_GRADIENT = [
    30515177510.064068, 61057800955.42853, 92496822178.70186, 100130164286.6448,
    152100543595.99655, 181665858364.70056, 217010973744.95142, 249917482123.2422,
    287267150461.20935, 315821353526.0558, 325214086788.84216, 376772566579.9959,
    384728672017.3921, 429780002821.41125, 429735177567.98645, 493190375710.63904,
    533497313978.33514, 548235642369.88293, 599273097521.3805, 604917800710.391,
    573981335391.8359, 684578238274.5906, 724750782975.4542, 765652824411.9329,
    781141317165.0125, 783629734770.2843, 856456853851.9928, 875138040308.838,
    860750938280.9132, 924113340120.6799, 859603410839.2104, 949223159290.822,
    973116004835.219, 1085519386380.9285, 1075678074454.2351, 1066417225604.2777,
    1172909680581.7466, 1212684246638.0933, 1206443080033.2798, 1268588366856.0952,
    1217122241649.5613, 1326201408078.8162, 1341166910816.633, 1271750456610.8215,
    1428796681290.3599, 1477441130367.4978, 1504836410610.127, 1525070865494.4417,
    1572311812036.5793, 1607423499194.5151, 1642042347810.8367, 1674239256470.9983,
    1706436165295.4497, 1738633073746.5874, 1770829982853.3782, 1803026891656.3098,
    1835223800241.841, 1867420708939.8784, 1899617617997.944, 1931814526739.1829,
    1964011435387.4504, 1996208344392.4692, 2028405253170.9604, 2060602161787.561,
    2092799070635.0142, 2124995979362.8574, 2157192888186.1108, 2189389797370.4565,
    2221586705418.5356, 2253783614476.508, 2285980522993.161, 2318177432026.9155,
    2350374340564.6553, 2382571249267.1006, 2414768158330.774, 2446965067072.4,
    2479161975763.505, 2511358884792.8154, 2543555793441.642, 2575752702339.2354,
    2607949610755.075, 2640146519591.2246, 2672343428573.7637, 2704540337302.5513,
    2736737246276.333, 2768934155304.796, 2801131063802.3267, 2833327972415.7803,
    2865524881511.3896, 2897721790119.6514, 2929918698752.487, 2962115607355.661,
    2994312515903.6606, 3026509424842.765, 3058706333854.1333, 3090903242642.55,
    3123100151367.4424, 3155297060064.3022, 3187493969200.149, 3219690877765.087,
]


class TestParity:
    @pytest.mark.parametrize("d, expected", [(10, ZAKHAROV_10_FIRST_GRADIENT),
                                             (100, ZAKHAROV_100_FIRST_GRADIENT)])
    def test_first_gradient_of_seeded_run(self, d, expected):
        # The first gradient of ``corfd dfo --problem zakharov@<d> --seed 0``.
        zak = parse_problem(f"zakharov@{d}")
        cfg = DfoConfig(budget=1).estimator_config()
        g = gradient_via_corcfd(zak.oracle, zak.theta0, 20, cfg, stream(0).spawn(2)[0])
        np.testing.assert_allclose(g, expected, rtol=1e-10, atol=0)

    @pytest.mark.parametrize(
        "problem, n, cfg, seed, value, perturbation",
        [
            ("sin1", 100, EstimatorConfig(pilot_fraction=0.5), 41,
             10.094228447469774, 0.2943362569289749),
            ("poly@3", 10_000, EstimatorConfig(), 42, 3.034040196746105, 0.09096123057678303),
            ("queue@3,5,500,service", 1000, EstimatorConfig(bootstrap_reps=100), 43,
             -0.3541753183543101, 0.39820439066039937),
        ],
    )
    def test_single_estimate(self, problem, n, cfg, seed, value, perturbation):
        p = parse_problem(problem)
        est = cor_cfd(p.oracle, p.theta0, 0, n, cfg, stream(seed))
        assert est.value == pytest.approx(value, rel=1e-10)
        assert est.perturbation == pytest.approx(perturbation, rel=1e-10)
