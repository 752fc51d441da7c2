"""Batching the gradient stage and the bench replications changes no number.

A batched estimator call over several coordinates (a gradient) or several
replications of one coordinate (a bench cell) spawns, per row, the same
stream tree as a single-coordinate call and draws the same random numbers in
the same order.  So each row's estimate equals the single-coordinate
estimate exactly, and seeded values stay where the per-coordinate
implementation put them: its closed-form bias fit differed from the earlier
``lstsq`` solve only by rounding.
"""

import numpy as np
import pytest

from corfd import bench, dfo
from corfd.bench import ExperimentConfig, run_replications
from corfd.dfo import DfoConfig, gradient_via_corcfd
from corfd.estimators import EstimatorConfig, boot_cfd, cor_cfd, opt_cfd, tra_cfd
from corfd.oracle import GroundTruth, SimulationOracle, block_sampler, parse_problem
from corfd.sampling import spawn, stream


def noisy_bowl(d):
    """A d-dimensional oracle whose block draws one point at a time."""
    scales = np.arange(1.0, d + 1)

    def block(points, rngs, size):
        return np.array([
            float(np.sum(scales * theta**3)) + rng.standard_normal(size)
            for theta, rng in zip(points, rngs)
        ])

    return SimulationOracle(dim=d, label=f"bowl@{d}", sample=block_sampler(block))


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
        batch = cor_cfd(oracle, theta, range(d), n, cfg, spawn(stream(3), d))
        alone = [cor_cfd(oracle, theta, i, n, cfg, rng) for i, rng in enumerate(stream(3).spawn(d))]
        assert len(batch) == d
        assert batch == alone  # values, perturbations and constants, exactly

    @pytest.mark.parametrize("method", ["tra", "opt", "boot"])
    @pytest.mark.parametrize("problem", ["poly@3", "queue@4,4,10,service"])
    def test_each_row_equals_its_own_call(self, method, problem):
        p = parse_problem(problem)
        cfg = EstimatorConfig(K=4, pilot_fraction=0.5, bootstrap_reps=50)
        truth = GroundTruth(bias_const=-0.5, noise_var=2.0)
        run = {
            "tra": lambda coord, rng: tra_cfd(p.oracle, p.theta0, coord, 60, 0.3, rng),
            "opt": lambda coord, rng: opt_cfd(p.oracle, p.theta0, coord, 60, truth, rng),
            "boot": lambda coord, rng: boot_cfd(p.oracle, p.theta0, coord, 60, cfg, rng),
        }[method]
        batch = run([0] * 4, spawn(stream(6), 4))
        assert batch == [run(0, rng) for rng in stream(6).spawn(4)]
        assert [est.method for est in batch] == [method] * 4
        (one,) = run([0], stream(7))
        assert one == run(0, stream(7))

    @pytest.mark.parametrize("method", ["cor", "boot"])
    def test_noise_free_and_noisy_coordinates_in_one_batch(self, method):
        # Noise sd |t1|: at t1 = 0 the pairs along coordinate 0 are exact,
        # and the pairs along coordinate 1 are noisy.
        def block(points, rngs, size):
            return np.array([
                float(t[0] ** 3 + 2.0 * t[1] ** 3) + abs(float(t[1])) * rng.standard_normal(size)
                for t, rng in zip(points, rngs)
            ])

        oracle = SimulationOracle(dim=2, label="mixed@2", sample=block_sampler(block))
        theta = np.array([0.5, 0.0])
        run = {"cor": cor_cfd, "boot": boot_cfd}[method]
        cfg = EstimatorConfig(K=4, pilot_fraction=0.5)
        coords = [0, 1, 0]
        batch = run(oracle, theta, coords, 80, cfg, spawn(stream(8), 3))
        alone = [run(oracle, theta, i, 80, cfg, rng) for i, rng in zip(coords, stream(8).spawn(3))]
        assert batch == alone
        assert [est.constants.noise_var == 0.0 for est in batch] == [True, False, True]

    def test_single_coordinate_keeps_its_return_type(self):
        sin1 = parse_problem("sin1")
        est = cor_cfd(sin1.oracle, sin1.theta0, 0, 100, EstimatorConfig(), stream(4))
        (batched,) = cor_cfd(sin1.oracle, sin1.theta0, [0], 100, EstimatorConfig(), stream(4))
        assert est == batched

    def test_one_generator_per_coordinate(self):
        zak = parse_problem("zakharov@3")
        for streams in (spawn(stream(5), 2), stream(1)):
            with pytest.raises(ValueError, match="one stream per coordinate"):
                cor_cfd(zak.oracle, zak.theta0, range(3), 20, EstimatorConfig(K=5), streams)

    def test_a_list_of_generators_is_refused(self):
        zak = parse_problem("zakharov@3")
        with pytest.raises(TypeError, match="Generator seeded by a SeedSequence or a Streams"):
            cor_cfd(zak.oracle, zak.theta0, range(3), 20, EstimatorConfig(K=5), stream(5).spawn(3))


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

    def test_whole_optimizer_run(self):
        # ``corfd dfo --problem zakharov@10 --budget 10000 --seed 1``, bit for bit.
        zak = parse_problem("zakharov@10")
        trace = dfo.corcfd_lbfgs(zak.oracle, zak.theta0, DfoConfig(budget=10_000), stream(1))
        assert [float(x).hex() for x in trace.theta_final] == [
            "0x1.804e8a9c90245p-3", "-0x1.733ad5951039ep-4", "0x1.12f2d09ef3255p-3",
            "-0x1.c99d38aa778c6p-4", "0x1.42fcc82ae0f3ep-4", "0x1.a44cabf9dc55ep-4",
            "-0x1.adf1783f3181dp-4", "0x1.4886cebdfb2a1p-3", "0x1.3b16ace95089dp-4",
            "-0x1.c21a69616ac8fp-3",
        ]
        assert trace.evals_total == 20552

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

    # Recorded before ``spawn`` and ``cor_cfd`` dropped their sequence and
    # seed-sequence forms.
    def test_boot_estimate(self):
        p = parse_problem("sin1")
        est = boot_cfd(p.oracle, p.theta0, 0, 1000, EstimatorConfig(pilot_fraction=0.5), stream(44))
        assert est.value == pytest.approx(10.01370477158482, rel=1e-10)
        assert est.perturbation == pytest.approx(0.2531211994689745, rel=1e-10)

    def test_first_tra_gradient(self):
        zak = parse_problem("zakharov@10")
        g = dfo._gradient_tra(zak.oracle, zak.theta0, stream(0).spawn(2)[0])
        expected = [
            41632.986581505094, 83313.49811289465, 125099.67969396756, 167041.37637963236,
            209191.4004615977, 251601.02247497247, 294320.84283629205, 337406.8298675777,
            380906.5302778479, 424877.5073083347,
        ]
        np.testing.assert_allclose(g, expected, rtol=1e-10, atol=0)

    def test_batch_over_a_level(self):
        zak = parse_problem("zakharov@3")
        cfg = EstimatorConfig(K=5, pilot_fraction=0.5)
        batch = cor_cfd(zak.oracle, zak.theta0, range(3), 40, cfg, spawn(stream(45), 3))
        np.testing.assert_allclose(
            [[est.value, est.perturbation] for est in batch],
            [[59.62405288314379, 0.4484775949184579],
             [115.87882937853854, 0.19834287957756552],
             [173.8283910441439, 0.13324636865600456]],
            rtol=1e-10, atol=0,
        )

    # Recorded with one estimator call per row, before the other methods
    # took batches.
    def test_batched_difference_and_boot_estimates(self):
        p = parse_problem("poly@3")
        tra = tra_cfd(p.oracle, p.theta0, [0] * 3, 1000, 0.2, spawn(stream(46), 3))
        opt = opt_cfd(p.oracle, p.theta0, [0] * 3, 1000, p.truth, spawn(stream(47), 3))
        boot = boot_cfd(p.oracle, p.theta0, [0] * 3, 1000, EstimatorConfig(K=5, pilot_fraction=0.5),
                        spawn(stream(48), 3))
        np.testing.assert_allclose(
            [est.value for est in tra], [3.1456972590005594, 3.231747105339774, 3.410911014086805],
            rtol=1e-10, atol=0,
        )
        np.testing.assert_allclose(
            [est.value for est in opt], [3.1449972926145606, 3.0072717035291836, 3.2319092875095436],
            rtol=1e-10, atol=0,
        )
        np.testing.assert_allclose(
            [[est.value, est.perturbation] for est in boot],
            [[3.3374001247235157, 0.15072767587123567],
             [3.020397281163892, 0.14898883613358138],
             [2.923411679104881, 0.14971437469705148]],
            rtol=1e-10, atol=0,
        )

    # Recorded with one estimator call per replication.  Two workers cut
    # each cell's seven replications into batches of three (3, 3 and 1),
    # so that each cell crosses batch boundaries.
    def test_replications_across_batches_and_chunks(self, monkeypatch):
        monkeypatch.setattr(bench, "_BATCH_PAIRS", 300)
        monkeypatch.setenv("CORFD_THREADS", "2")
        cfg = ExperimentConfig(problem="poly@3", methods=("tra", "opt", "boot", "cor"), budgets=(100,),
                               reps=7, seed=49, estimator=EstimatorConfig(K=5, pilot_fraction=0.5))
        detail, _, failures = run_replications(cfg)
        assert not failures
        assert [row[3] for row in detail] == list(range(7)) * 4
        expected = [
            [3.1151189697908723, 3.1853890453612363, 2.620186739890927, 3.1143117869253554,
             2.8275411159511066, 3.030767621572176, 3.7227632344154302],
            [3.4248696674947827, 4.122838406706897, 3.3978057277379157, 3.5515935349449963,
             3.4004071843875443, 3.119952609759575, 3.187877868877704],
            [3.4765915494498616, 3.052232609741517, 3.3310319478381754, 3.182382553473866,
             3.952563061732281, 4.19598714857352, 3.592166886838515],
            [4.060633817082544, 3.2603939231679875, 3.561988453085902, 2.996185550707993,
             3.310137984611007, 3.51551038495355, 2.8604459636412596],
        ]
        np.testing.assert_allclose(
            np.reshape([row[4] for row in detail], (4, 7)), expected, rtol=1e-10, atol=0
        )
