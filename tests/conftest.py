import dataclasses
import functools

import numpy as np
import pytest

from scarr import oracle
from scarr.data_model import write_dataset

#: The bundled data/mini: ``scarr simulate --seed 7 --days 90``.
MINI_CONFIG = dataclasses.replace(oracle.SimulationConfig(seed=7), n_days=90)


@functools.cache
def simulated_mini():
    """(dataset, truth) of ``MINI_CONFIG``, simulated once per process.

    A hypothesis test calls this in place of the ``mini_dataset`` fixture:
    hypothesis puts the repr of a fixture argument in its failure report, and
    the dataset's is so large that the warning it raises hides the
    falsifying example."""
    return oracle.simulate_step1_dataset(MINI_CONFIG)


@pytest.fixture(scope="session")
def mini_config():
    return MINI_CONFIG


@pytest.fixture(scope="session")
def mini_dataset():
    return simulated_mini()


@pytest.fixture(scope="session")
def mini_dataset_dir(tmp_path_factory, mini_dataset):
    dataset, truth = mini_dataset
    path = tmp_path_factory.mktemp("mini")
    write_dataset(dataset, str(path))
    oracle.write_truth(truth, str(path / "truth.txt"))
    return path


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(12345))
