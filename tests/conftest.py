import dataclasses

import numpy as np
import pytest

from scarr import oracle
from scarr.data_model import write_dataset


@pytest.fixture(scope="session")
def mini_config():
    # the bundled data/mini: ``scarr simulate --seed 7 --days 90``
    return dataclasses.replace(oracle.SimulationConfig(seed=7), n_days=90)


@pytest.fixture(scope="session")
def mini_dataset(mini_config):
    dataset, truth = oracle.simulate_step1_dataset(mini_config)
    return dataset, truth


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
