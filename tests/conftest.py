"""Shared fixtures: one synthetic corpus and bank reused across the suite."""

import pytest
from hypothesis import settings

import sparsescene as ss

# Property tests draw the same examples on every run, with no per-example deadline.
settings.register_profile("sparsescene", deadline=None, derandomize=True)
settings.load_profile("sparsescene")


@pytest.fixture(scope="session")
def corpus_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("data") / "desk"
    return ss.generate_corpus(root, seed=0)


@pytest.fixture(scope="session")
def corpus(corpus_root):
    return ss.Corpus.from_dir(corpus_root)


@pytest.fixture(scope="session")
def stft_config(corpus):
    return ss.StftConfig(sample_rate=corpus.sample_rate)


@pytest.fixture(scope="session")
def kmeans_bank(corpus):
    return ss.learn_bank(corpus, "kmeans", 20, seed=0)
