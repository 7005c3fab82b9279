"""Same inputs and seed => same bytes, for every stage of the pipeline.

Each stage runs once on the fixtures and the sha256 of every output is
compared against a pinned value. A refactor that changes any output byte,
a record order, a float rendering or a stats line fails here; a deliberate
change of an output format has to re-pin the affected hash. The stages and
the pins live in ``fixture_pipeline.py``, which ``tools/check_versions.py``
also runs under other interpreters.
"""

from __future__ import annotations

import hashlib

import pytest

from fixture_pipeline import PINNED, run_pipeline


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict[str, bytes]:
    return run_pipeline(tmp_path_factory.mktemp("pipeline"))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_output_bytes_are_pinned(outputs, name):
    assert outputs[name], f"{name} is empty"
    assert hashlib.sha256(outputs[name]).hexdigest() == PINNED[name]
