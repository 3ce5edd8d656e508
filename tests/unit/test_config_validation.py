"""Non-finite configuration values are rejected where a config is built."""

import math

import pytest

from repro.api import Session
from repro.core.ghost import GHOSTConfig
from repro.core.tron import TRONConfig
from repro.errors import ConfigurationError

NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("config_cls", (TRONConfig, GHOSTConfig))
@pytest.mark.parametrize("value", NON_FINITE)
def test_non_finite_clock_rejected(config_cls, value):
    with pytest.raises(ConfigurationError, match="clock must be > 0 GHz"):
        config_cls(clock_ghz=value)


@pytest.mark.parametrize("value", NON_FINITE)
def test_ghost_non_finite_random_access_penalty_rejected(value):
    with pytest.raises(
        ConfigurationError, match="random access penalty must be >= 1"
    ):
        GHOSTConfig(random_access_penalty=value)


@pytest.mark.parametrize("config_cls", (TRONConfig, GHOSTConfig))
def test_finite_in_range_values_still_accepted(config_cls):
    assert config_cls(clock_ghz=1e-3).clock_ghz == 1e-3
    assert GHOSTConfig(random_access_penalty=1.0).random_access_penalty == 1.0


@pytest.mark.parametrize(
    "workload, platform, overrides",
    [
        ("BERT-base", "tron", {"clock_ghz": math.nan}),
        ("BERT-base", "tron", {"clock_ghz": math.inf}),
        ("GCN-cora", "ghost", {"clock_ghz": math.nan}),
        ("GCN-cora", "ghost", {"random_access_penalty": math.nan}),
    ],
)
def test_session_run_rejects_non_finite_overrides(workload, platform, overrides):
    with pytest.raises(ConfigurationError, match=f"{platform}.overrides"):
        Session().run(workload, platform=platform, overrides=overrides)
