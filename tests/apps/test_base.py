"""Proxy-application framework tests."""

import pytest

from repro.apps import ALL_APPS, APPS_BY_NAME, PROXY_APPS
from repro.apps.base import ProxyApp, make_result
from repro.core.configs import sweep_configs
from repro.engine import memo
from repro.exec.executor import execute_with_engine
from repro.exec.plan import DGPU, RunSpec
from repro.hardware.device import make_apu_platform
from repro.hardware.specs import Precision
from repro.models.base import ExecutionContext


class TestRegistry:
    def test_five_apps_in_paper_order(self):
        assert [app.name for app in ALL_APPS] == [
            "read-benchmark", "LULESH", "CoMD", "XSBench", "miniFE",
        ]

    def test_proxy_apps_exclude_microbenchmark(self):
        assert [app.name for app in PROXY_APPS] == ["LULESH", "CoMD", "XSBench", "miniFE"]

    def test_lookup_by_name(self):
        assert APPS_BY_NAME["CoMD"].n_kernels == 3


class TestDescriptors:
    @pytest.mark.parametrize("app", ALL_APPS, ids=lambda a: a.name)
    def test_command_lines_match_table1(self, app):
        expected = {
            "read-benchmark": "./read-benchmark",
            "LULESH": "./LULESH -s 100 -i 100",
            "CoMD": "./CoMD -x 60 -y 60 -z 60",
            "XSBench": "./XSBench -s small",
            "miniFE": "./miniFE -nx 100 -ny 100 -nz 100",
        }
        assert app.command_line == expected[app.name]

    @pytest.mark.parametrize("app", ALL_APPS, ids=lambda a: a.name)
    def test_has_core_ports(self, app):
        for model in ("Serial", "OpenMP", "OpenCL", "C++ AMP", "OpenACC"):
            assert model in app.ports, (app.name, model)

    @pytest.mark.parametrize("app", ALL_APPS, ids=lambda a: a.name)
    def test_configs_constructible(self, app):
        assert app.default_config() is not None
        assert app.paper_config() is not None

    def test_boundedness_labels(self):
        labels = {app.name: app.boundedness for app in PROXY_APPS}
        assert labels == {
            "LULESH": "Balanced", "CoMD": "Compute",
            "XSBench": "Compute", "miniFE": "Memory",
        }


class TestRun:
    def test_unknown_model_raises(self):
        app = APPS_BY_NAME["read-benchmark"]
        with pytest.raises(KeyError, match="no port"):
            app.run("CUDA", make_apu_platform(), Precision.SINGLE)

    def test_run_returns_result(self):
        app = APPS_BY_NAME["read-benchmark"]
        result = app.run("OpenMP", make_apu_platform(), Precision.SINGLE)
        assert result.app == "read-benchmark"
        assert result.model == "OpenMP"
        assert result.seconds > 0
        assert result.kernel_seconds <= result.seconds


class TestChecksumContract:
    """``make_result`` evaluates a port's checksum only when kernels ran;
    projection-mode results carry a defined ``0.0``."""

    @staticmethod
    def spy():
        calls = []

        def checksum():
            calls.append(None)
            return 42.5

        return checksum, calls

    @pytest.mark.parametrize("execute_kernels", [True, False])
    def test_checksum_evaluated_only_when_kernels_run(self, execute_kernels):
        ctx = ExecutionContext(
            platform=make_apu_platform(),
            precision=Precision.SINGLE,
            execute_kernels=execute_kernels,
        )
        checksum, calls = self.spy()
        result = make_result("read-benchmark", ctx, "OpenMP", 1.0, checksum)
        if execute_kernels:
            assert len(calls) == 1
            assert result.checksum == 42.5
        else:
            assert calls == []
            assert result.checksum == 0.0

    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    def test_every_projection_port_reports_zero(self, engine):
        runs = [
            RunSpec(app.name, model, DGPU, Precision.SINGLE,
                    sweep_configs()[app.name], projection=True)
            for app in ALL_APPS
            for model in app.ports
        ]
        memo.clear_caches()
        try:
            outcomes, stats = execute_with_engine(engine, runs)
        finally:
            memo.clear_caches()
        assert not stats.failures
        checksums = {outcome.spec.label: outcome.result.checksum for outcome in outcomes}
        assert len(checksums) == len(runs) == 35
        assert set(checksums.values()) == {0.0}, checksums
