"""Public-API integrity: exports exist, are documented, and stay stable."""

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.xmltree",
    "repro.xpath",
    "repro.boolexpr",
    "repro.fragments",
    "repro.distsim",
    "repro.core",
    "repro.stream",
    "repro.placement",
    "repro.serving",
    "repro.obs",
    "repro.loadgen",
    "repro.workloads",
    "repro.bench",
]


@pytest.mark.parametrize("package", PACKAGES)
class TestExports:
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        assert hasattr(module, "__all__"), f"{package} must declare __all__"
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name} missing"

    def test_package_docstring(self, package):
        module = importlib.import_module(package)
        assert module.__doc__ and len(module.__doc__.strip()) > 40

    def test_public_callables_documented(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{package}.{name} lacks a docstring"


class TestEveryModuleImports:
    def test_walk_all_modules(self):
        failures = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            try:
                importlib.import_module(info.name)
            except Exception as error:  # pragma: no cover - report below
                failures.append((info.name, error))
        assert not failures, failures


class TestVersion:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2


class TestPublicClassesDocumentMethods:
    @pytest.mark.parametrize(
        "cls_path",
        [
            "repro.xmltree.node.XMLNode",
            "repro.xmltree.tree.XMLTree",
            "repro.xpath.qlist.QList",
            "repro.fragments.fragment.FragmentedTree",
            "repro.fragments.source_tree.SourceTree",
            "repro.distsim.cluster.Cluster",
            "repro.core.vectors.VectorTriplet",
            "repro.stream.maintainer.StreamMaintainer",
        ],
    )
    def test_public_methods_have_docstrings(self, cls_path):
        module_name, cls_name = cls_path.rsplit(".", 1)
        cls = getattr(importlib.import_module(module_name), cls_name)
        undocumented = [
            name
            for name, member in inspect.getmembers(cls, inspect.isfunction)
            if not name.startswith("_") and not member.__doc__
        ]
        assert not undocumented, f"{cls_path}: undocumented methods {undocumented}"


class TestRemovedKnobsStayRemoved:
    """The evaluation tier has one dispatch wire and one site pass, the
    serving tier one coordinator; the knobs that once selected a second
    path or a pool must not creep back."""

    def test_gateway_constructor(self):
        from repro.serving.gateway import Gateway

        signature = inspect.signature(Gateway.__init__)
        assert list(signature.parameters) == [
            "self",
            "cluster",
            "endpoints",
            "host",
            "port",
            "max_inflight",
            "max_queue",
            "site_timeout",
            "default_engine",
        ]

    def test_serving_cluster_constructor(self):
        from repro.serving.cluster import ServingCluster

        signature = inspect.signature(ServingCluster.__init__)
        assert list(signature.parameters) == [
            "self",
            "cluster",
            "replicas",
            "site_mode",
            "host",
            "gateway_port",
            "max_inflight",
            "max_queue",
            "site_timeout",
            "default_engine",
            "proxy_factory",
        ]

    def test_coordinator_constructor(self):
        from repro.serving.coordinator import Coordinator

        signature = inspect.signature(Coordinator.__init__)
        assert list(signature.parameters) == [
            "self",
            "cluster",
            "endpoints",
            "site_timeout",
            "connect_timeout",
            "registry",
        ]

    def test_process_executor_constructor(self):
        from repro.distsim.executors import ProcessSiteExecutor

        signature = inspect.signature(ProcessSiteExecutor.__init__)
        assert list(signature.parameters) == ["self", "max_workers", "warm"]

    def test_site_bottom_up_parameters(self):
        from repro.core.bottom_up import site_bottom_up

        signature = inspect.signature(site_bottom_up)
        assert list(signature.parameters) == ["residents", "qlist", "algebra"]


class TestExamplesAreRunnableModules:
    @pytest.mark.parametrize(
        "script",
        [
            "quickstart",
            "stock_portfolio",
            "pubsub_filtering",
            "temporal_versions",
            "distributed_selection",
        ],
    )
    def test_example_has_main(self, script, tmp_path):
        import pathlib
        import sys

        examples = pathlib.Path(__file__).resolve().parent.parent / "examples"
        sys.path.insert(0, str(examples))
        try:
            module = importlib.import_module(script)
            assert hasattr(module, "main")
            assert module.__doc__
        finally:
            sys.path.remove(str(examples))
            for name in list(sys.modules):
                if name == script:
                    del sys.modules[name]
