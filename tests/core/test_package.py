"""``repro.core`` resolves its public names lazily, one submodule at a time."""

import importlib
import inspect

import pytest

import repro.core


class TestLazyPackageImport:
    def test_every_public_name_is_its_defining_submodules_object(self):
        for name in repro.core.__all__:
            submodule = importlib.import_module("repro.core." + repro.core._EXPORTS[name])
            value = getattr(repro.core, name)
            assert value is getattr(submodule, name)
            if inspect.isclass(value) or inspect.isfunction(value):
                # The docstring audit checks each name where it is defined;
                # the lazy table must not hide an undocumented one.
                assert (inspect.getdoc(value) or "").strip(), name

    def test_star_import_binds_every_public_name(self):
        namespace: dict = {}
        exec("from repro.core import *", namespace)
        assert set(repro.core.__all__) <= set(namespace)
        assert namespace["run_table2"] is repro.core.experiments.run_table2

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError):
            repro.core.NoSuchName
