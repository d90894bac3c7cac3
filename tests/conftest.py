import importlib
import pkgutil

import pytest

import spinorbit
from spinorbit import make_space


def package_memos():
    """Every memo in the package: each object with `cache_clear` bound in a
    `spinorbit` module, so a memo added later is found too."""
    memos = {}
    for info in pkgutil.walk_packages(spinorbit.__path__, "spinorbit."):
        for value in vars(importlib.import_module(info.name)).values():
            if callable(getattr(value, "cache_clear", None)):
                memos[id(value)] = value
    return list(memos.values())


def element_builders():
    """The memos of the element builders: `elements._qplate_op` and its three siblings."""
    return [memo for memo in package_memos() if memo.__module__ == "spinorbit.elements"]


@pytest.fixture(autouse=True)
def _cold_memos():
    """Each test starts with every memo of the package empty, so none sees an op or
    a state that an earlier test built (under a patch, say)."""
    for memo in package_memos():
        memo.cache_clear()


@pytest.fixture(scope="session")
def space():
    return make_space(6)


@pytest.fixture(scope="session")
def space4():
    return make_space(4)
