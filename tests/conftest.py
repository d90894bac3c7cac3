import pytest

from spinorbit import elements, make_space


@pytest.fixture(autouse=True)
def _cold_element_memos():
    """Each test starts with the element builders' memos empty, so none sees an op
    that an earlier test built (under a patch, say)."""
    for builder in elements._BUILDERS:
        builder.cache_clear()


@pytest.fixture(scope="session")
def space():
    return make_space(6)


@pytest.fixture(scope="session")
def space4():
    return make_space(4)
