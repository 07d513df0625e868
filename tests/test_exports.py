"""The public namespace: `bgt.__all__` names exactly what `bgt` exports."""

import inspect

import bgt


def test_all_is_sorted_unique_and_resolves():
    names = bgt.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(bgt, name), name


def test_every_public_function_and_class_is_listed():
    public = {
        name
        for name, obj in vars(bgt).items()
        if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
    }
    assert public - set(bgt.__all__) == set()
