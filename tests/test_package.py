"""The package's public names."""
import parallelobox


def test_public_names_resolve():
    """Every name of __all__ is an attribute of the package, listed once,
    and a star import binds them all."""
    assert len(set(parallelobox.__all__)) == len(parallelobox.__all__)
    for name in parallelobox.__all__:
        assert getattr(parallelobox, name, None) is not None, name
    namespace = {}
    exec("from parallelobox import *", namespace)
    assert set(parallelobox.__all__) <= set(namespace)
