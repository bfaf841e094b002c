"""The package's public name list matches what it exports."""

import quadcolor as qc


def test_all_names_resolve_once():
    # a name deleted from the package but left in __all__ breaks
    # ``from quadcolor import *``
    assert len(qc.__all__) == len(set(qc.__all__))
    missing = [name for name in qc.__all__ if not hasattr(qc, name)]
    assert missing == []
    namespace: dict = {}
    exec("from quadcolor import *", namespace)
    assert set(qc.__all__) <= set(namespace)
