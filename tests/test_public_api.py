import bcrb


def test_every_export_resolves():
    missing = [name for name in bcrb.__all__ if not hasattr(bcrb, name)]
    assert missing == []


def test_exports_listed_once():
    assert len(bcrb.__all__) == len(set(bcrb.__all__))

