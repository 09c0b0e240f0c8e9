"""The names distmlc exports."""
import distmlc


def test_every_exported_name_resolves_once():
    assert len(distmlc.__all__) == len(set(distmlc.__all__))
    missing = [name for name in distmlc.__all__ if not hasattr(distmlc, name)]
    assert missing == []
