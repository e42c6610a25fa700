"""The package's public names: every export resolves and is listed once."""

from collections import Counter

import cavityssh


def test_every_export_resolves_and_appears_once():
    repeated = sorted(name for name, n in Counter(cavityssh.__all__).items() if n > 1)
    assert repeated == []
    missing = sorted(name for name in cavityssh.__all__ if not hasattr(cavityssh, name))
    assert missing == []
