"""Suite-wide settings: hypothesis runs derandomized, with a bounded number
of examples and no example database, so every run checks the same cases."""

from hypothesis import settings

settings.register_profile(
    "suite", derandomize=True, max_examples=150, deadline=None, database=None
)
settings.load_profile("suite")
