"""Suite-wide test settings: every hypothesis property draws the same
examples on every run (derandomized, so no example database either)."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
