"""Suite-wide hypothesis settings.

The explain phase re-runs a failing example many times to annotate it,
which over large fractions turns a failure report into minutes of work;
every other phase, and each test's own settings, stay as they are.
"""

from hypothesis import Phase, settings

settings.register_profile("trapmeasure", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("trapmeasure")
