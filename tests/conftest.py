"""Hypothesis runs derandomized: every run of the suite draws the same
examples, so a pass or a failure repeats."""

try:
    import hypothesis
except ImportError:  # the property tests skip themselves
    pass
else:
    hypothesis.settings.register_profile("derandomized", derandomize=True)
    hypothesis.settings.load_profile("derandomized")
