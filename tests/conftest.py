"""Hypothesis profiles for the test suite.

``--hypothesis-profile=ci`` runs ten times the default number of examples in
every property test that does not fix ``max_examples`` itself.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=10 * settings.default.max_examples)
