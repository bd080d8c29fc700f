"""Test-suite set-up: the benchmark's exact oracles and the Hypothesis profiles.

``bench/`` goes on the import path once, so that ``tests/support.py`` and the
tests reach ``exact`` and ``oracles``, the benchmark's dict arithmetic, which
imports nothing from projvf. ``--hypothesis-profile=ci`` runs ten times the
default number of examples in every property test that does not fix
``max_examples`` itself.
"""

import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

settings.register_profile("ci", max_examples=10 * settings.default.max_examples)
