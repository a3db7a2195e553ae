"""Draws the engine fuzz once failed, replayed as ``@example`` cases.

Each entry is the keyword arguments of one failing draw of
``test_engine_fuzz.test_engines_render_the_same_report`` (every drawn
argument, none of the fixtures).  A new failure found by a random run
is added here before it is fixed, so the regression stays pinned.
"""

FAILED_DRAWS = []
