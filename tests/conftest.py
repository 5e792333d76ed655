"""Session setup shared by every test module.

When a hypothesis test fails, hypothesis's pytest plugin imports
hypothesis.extra._patching to suggest an explicit example.  That module
imports libcst, whose mypy_extensions import raises a DeprecationWarning, and
pyproject.toml turns DeprecationWarnings into errors: the import would then
fail inside the plugin's report hook, end the session with an INTERNALERROR
and hide both the failure and every later test.  Importing it once here, with
that warning ignored, leaves it cached for the plugin.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
