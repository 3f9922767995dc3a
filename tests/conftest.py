"""Session setup for the test suite.

When a hypothesis property fails, hypothesis' pytest_runtest_makereport
hook imports hypothesis.extra._patching.  Its libcst import warns
(DeprecationWarning: mypy_extensions.TypedDict is deprecated), and under
pyproject's filterwarnings = ["error"] that warning, raised inside the
hook, ended the session in INTERNALERROR and hid every later failure.  The
module is imported here once with that warning ignored, so the hook's
import finds it cached.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        from hypothesis.extra import _patching
    except ImportError:  # no libcst: the hook skips its patch and imports nothing
        pass
    else:
        del _patching  # the module stays in sys.modules, where the hook finds it
