import pathlib
import sys
import warnings

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

# hypothesis's pytest plugin imports this module when a property test
# fails, to print the falsifying example.  With libcst installed, that
# import raises a DeprecationWarning of libcst's own, which under
# ``-W error`` aborts the session before the example is printed.  Import
# it here once, with that warning ignored; no filter for other code
# changes.
try:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401
except ImportError:
    pass
