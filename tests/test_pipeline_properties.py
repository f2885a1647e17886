"""The sd² pipeline on generated inputs: random complexes up to dimension 3
with acyclic matchings from random collapse sequences go through
``shell_sd2_from_dmf`` and ``audit``, and the certificate must be ok with
the critical-face census of the function."""
from hypothesis import given, settings
from hypothesis import strategies as st

from morseshell.engine import shell_sd2_from_dmf
from morseshell.morse import critical_census, dmf_from_matching
from morseshell.verify import audit

from test_morse_properties import complexes, random_collapse_matching


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(complexes(), st.randoms(use_true_random=False))
def test_sd2_shelling_of_a_random_matching_audits_with_its_census(k, rng):
    f = dmf_from_matching(k, random_collapse_matching(k, rng))
    tiling, census = shell_sd2_from_dmf(k, f)
    cert = audit(k, f, tiling)
    assert cert.ok, cert.failures[:3]
    expected = {i: n for i, n in critical_census(k, f).items() if n}
    assert {i: n for i, n in cert.census.critical.items() if n} == expected
    assert census == cert.census
