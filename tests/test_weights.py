"""The weight perturbation's scale: unchanged up to 511 edges, and large
enough at every size that ``restore`` recovers exact cut weights."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from surfcut import weights


def test_scale_is_unchanged_below_512_edges():
    assert all(weights.scale(m) == weights.SCALE for m in range(1, 512))
    assert weights.scale(512) > weights.SCALE


def test_residue_range_fits_every_size():
    for m in range(1, 10 ** 4 + 1):
        s = weights.scale(m)
        top = s // weights._margin(m) - 1     # the largest residue possible
        assert top + 1 >= m, m
        assert 4 * (m + 1) * top < s, m


def test_residues_distinct_and_small():
    for m in (1, 2, 511, 512, 594, 2000, 4097, 10 ** 4):
        rs = weights.residues(m, seed=m)
        assert len(set(rs)) == m
        assert 4 * (m + 1) * max(rs) < weights.scale(m)


@settings(max_examples=60, deadline=None)
@given(m=st.sampled_from([511, 512, 594, 2000]),
       seed=st.integers(0, 2 ** 32 - 1),
       max_weight=st.sampled_from([1, 100, 2 ** 40]),
       every_edge_four_times=st.booleans())
def test_restore_is_exact_for_edge_multisets(m, seed, max_weight,
                                             every_edge_four_times):
    rng = random.Random(seed)
    ws = [rng.randint(1, max_weight) for _ in range(m)]
    pw = weights.perturb(ws, seed)
    if every_edge_four_times:
        mult = [4] * m
    else:
        mult = [rng.randint(0, 4) for _ in range(m)]
    total = sum(k * w for k, w in zip(mult, ws))
    assert weights.restore(sum(k * p for k, p in zip(mult, pw)), m) == total
