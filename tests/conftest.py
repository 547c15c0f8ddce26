import numpy as np
import pytest
from hypothesis import strategies as st

from craft.anchors import AnchorSet
from craft.core import l2_normalize, make_rng
from craft.dataio import Modality, make_embedding_set


@pytest.fixture
def rng():
    return make_rng(1234)


def unit_rows(rng, n, dim):
    return l2_normalize(rng.standard_normal((n, dim)))


def random_anchors(rng, k, dim, modality=Modality.TEXT):
    return AnchorSet(unit_rows(rng, k, dim), modality,
                     class_names=[f"class_{i:03d}" for i in range(k)])


def orthonormal_anchors(k, dim, modality=Modality.TEXT):
    assert k <= dim
    return AnchorSet(np.eye(dim)[:k], modality,
                     class_names=[f"class_{i:03d}" for i in range(k)])


def toy_embedding_set(vectors, class_ids, modalities, num_classes=None, group_ids=None,
                      domains=None):
    """Hand-rolled embedding set; vectors are normalized for convenience."""
    vectors = l2_normalize(np.asarray(vectors, dtype=np.float64))
    n = vectors.shape[0]
    k = num_classes if num_classes is not None else int(max(class_ids)) + 1
    return make_embedding_set(
        vectors, class_ids,
        [int(m) for m in modalities],
        domains if domains is not None else np.zeros(n, dtype=np.uint8),
        group_ids if group_ids is not None else np.zeros(n, dtype=np.int64),
        [f"class_{i:03d}" for i in range(k)])


def blas_shaped_pairs(seed, cases):
    """Seeded (x, y) pairs at shapes where BLAS blocks and switches kernels:
    m, n up to 700, d up to 300, input scales 0.1-30."""
    rng = make_rng(seed)
    for _ in range(cases):
        m, n = (int(v) for v in rng.integers(1, 701, size=2))
        d = int(rng.integers(1, 301))
        scale = float(rng.uniform(0.1, 30.0))
        yield (scale * rng.standard_normal((m, d)),
               scale * (rng.standard_normal((n, d)) + 0.1))


def byte_edits(size):
    """Strategy: one to three truncations, extensions or overwrites of a
    ``size``-byte file, applied in order by ``apply_edits``."""
    return st.lists(st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, size)),
        st.tuples(st.just("extend"), st.binary(min_size=1, max_size=24)),
        st.tuples(st.just("overwrite"), st.integers(0, size - 1),
                  st.binary(min_size=1, max_size=8))), min_size=1, max_size=3)


def apply_edits(data, edits):
    raw = bytearray(data)
    for edit in edits:
        if edit[0] == "truncate":
            del raw[edit[1]:]
        elif edit[0] == "extend":
            raw += edit[1]
        else:
            raw[edit[1]:edit[1] + len(edit[2])] = edit[2]
    return bytes(raw)
