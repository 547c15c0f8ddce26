"""Static anchors: per-class k-means centroids for images, template means for
text, and their anchor-file serialization."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .core import AnchorError, ClusterError, l2_normalize, pairwise_sq_dists, zero_below_rounding
from .dataio import EmbeddingSet, Modality, make_embedding_set, read_embeddings, write_embeddings

ANCHOR_NAME_PREFIX = "anchor:"

Encoder = Callable[[np.ndarray], np.ndarray]


@dataclass
class AnchorSet:
    """Static anchors for one modality: exactly one unit-norm anchor per
    class, ordered by class id."""

    vectors: np.ndarray  # (K, H)
    modality: Modality
    class_names: list[str]

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def validate(self) -> None:
        if len(self.class_names) != len(self):
            raise AnchorError("static anchor count does not match class names")
        norms = np.linalg.norm(self.vectors, axis=1)
        # written so that a NaN norm fails the check too
        if not np.all(np.abs(norms - 1.0) <= 1e-6):
            raise AnchorError("static anchors must be unit-normalized")


# ---------------------------------------------------------------------------
# k-means


@dataclass
class KMeansResult:
    centroids: np.ndarray  # (m, H)
    assignments: np.ndarray  # (N,)
    objective: float
    iterations_run: int
    objective_history: list[float] = field(default_factory=list)


def _sq_dists_to(points: np.ndarray, sq_norms: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared distances (n, m) from ``points`` (n, d), whose squared norms
    are ``sq_norms``, to ``centroids`` (m, d), in the one-product Gram form
    ``|p|^2 + |c|^2 - 2 p.c``: one GEMM against the few centroids.

    Entries at or below ``pairwise_sq_dists``' rounding bound, which covers
    this form too, are set to 0 (see ``core.zero_below_rounding``), so
    coincident rows give exactly 0 and every entry is >= 0.
    """
    d2 = points @ centroids.T
    d2 *= -2.0
    norms = sq_norms[:, None] + np.einsum("ij,ij->i", centroids, centroids)
    d2 += norms
    return zero_below_rounding(d2, norms, points.shape[1])


def _kmeanspp_seed(points: np.ndarray, sq_norms: np.ndarray, m: int,
                   rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((m, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = _sq_dists_to(points, sq_norms, centroids[:1]).ravel()
    for j in range(1, m):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = points[idx]
        d2 = np.minimum(d2, _sq_dists_to(points, sq_norms, centroids[j:j + 1]).ravel())
    return centroids


def _lex_order(points: np.ndarray) -> np.ndarray:
    """The permutation ``np.lexsort(points.T[::-1])``: rows in lexicographic
    order, column 0 first, ties kept in input order.

    It sorts on the first k columns only, for k = 1, 2, 4, ... up to d, and
    stops at the first k where no two adjacent sorted rows are equal on
    those k columns. Then every k-prefix is distinct, so the full
    comparison of any two rows is decided within the prefix and no tie is
    left for input order to break: the permutation is the full lexsort's.
    At k = d it is the full lexsort. As in the sort, -0.0 equals 0.0. The
    points must be finite: NaN equals nothing, so a tie on it would pass
    unseen.
    """
    d = points.shape[1]
    k = 1
    while True:
        order = np.lexsort(points[:, :k].T[::-1])
        if k == d:
            return order
        prefix = points[order, :k]
        if not (prefix[1:] == prefix[:-1]).all(axis=1).any():
            return order
        k = min(2 * k, d)


def kmeans(points: np.ndarray, m: int, rng: np.random.Generator,
           max_iter: int = 100, tol: float = 1e-8) -> KMeansResult:
    """Lloyd's algorithm with k-means++ seeding.

    Points must be finite. They are put in lexicographic order (column 0
    first) before seeding, so the result is invariant to input order. The
    order sorts on the shortest prefix of 1, 2, 4, ... (or all) columns
    that leaves no two points tied; past it no column can decide, so it is
    ``np.lexsort(points.T[::-1])`` exactly (see ``_lex_order``). Empty
    clusters are re-seeded to the point farthest from the cluster's former
    centroid. The per-iteration objective (sum of squared distances to
    assigned centroids) is non-increasing and recorded in
    ``objective_history``. Every distance pass is one GEMM of the points
    against the centroids (see ``_sq_dists_to``), with the points' squared
    norms taken once per call. The final assignment reads the last
    iteration's distances when the centroids stopped moving exactly, and a
    fresh distance pass otherwise.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] == 0:
        raise ClusterError("points must be a 2-D array with at least one column")
    n = points.shape[0]
    if m < 1:
        raise ClusterError("m must be >= 1")
    if n < m:
        raise ClusterError(f"need at least {m} points, got {n}")
    if not np.isfinite(points).all():
        raise ClusterError("points must be finite")

    order = _lex_order(points)
    points = points[order]
    sq_norms = np.einsum("ij,ij->i", points, points)
    centroids = _kmeanspp_seed(points, sq_norms, m, rng)

    history: list[float] = []
    iterations = 0
    movement = np.inf
    for _ in range(max_iter):
        iterations += 1
        d2 = _sq_dists_to(points, sq_norms, centroids)
        assignments = np.argmin(d2, axis=1)
        objective = float(d2[np.arange(n), assignments].sum())
        if history and objective > history[-1] + 1e-9:
            raise ClusterError("k-means objective increased; numerical fault")
        history.append(objective)

        new_centroids = centroids.copy()
        counts = np.bincount(assignments, minlength=m)
        claimed: list[int] = []
        for j in range(m):
            if counts[j]:  # the sum over the count: bitwise ``mean(axis=0)``
                new_centroids[j] = np.add.reduce(points[assignments == j], axis=0) / counts[j]
            else:
                dist = _sq_dists_to(points, sq_norms, centroids[j:j + 1]).ravel()
                dist[claimed] = -np.inf
                far = int(np.argmax(dist))
                claimed.append(far)
                new_centroids[j] = points[far]
        movement = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if movement < tol:
            break

    if movement != 0.0:  # else the last d2 is already that of the final centroids
        d2 = _sq_dists_to(points, sq_norms, centroids)
        assignments = np.argmin(d2, axis=1)
        objective = float(d2[np.arange(n), assignments].sum())
    history.append(objective)

    inverse = np.empty_like(order)
    inverse[order] = np.arange(n)
    return KMeansResult(centroids=centroids, assignments=assignments[inverse],
                        objective=objective, iterations_run=iterations,
                        objective_history=history)


# ---------------------------------------------------------------------------
# Static anchor construction


def build_static_image_anchors(emb_set: EmbeddingSet, rng: np.random.Generator,
                               centroids_per_class: int = 1) -> AnchorSet:
    """Per class: k-means the image records and keep one normalized
    representative, the centroid nearest the class mean."""
    anchors = np.empty((emb_set.num_classes, emb_set.dim))
    for c, (name, rows) in enumerate(zip(emb_set.class_names, emb_set.class_rows(Modality.IMAGE))):
        feats = emb_set.vectors[rows]
        if feats.shape[0] == 0:
            raise ClusterError(f"class {name} has no image records")
        centroids = kmeans(feats, centroids_per_class, rng).centroids
        nearest = np.argmin(pairwise_sq_dists(centroids, feats.mean(axis=0)[None, :]))
        anchors[c] = l2_normalize(centroids[nearest])
    return AnchorSet(anchors, Modality.IMAGE, class_names=list(emb_set.class_names))


def build_static_text_anchors(emb_set: EmbeddingSet, encoder: Encoder | None = None) -> AnchorSet:
    """Per class: normalized mean of the encoded text (template) records; a
    class with no text records or a zero mean is an AnchorError naming it."""
    anchors = np.empty((emb_set.num_classes, emb_set.dim))
    for c, (name, rows) in enumerate(zip(emb_set.class_names, emb_set.class_rows(Modality.TEXT))):
        feats = emb_set.vectors[rows]
        if feats.shape[0] == 0:
            raise AnchorError(f"class {name} has no text records")
        if encoder is not None:
            feats = encoder(feats)
        mean = feats.mean(axis=0)
        if not mean.any():  # exactly the vectors l2_normalize refuses
            raise AnchorError(f"the text records of class {name} average to a zero vector")
        anchors[c] = l2_normalize(mean)
    return AnchorSet(anchors, Modality.TEXT, class_names=list(emb_set.class_names))


# ---------------------------------------------------------------------------
# Serialization: anchors ride in CEMB files with a reserved name prefix.


def write_anchors(path: str | Path, text_anchors: AnchorSet | None = None,
                  image_anchors: AnchorSet | None = None) -> None:
    sets = [a for a in (text_anchors, image_anchors) if a is not None]
    if not sets:
        raise AnchorError("nothing to write")
    names = sets[0].class_names
    for a in sets:
        a.validate()
        if a.class_names != names:
            raise AnchorError("anchor sets disagree on class names")
    vectors = np.concatenate([a.vectors for a in sets])
    class_ids = np.concatenate([np.arange(len(a)) for a in sets])
    modalities = np.concatenate([np.full(len(a), int(a.modality), dtype=np.uint8) for a in sets])
    emb = make_embedding_set(
        vectors, class_ids, modalities,
        np.zeros(len(class_ids), dtype=np.uint8), np.zeros(len(class_ids), dtype=np.int64),
        [ANCHOR_NAME_PREFIX + n for n in names])
    write_embeddings(emb, path)


def read_anchors(path: str | Path) -> tuple[AnchorSet | None, AnchorSet | None]:
    """Returns (text_anchors, image_anchors); either may be absent."""
    emb = read_embeddings(path)
    names = []
    for n in emb.class_names:
        if not n.startswith(ANCHOR_NAME_PREFIX):
            raise AnchorError(f"{path}: class {n!r} lacks the {ANCHOR_NAME_PREFIX!r} prefix")
        names.append(n[len(ANCHOR_NAME_PREFIX):])

    def extract(modality: Modality) -> AnchorSet | None:
        mask = emb.modality_mask(modality)
        if not mask.any():
            return None
        ids = emb.class_ids[mask]
        if sorted(ids.tolist()) != list(range(emb.num_classes)):
            raise AnchorError(f"{path}: expected exactly one {modality.name.lower()} anchor per class")
        vectors = np.empty((emb.num_classes, emb.dim))
        vectors[ids] = l2_normalize(emb.vectors[mask])
        return AnchorSet(vectors, modality, class_names=names)

    return extract(Modality.TEXT), extract(Modality.IMAGE)
