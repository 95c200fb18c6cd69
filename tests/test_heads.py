from __future__ import annotations

import numpy as np
import pytest

from epiarg.heads import (
    EmptyClassError,
    HeadConfig,
    PrototypeSet,
    build_mnav_prototypes,
    compute_prototypes,
    io_labels,
    kmeans_nota,
    mnav_classify,
    nearest_per_class,
    nnshot_classify,
    protonet_classify,
    write_prototypes_csv,
)


def random_support(rng, n_tokens=50, n_types=3, d=6):
    """Support with every class populated (labels n_types = O)."""
    rows = rng.normal(size=(n_tokens, d))
    labels = rng.integers(0, n_types + 1, size=n_tokens)
    for c in range(n_types + 1):  # guarantee occupancy
        labels[c] = c
    return rows, labels


class TestComputePrototypes:
    def test_mean_of_two_points(self):
        rows = np.array([[1.0, 0.0], [3.0, 0.0], [0.0, 5.0]])
        labels = np.array([0, 0, 1])  # two A tokens, one O token
        protos = compute_prototypes([(rows, labels)], ["A"])
        np.testing.assert_allclose(protos.type_vectors[0], [2.0, 0.0])
        np.testing.assert_allclose(protos.nota_vectors[0], [0.0, 5.0])

    def test_singleton_prototype_equals_token(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(3, 4))
        labels = np.array([0, 1, 2])
        protos = compute_prototypes([(rows, labels)], ["A", "B"])
        np.testing.assert_array_equal(protos.type_vectors[0], rows[0])
        np.testing.assert_array_equal(protos.type_vectors[1], rows[1])

    def test_direct_averaging_oracle(self):
        """Oracle: per-class python-loop mean over a 50-token support."""
        rng = np.random.default_rng(1)
        rows, labels = random_support(rng, n_tokens=50, n_types=3)
        protos = compute_prototypes([(rows[:30], labels[:30]), (rows[30:], labels[30:])], ["A", "B", "C"])
        for c in range(4):
            members = [rows[i] for i in range(50) if labels[i] == c]
            expected = np.sum(members, axis=0) / len(members)
            actual = protos.type_vectors[c] if c < 3 else protos.nota_vectors[0]
            np.testing.assert_allclose(actual, expected, atol=1e-9)

    def test_empty_class_is_an_error(self):
        rows = np.zeros((2, 3))
        labels = np.array([0, 2])  # type B (index 1) missing
        with pytest.raises(EmptyClassError, match="B"):
            compute_prototypes([(rows, labels)], ["A", "B"])

    def test_missing_o_tokens_is_an_error(self):
        rows = np.zeros((2, 3))
        labels = np.array([0, 1])
        with pytest.raises(EmptyClassError, match="O"):
            compute_prototypes([(rows, labels)], ["A", "B"])


class TestProtonetClassify:
    def test_forced_by_distances(self):
        protos = PrototypeSet(("A",), np.array([[2.0, 0.0]]), np.array([[0.0, 0.0]]))
        out = protonet_classify(protos, np.array([[1.9, 0.0]]))
        assert out.labels.tolist() == [0]

    def test_tie_goes_to_type_not_o(self):
        protos = PrototypeSet(("A",), np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]]))
        out = protonet_classify(protos, np.array([[0.0, 0.0]]))
        assert out.labels.tolist() == [0]

    def test_exhaustive_scan_oracle(self):
        """Oracle: per-token python loop over every prototype."""
        rng = np.random.default_rng(2)
        protos = PrototypeSet(
            ("A", "B", "C"), rng.normal(size=(3, 5)), rng.normal(size=(1, 5))
        )
        query = rng.normal(size=(200, 5))
        out = protonet_classify(protos, query)
        alls = protos.matrix
        for t in range(200):
            dists = [float(np.square(query[t] - alls[c]).sum()) for c in range(4)]
            best = int(np.argmin(dists))
            assert out.labels[t] == min(best, 3)
            np.testing.assert_allclose(out.distances[t], dists, atol=1e-9)

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        protos = PrototypeSet(("A", "B"), rng.normal(size=(2, 4)), rng.normal(size=(1, 4)))
        query = rng.normal(size=(50, 4))
        shift = rng.normal(size=4)
        shifted = PrototypeSet(("A", "B"), protos.type_vectors + shift, protos.nota_vectors + shift)
        a = protonet_classify(protos, query)
        b = protonet_classify(shifted, query + shift)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_dimension_mismatch(self):
        protos = PrototypeSet(("A",), np.zeros((1, 3)), np.zeros((1, 3)))
        with pytest.raises(ValueError, match="dimension"):
            protonet_classify(protos, np.zeros((2, 4)))


class TestNNShot:
    def test_single_support_token_labels_everything(self):
        support = [(np.array([[1.0, 1.0]]), np.array([1]))]  # one token of type B
        out = nnshot_classify(support, np.random.default_rng(0).normal(size=(7, 2)), n_types=2)
        assert (out.labels == 1).all()

    def test_identical_token_wins(self):
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(10, 3))
        labels = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0])
        out = nnshot_classify([(rows, labels)], rows[4:5].copy(), n_types=2)
        assert out.labels.tolist() == [1]
        assert out.distances[0, 1] == 0.0

    def test_bruteforce_nearest_neighbor_oracle(self):
        """Oracle: O(T*S) python loop with lowest-global-index tie rule."""
        rng = np.random.default_rng(5)
        s1 = rng.normal(size=(40, 4))
        l1 = rng.integers(0, 4, size=40)
        s2 = rng.normal(size=(60, 4))
        l2 = rng.integers(0, 4, size=60)
        for c in range(4):
            l1[c] = c
        query = rng.normal(size=(300, 4))
        out = nnshot_classify([(s1, l1), (s2, l2)], query, n_types=3)

        rows = np.vstack([s1, s2])
        labels = np.concatenate([l1, l2])
        for t in range(300):
            best_u, best_d = 0, np.inf
            for u in range(rows.shape[0]):
                d = float(np.abs(query[t] - rows[u]).sum())
                if d < best_d:
                    best_u, best_d = u, d
            assert out.labels[t] == labels[best_u]

    def test_nearest_per_class_oracle(self):
        """Oracle: per-class python minimum; ties to the lowest row; an absent class is (+inf, -1)."""
        rng = np.random.default_rng(7)
        rows = rng.integers(0, 3, size=(30, 2)).astype(float)  # small integers force exact ties
        labels = rng.integers(0, 2, size=30)  # class 2 is absent
        query = rng.integers(0, 3, size=(300, 2)).astype(float)
        dmin, umin = nearest_per_class(query, rows, labels, 3)
        assert np.all(dmin[:, 2] == np.inf) and np.all(umin[:, 2] == -1)
        for t in range(300):
            for c in range(2):
                dists = [(float(np.abs(query[t] - rows[u]).sum()), u) for u in np.flatnonzero(labels == c)]
                assert (dmin[t, c], umin[t, c]) == min(dists)

    def test_empty_support_rejected(self):
        with pytest.raises(EmptyClassError):
            nnshot_classify([], np.zeros((1, 2)), n_types=1)


class TestKMeans:
    def test_k1_fixed_point_is_mean(self):
        rng = np.random.default_rng(6)
        points = rng.normal(size=(40, 3))
        result = kmeans_nota(points, k=1, seed=0)
        np.testing.assert_allclose(result.centroids[0], points.mean(axis=0), atol=1e-12)

    def test_two_separated_clouds(self):
        """Oracle: with <=12 points and huge separation, the optimal assignment
        is the cloud membership itself; centroids must be the cloud means."""
        rng = np.random.default_rng(7)
        a = rng.normal(size=(6, 2)) + np.array([100.0, 0.0])
        b = rng.normal(size=(6, 2)) - np.array([100.0, 0.0])
        points = np.vstack([a, b])
        result = kmeans_nota(points, k=2, seed=1)
        got = {tuple(np.round(c, 6)) for c in result.centroids}
        want = {tuple(np.round(a.mean(axis=0), 6)), tuple(np.round(b.mean(axis=0), 6))}
        assert got == want
        # exhaustive check: every point is assigned to its own cloud's centroid
        for i, p in enumerate(points):
            d = np.square(result.centroids - p).sum(axis=1)
            assert result.assignments[i] == int(d.argmin())

    def test_k6_inertia_below_k1(self):
        rng = np.random.default_rng(8)
        points = rng.normal(size=(50, 4))
        k6 = kmeans_nota(points, k=6, seed=2)
        k1 = kmeans_nota(points, k=1, seed=2)
        assert k6.centroids.shape == (6, 4)
        assert np.all(np.isfinite(k6.centroids))
        assert k6.inertia <= k1.inertia

    def test_inertia_monotone_nonincreasing(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            points = rng.normal(size=(int(rng.integers(10, 80)), 3))
            result = kmeans_nota(points, k=int(rng.integers(1, 6)), seed=trial)
            hist = np.array(result.inertia_history)
            assert np.all(np.diff(hist) <= 1e-9)

    def test_fewer_points_than_k(self):
        with pytest.raises(EmptyClassError):
            kmeans_nota(np.zeros((3, 2)), k=4, seed=0)


class TestMNAV:
    def test_k1_reduces_to_protonet(self):
        rng = np.random.default_rng(10)
        rows, labels = random_support(rng, n_tokens=60, n_types=3, d=5)
        query = rng.normal(size=(80, 5))
        protos = compute_prototypes([(rows, labels)], ["A", "B", "C"])
        mnav_protos = build_mnav_prototypes([(rows, labels)], ["A", "B", "C"], k=1, seed=3)
        np.testing.assert_allclose(mnav_protos.nota_vectors, protos.nota_vectors, atol=1e-12)
        a = protonet_classify(protos, query)
        b = mnav_classify(mnav_protos, query)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_query_on_nota_centroid_is_nota(self):
        rng = np.random.default_rng(11)
        protos = PrototypeSet(("A", "B"), rng.normal(size=(2, 3)) + 10, rng.normal(size=(6, 3)))
        query = protos.nota_vectors[3:4].copy()
        out = mnav_classify(protos, query)
        assert out.labels.tolist() == [2]
        assert out.distances[0, 2 + 3] == 0.0

    def test_exhaustive_scan_oracle(self):
        rng = np.random.default_rng(12)
        protos = PrototypeSet(("A", "B"), rng.normal(size=(2, 4)), rng.normal(size=(5, 4)))
        query = rng.normal(size=(100, 4))
        out = mnav_classify(protos, query)
        for t in range(100):
            dists = [float(np.square(query[t] - row).sum()) for row in protos.matrix]
            best = int(np.argmin(dists))
            assert out.labels[t] == min(best, 2)


class TestIOLabelsAndDump:
    def test_io_labels(self):
        from epiarg.corpus import ArgumentSpan

        spans = [ArgumentSpan(1, 3, "A"), ArgumentSpan(4, 5, "B"), ArgumentSpan(6, 7, "Z")]
        labels = io_labels(8, spans, ["A", "B"])
        assert labels.tolist() == [2, 0, 0, 2, 1, 2, 2, 2]  # Z is not active -> O

    def test_prototype_csv(self, tmp_path):
        rng = np.random.default_rng(13)
        protos = PrototypeSet(("A",), rng.normal(size=(1, 3)), rng.normal(size=(2, 3)))
        path = tmp_path / "protos.csv"
        write_prototypes_csv([protos], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "label,dim_0,dim_1,dim_2"
        assert [l.split(",")[0] for l in lines[1:]] == ["A", "NOTA_0", "NOTA_1"]

    def test_head_config_validation(self):
        with pytest.raises(ValueError):
            HeadConfig(name="nope")
        with pytest.raises(ValueError):
            HeadConfig(kmeans_k=0)
        # Configs and checkpoints written with the removed nnshot_include_o switch still load.
        assert HeadConfig.from_dict({"name": "nnshot", "nnshot_include_o": False}) == HeadConfig("nnshot")
