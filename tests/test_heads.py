from __future__ import annotations

import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from epiarg import heads
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
        protos = compute_prototypes((rows, labels), ["A"])
        np.testing.assert_allclose(protos.type_vectors[0], [2.0, 0.0])
        np.testing.assert_allclose(protos.nota_vectors[0], [0.0, 5.0])

    def test_singleton_prototype_equals_token(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(3, 4))
        labels = np.array([0, 1, 2])
        protos = compute_prototypes((rows, labels), ["A", "B"])
        np.testing.assert_array_equal(protos.type_vectors[0], rows[0])
        np.testing.assert_array_equal(protos.type_vectors[1], rows[1])

    def test_direct_averaging_oracle(self):
        """Oracle: per-class python-loop mean over a 50-token support."""
        rng = np.random.default_rng(1)
        rows, labels = random_support(rng, n_tokens=50, n_types=3)
        protos = compute_prototypes((rows, labels), ["A", "B", "C"])  # documents of 30 and 20 tokens, stacked
        for c in range(4):
            members = [rows[i] for i in range(50) if labels[i] == c]
            expected = np.sum(members, axis=0) / len(members)
            actual = protos.type_vectors[c] if c < 3 else protos.nota_vectors[0]
            np.testing.assert_allclose(actual, expected, atol=1e-9)

    def test_empty_class_is_an_error(self):
        rows = np.zeros((2, 3))
        labels = np.array([0, 2])  # type B (index 1) missing
        with pytest.raises(EmptyClassError, match="B"):
            compute_prototypes((rows, labels), ["A", "B"])

    def test_missing_o_tokens_is_an_error(self):
        rows = np.zeros((2, 3))
        labels = np.array([0, 1])
        with pytest.raises(EmptyClassError, match="O"):
            compute_prototypes((rows, labels), ["A", "B"])


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
        support = (np.array([[1.0, 1.0]]), np.array([1]))  # one token of type B
        out = nnshot_classify(support, np.random.default_rng(0).normal(size=(7, 2)), n_types=2)
        assert (out.labels == 1).all()

    def test_identical_token_wins(self):
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(10, 3))
        labels = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0])
        out = nnshot_classify((rows, labels), rows[4:5].copy(), n_types=2)
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
        rows = np.vstack([s1, s2])  # two support documents, stacked in order
        labels = np.concatenate([l1, l2])
        out = nnshot_classify((rows, labels), query, n_types=3)

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
            nnshot_classify((np.zeros((0, 2)), np.zeros(0, dtype=np.int64)), np.zeros((1, 2)), n_types=1)


def broadcast_nearest_per_class(query, rows, labels, n_classes):
    """Reference: numpy's own broadcast L1 sum, then a fancy-indexed argmin per class."""
    dist = np.abs(query[:, None, :] - rows[None, :, :]).sum(axis=2)
    dmin = np.full((query.shape[0], n_classes), np.inf)
    umin = np.full((query.shape[0], n_classes), -1, dtype=np.int64)
    for c in range(n_classes):
        idx = np.flatnonzero(labels == c)
        if idx.size:
            umin[:, c] = idx[dist[:, idx].argmin(axis=1)]
            dmin[:, c] = dist[np.arange(query.shape[0]), umin[:, c]]
    return dmin, umin


class TestL1Kernel:
    """``nearest_per_class`` screens in float32 and settles its candidates on numpy's own sums, so it
    must match numpy bit for bit."""

    @pytest.mark.parametrize("budget", ["module", 0])  # 0 forces one query row per block
    @pytest.mark.parametrize("d", [3, 8, 13, 32, 64, 100, 129, 200])
    def test_bit_identical_to_broadcast_sum(self, d, budget, monkeypatch):
        if budget != "module":
            monkeypatch.setattr(heads, "_L1_BLOCK_BYTES", budget)
        rng = np.random.default_rng(d)
        scales = 10.0 ** rng.uniform(-3, 3, size=d)  # mixed magnitudes make the summation order show
        rows = rng.normal(size=(300, d)) * scales
        rows[:40] = np.round(rows[:40])  # whole numbers give exact ties
        labels = rng.integers(0, 4, size=300)  # class 4 is absent
        # 401 and 61 are prime: no block size divides them. Above 128 dimensions numpy sums each
        # row in halves; 61 query rows keep the reference tensor within about 16 MB there.
        query = rng.normal(size=(401 if d <= 128 else 61, d)) * scales
        query[:50] = rows[:50]  # zero distances and exact ties
        dmin, umin = nearest_per_class(query, rows, labels, 5)
        ref_d, ref_u = broadcast_nearest_per_class(query, rows, labels, 5)
        assert np.array_equal(dmin, ref_d)
        assert np.array_equal(umin, ref_u)
        assert np.all(dmin[:, 4] == np.inf) and np.all(umin[:, 4] == -1)

    def test_one_row_support(self):
        rng = np.random.default_rng(3)
        rows, query = rng.normal(size=(1, 13)), rng.normal(size=(7, 13))
        dmin, umin = nearest_per_class(query, rows, np.array([1]), 3)
        assert np.array_equal(dmin[:, 1], np.abs(query - rows[0]).sum(axis=1))
        assert np.all(umin[:, 1] == 0)
        assert np.all(dmin[:, [0, 2]] == np.inf) and np.all(umin[:, [0, 2]] == -1)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize(
        "n_query, budget",
        [(401, "module"), (2, "module"), (1, "module"), (97, 0)],  # 97 rows at one row a block: many blocks a thread
    )
    def test_threads_bit_identical_to_broadcast_sum(self, cpus, n_query, budget, monkeypatch):
        """Every split of the query rows across threads gives numpy's bits, and no thread outlives the call."""
        monkeypatch.setattr(heads, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(heads, "_L1_THREAD_MIN_WORK", 0)
        if budget != "module":
            monkeypatch.setattr(heads, "_L1_BLOCK_BYTES", budget)
        pools = []

        def pool(*args):
            pools.append(args)
            return ThreadPoolExecutor(*args)

        monkeypatch.setattr(heads, "ThreadPoolExecutor", pool)
        rng = np.random.default_rng(n_query)
        rows = rng.normal(size=(300, 32)) * 10.0 ** rng.uniform(-3, 3, size=32)
        labels = rng.integers(0, 4, size=300)
        query = rng.normal(size=(n_query, 32))
        query[0] = rows[0]
        before = threading.active_count()
        dmin, umin = nearest_per_class(query, rows, labels, 5)
        assert threading.active_count() == before
        assert pools == ([(min(cpus, n_query) - 1,)] if min(cpus, n_query) > 1 else [])
        ref_d, ref_u = broadcast_nearest_per_class(query, rows, labels, 5)
        assert np.array_equal(dmin, ref_d)
        assert np.array_equal(umin, ref_u)

    def test_small_kernel_stays_on_calling_thread(self, monkeypatch):
        def no_pool(*args):
            raise AssertionError("no executor below the work threshold")

        monkeypatch.setattr(heads, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(heads, "ThreadPoolExecutor", no_pool)
        rng = np.random.default_rng(5)
        rows, labels = rng.normal(size=(40, 32)), rng.integers(0, 3, size=40)
        query = rng.normal(size=(heads._L1_THREAD_MIN_WORK // (40 * 32) - 1, 32))
        dmin, umin = nearest_per_class(query, rows, labels, 3)
        ref_d, ref_u = broadcast_nearest_per_class(query, rows, labels, 3)
        assert np.array_equal(dmin, ref_d) and np.array_equal(umin, ref_u)

    def test_error_in_a_worker_share_reaches_the_caller(self, monkeypatch):
        screen = heads._screen

        def fail_off_main(*args):
            if threading.current_thread() is not threading.main_thread():
                raise FloatingPointError("worker share failed")
            return screen(*args)

        monkeypatch.setattr(heads, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(heads, "_L1_THREAD_MIN_WORK", 0)
        monkeypatch.setattr(heads, "_screen", fail_off_main)
        rng = np.random.default_rng(6)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="worker share failed"):
            nearest_per_class(rng.normal(size=(10, 8)), rng.normal(size=(20, 8)), rng.integers(0, 2, size=20), 2)
        assert threading.active_count() == before

    @pytest.mark.parametrize("d", [8, 32, 64])
    def test_working_memory_within_budget(self, d, monkeypatch, cpus=1):
        """Within budget whether few pairs are candidates or every pair is: identical support rows
        tie everywhere, and ~1e-300 rows are all zero in the float32 screen."""
        monkeypatch.setattr(heads, "_usable_cpus", lambda: cpus)
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(2000, d))
        labels = rng.integers(0, 4, size=2000)
        query = rng.normal(size=(300, d))
        identical = np.tile(rows[:1], (2000, 1))
        for support, queries in [(rows, query), (identical, query), (rows * 1e-300, query * 1e-300)]:
            tracemalloc.start()
            try:
                dmin, umin = nearest_per_class(queries, support, labels, 4)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= heads._L1_BLOCK_BYTES + dmin.nbytes + umin.nbytes

    @pytest.mark.parametrize("d", [8, 32, 64])
    def test_threads_share_one_memory_budget(self, d, monkeypatch):
        self.test_working_memory_within_budget(d, monkeypatch, cpus=2)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf and overflow, on purpose
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize(
        "case",
        ["ulp_apart", "integer_grid", "spread", "past_f32_safe", "non_finite", "tiny", "one_dimension", "float32"],
    )
    def test_near_ties_bit_identical_to_broadcast_sum(self, case, cpus, monkeypatch):
        """The screen keeps every row that can tie numpy's class minimum, and the all-candidates path
        settles every pair, down to the last bit and the lowest index."""
        monkeypatch.setattr(heads, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(heads, "_L1_THREAD_MIN_WORK", 0)
        query, rows = near_tie_inputs(case, np.random.default_rng(len(case)))
        labels = np.random.default_rng(cpus).integers(0, 4, size=rows.shape[0])
        dmin, umin = nearest_per_class(query, rows, labels, 5)
        ref_d, ref_u = broadcast_nearest_per_class(query, rows, labels, 5)
        assert np.array_equal(dmin, ref_d, equal_nan=True)
        assert np.array_equal(umin, ref_u)


def near_tie_inputs(case, rng):
    """(query, support rows) on which a float32 screen would pick the wrong row without its slack."""
    if case == "ulp_apart":  # rows 1 ulp apart, and queries halfway between two rows
        base = rng.normal(size=(40, 8))
        rows = np.vstack([base, np.nextafter(base, np.inf), np.nextafter(base, -np.inf), base[::-1]])
        return np.vstack([base, (rows[:80] + rows[80:]) / 2, (base[:-1] + base[1:]) / 2]), rows
    if case == "integer_grid":  # every distance is a small integer: ties everywhere
        grid = rng.integers(0, 3, size=(300, 8)).astype(float)
        return grid[:150], grid[150:]
    if case == "spread":  # entries from 1e-30 to 1e28, below the float32-safe row norm
        mags = 10.0 ** rng.uniform(-30, 28, size=(350, 8)) * rng.choice([-1.0, 1.0], size=(350, 8))
        mags[:50] = mags[200:250]  # zero distances
        return mags[:150], mags[150:]
    if case == "past_f32_safe":  # up to 1e307: float32 overflows, and some float64 sums reach inf
        mags = 10.0 ** rng.uniform(-30, 307, size=(350, 8)) * rng.choice([-1.0, 1.0], size=(350, 8))
        mags[:50] = mags[200:250]
        return mags[:150], mags[150:]
    if case == "non_finite":  # NaN distances rank first, as in argmin
        values = rng.integers(0, 3, size=(350, 8)).astype(float)
        values[rng.random(size=values.shape) < 0.02] = np.nan
        values[rng.random(size=values.shape) < 0.02] = np.inf
        return values[:150], values[150:]
    if case == "tiny":  # subnormal or zero in float32, some subnormal in float64
        mags = 10.0 ** rng.uniform(-320, -36, size=(350, 8)) * rng.choice([-1.0, 1.0], size=(350, 8))
        mags[:50] = mags[200:250]
        return mags[:150], mags[150:]
    if case == "float32":  # numpy sums float32 inputs in float32, past the screen's bound
        query, rows = near_tie_inputs("ulp_apart", rng)
        return query.astype(np.float32), rows.astype(np.float32)
    assert case == "one_dimension"
    values = np.vstack([rng.integers(0, 5, size=(250, 1)).astype(float), rng.normal(size=(100, 1))])
    return values[::2], values[1::2]


def broadcast_kmeans(points, k, seed, max_iters=100):
    """Reference Lloyd's algorithm on exact broadcast distances; also counts empty-cluster re-seeds."""

    def exact(p, c):
        return np.square(p[:, None, :] - c[None, :, :]).sum(axis=2)

    rng = np.random.default_rng(seed)
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[int(rng.integers(points.shape[0]))]
    closest = exact(points, centroids[:1])[:, 0]
    for j in range(1, k):
        total = closest.sum()
        pick = int(rng.choice(points.shape[0], p=closest / total)) if total > 0 else int(rng.integers(points.shape[0]))
        centroids[j] = points[pick]
        closest = np.minimum(closest, exact(points, centroids[j : j + 1])[:, 0])
    assignments = np.full(points.shape[0], -1, dtype=np.int64)
    history, reseeds = [], 0
    for _ in range(max_iters):
        dist = exact(points, centroids)
        new = dist.argmin(axis=1)
        per_point = dist[np.arange(points.shape[0]), new]
        history.append(float(per_point.sum()))
        if np.array_equal(new, assignments):
            break
        assignments = new
        for j in range(k):
            mask = assignments == j
            if mask.any():
                centroids[j] = points[mask].mean(axis=0)
            else:
                centroids[j] = points[int(per_point.argmax())]
                reseeds += 1
    return centroids, assignments, tuple(history), reseeds


class TestKMeansNearTies:
    """The GEMM-ranked Lloyd step must reproduce exact-distance k-means even where distances tie."""

    def check(self, points, k, seed):
        centroids, assignments, history, reseeds = broadcast_kmeans(points, k, seed)
        result = kmeans_nota(points, k, seed)
        assert np.array_equal(result.assignments, assignments)
        assert np.array_equal(result.centroids, centroids)
        assert result.inertia_history == history
        return reseeds

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("offset", [0.0, 1e4])
    def test_integer_grid(self, scale, offset):
        rng = np.random.default_rng(int(scale * 1000) + int(offset))
        for trial in range(5):
            points = rng.integers(0, 3, size=(int(rng.integers(20, 200)), int(rng.choice([2, 5, 64])))) * scale + offset
            self.check(points, int(rng.integers(2, 9)), trial)

    def test_duplicated_points(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            distinct = rng.normal(size=(6, 16))
            points = distinct[rng.integers(0, 6, size=120)]
            self.check(points, 4, trial)

    def test_empty_cluster_reseed(self):
        """Three distinct points and k = 5: duplicate centroids leave clusters empty."""
        points = np.repeat(np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 0.0]]), 4, axis=0)
        assert sum(self.check(points, 5, seed) for seed in range(4)) > 0


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
        protos = compute_prototypes((rows, labels), ["A", "B", "C"])
        mnav_protos = build_mnav_prototypes((rows, labels), ["A", "B", "C"], k=1, seed=3)
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
