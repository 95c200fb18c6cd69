from __future__ import annotations

import math
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import epiarg.inference
import epiarg.trainer
from epiarg.corpus import compute_split
from epiarg.encoder import (
    EncoderConfig,
    chunk_document,
    embed_tokens,
    encode_docs,
    initialize_params,
    window_means_backward,
)
from epiarg.formats import Checkpoint, load_checkpoint, save_checkpoint
from epiarg.heads import (
    EmptyClassError,
    HeadConfig,
    TokenAssignment,
    build_mnav_prototypes,
    compute_prototypes,
    io_labels,
    kmeans_nota,
    mnav_classify,
    mnav_stream,
    nearest_per_class,
    nnshot_classify,
    protonet_classify,
)
from epiarg.sampler import SamplerConfig, generate_episode_set
from epiarg.seeds import substream
from epiarg.synthetic import separable_corpus
from epiarg.trainer import (
    AdamState,
    EpisodeTensors,
    Gradients,
    NumericalError,
    TrainConfig,
    apply_update,
    clip_global_norm,
    episode_loss,
    episode_tensors,
    forward_backward,
    step,
    token_sum,
    train,
)

TEST_ENCODER = EncoderConfig(d_emb=6, d_model=5, radius=1, n_buckets=40, chunk_length=16, init_scale=0.3)


def small_episode(seed, vocab_start=0):
    """Hand-built two-way episode with random tokens but guaranteed class occupancy."""
    from epiarg.corpus import ArgumentSpan, Document
    from epiarg.sampler import Episode

    rng = substream(seed, "episode-fixture")
    vocab = [f"v{i}" for i in range(vocab_start, vocab_start + 12)]

    def doc(doc_id, spans):
        n = 12 + int(rng.integers(8))
        tokens = tuple(vocab[int(rng.integers(len(vocab)))] for _ in range(n))
        return Document(doc_id, doc_id, "e", tokens, tuple(ArgumentSpan(s, e, r) for s, e, r in spans))

    support = (doc("s1", [(2, 4, "A")]), doc("s2", [(1, 2, "B"), (6, 8, "A")]))
    query = (doc("q1", [(3, 5, "B"), (8, 9, "A")]),)
    return Episode(0, ("A", "B"), support, query)


def long_episode(seed):
    """Two-way episode over documents of many chunks, plus a one-token support and a one-token query
    document. One query document repeats a support document's tokens, so its reduced rows sit exactly
    on support rows."""
    from epiarg.corpus import ArgumentSpan, Document
    from epiarg.sampler import Episode

    rng = substream(seed, "long-episode")
    vocab = [f"v{i}" for i in range(30)]

    def doc(doc_id, n, spans):
        tokens = tuple(vocab[int(rng.integers(len(vocab)))] for _ in range(n))
        return Document(doc_id, doc_id, "e", tokens, tuple(ArgumentSpan(s, e, r) for s, e, r in spans))

    repeated = doc("s2", 150, [(5, 9, "B")])
    support = (doc("s1", 330, [(10, 14, "A"), (200, 203, "B")]), repeated, doc("s3", 1, [(0, 1, "A")]))
    query = (doc("q1", 280, [(30, 33, "A"), (100, 104, "B")]), replace(repeated, doc_id="q2"), doc("q3", 1, ()))
    return Episode(0, ("A", "B"), support, query)


def per_document_encoder_backward(params, tensors, mixed, d_hidden):
    """The encoder backward one document at a time: table and projection gradients and touched rows."""
    table, projection = np.zeros(params.encoder.table.shape), np.zeros(params.encoder.projection.shape)
    rows = np.empty(0, dtype=np.int64)
    offset = 0
    plans = tensors.support_plans + tensors.query_plans
    for buckets, plan in zip(tensors.support_buckets + tensors.query_buckets, plans):
        at = slice(offset, offset + len(buckets))
        offset += len(buckets)
        projection += mixed[at].T @ d_hidden[at]
        d_mixed = d_hidden[at] @ params.encoder.projection.T
        np.add.at(table, buckets, window_means_backward(d_mixed, plan, params.encoder.config.radius))
        rows = np.union1d(rows, buckets)
    return table, projection, rows


@pytest.fixture
def token_sums(monkeypatch):
    """The operands of each ``token_sum`` call of the trainer, in call order."""
    calls = []

    def recording(a, b):
        calls.append((a.copy(), b.copy()))
        return token_sum(a, b)

    monkeypatch.setattr(epiarg.trainer, "token_sum", recording)
    return calls


def make_params(seed, head="protonet", d_reduced=3):
    head_cfg = HeadConfig(head, d_reduced=d_reduced, kmeans_k=2)
    params = initialize_params(TEST_ENCODER, head_cfg, substream(seed, "init"))
    return params, head_cfg


def fd_gradients(params, tensors, head_cfg, fixed_nota=None, h=1e-4):
    """Central finite differences through the episode loss, one entry at a time."""
    numeric = {name: np.zeros_like(arr) for name, arr in params.arrays().items()}
    for name, arr in params.arrays().items():
        flat = arr.reshape(-1)
        out = numeric[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = forward_backward(params, tensors, head_cfg, fixed_nota=fixed_nota)
            flat[i] = orig - h
            lm, _ = forward_backward(params, tensors, head_cfg, fixed_nota=fixed_nota)
            flat[i] = orig
            out[i] = (lp - lm) / (2 * h)
    return numeric


def max_relative_error(analytic, numeric):
    worst = 0.0
    for name, ana in analytic.items():
        num = numeric[name]
        denom = np.maximum(np.maximum(np.abs(ana), np.abs(num)), 1e-4)
        worst = max(worst, float((np.abs(ana - num) / denom).max()))
    return worst


def episode_hiddens(params, episode, chunk_length):
    """Embed an episode's documents with the public encoder path."""
    out = []
    for doc in episode.support + episode.query:
        plan = chunk_document(len(doc.tokens), chunk_length)
        out.append(embed_tokens(params.encoder, doc, plan).rows)
    n_support = len(episode.support)
    return np.vstack(out[:n_support]), np.vstack(out[n_support:])


def _clear_of_kinks(values, margin):
    """Exact zeros are safe (both branches move together under perturbation);
    values inside (0, margin) sit too close to a kink for finite differences."""
    values = np.abs(values)
    return not ((values > 0) & (values < margin)).any()


def nnshot_fd_is_safe(params, episode, tensors, margin=1e-5):
    """Reject fixtures where finite differences would step across an L1 or
    argmin kink: class-min gaps and coordinate gaps must stay clear of 0."""
    h_s, h_q = episode_hiddens(params, episode, TEST_ENCODER.chunk_length)
    r_s, r_q = h_s @ params.reducer, h_q @ params.reducer
    labels = tensors.support_labels
    dist = np.abs(r_q[:, None, :] - r_s[None, :, :]).sum(axis=2)
    for c in range(tensors.n_types + 1):
        idx = np.flatnonzero(labels == c)
        sub = np.sort(dist[:, idx], axis=1)
        if sub.shape[1] > 1 and not _clear_of_kinks(sub[:, 1] - sub[:, 0], margin):
            return False
        best = idx[dist[:, idx].argmin(axis=1)]
        if not _clear_of_kinks(r_q - r_s[best], margin):
            return False
    return True


def mnav_fd_is_safe(params, episode, tensors, nota, margin=1e-5):
    _, h_q = episode_hiddens(params, episode, TEST_ENCODER.chunk_length)
    dist = np.sort(np.square(h_q[:, None, :] - nota[None, :, :]).sum(axis=2), axis=1)
    return _clear_of_kinks(dist[:, 1] - dist[:, 0], margin)


class TestEpisodeLoss:
    def test_uniform_distances_give_log_c(self):
        for c in (2, 3, 5):
            assignment = TokenAssignment(
                labels=np.zeros(4, dtype=np.int64),
                distances=np.full((4, c), 3.7),
                n_types=c - 1,
            )
            gold = np.array([0, 1, c - 1, 0])
            assert episode_loss(assignment, gold) == pytest.approx(math.log(c))

    def test_gold_distance_limit_gives_zero(self):
        distances = np.array([[0.0, 1e6, 1e6]])
        assignment = TokenAssignment(np.array([0]), distances, n_types=2)
        assert episode_loss(assignment, np.array([0])) == pytest.approx(0.0, abs=1e-12)

    def test_independent_softmax_ce_oracle(self):
        """Oracle: per-token loop computing -log softmax from scratch."""
        rng = np.random.default_rng(0)
        distances = rng.uniform(0, 5, size=(10, 4))
        gold = rng.integers(0, 4, size=10)
        assignment = TokenAssignment(distances.argmin(axis=1), distances, n_types=3)
        expected = 0.0
        for t in range(10):
            logits = -distances[t]
            probs = np.exp(logits) / np.exp(logits).sum()
            expected -= math.log(probs[gold[t]])
        expected /= 10
        assert episode_loss(assignment, gold) == pytest.approx(expected, abs=1e-9)


class TestGradients:
    def test_protonet_finite_differences(self):
        """Relative error < 1e-4 for every parameter on randomized episodes."""
        for seed in (1, 2, 3):
            params, head_cfg = make_params(seed)
            episode = small_episode(seed)
            tensors = episode_tensors(episode, params, TEST_ENCODER.chunk_length)
            _, grads = forward_backward(params, tensors, head_cfg)
            numeric = fd_gradients(params, tensors, head_cfg)
            assert max_relative_error(grads.arrays(), numeric) < 1e-4

    def test_nnshot_finite_differences(self):
        checked = 0
        seed = 100
        while checked < 2:
            seed += 1
            assert seed < 200, "no kink-free fixture found"
            params, head_cfg = make_params(seed, head="nnshot")
            episode = small_episode(seed)
            tensors = episode_tensors(episode, params, TEST_ENCODER.chunk_length)
            if not nnshot_fd_is_safe(params, episode, tensors):
                continue
            _, grads = forward_backward(params, tensors, head_cfg)
            numeric = fd_gradients(params, tensors, head_cfg, h=1e-6)
            assert max_relative_error(grads.arrays(), numeric) < 1e-4
            checked += 1

    def test_mnav_finite_differences(self):
        """Centroids are recomputed constants, so the check holds them fixed."""
        checked = 0
        seed = 200
        while checked < 2:
            seed += 1
            assert seed < 300, "no kink-free fixture found"
            params, head_cfg = make_params(seed, head="mnav")
            episode = small_episode(seed)
            tensors = episode_tensors(episode, params, TEST_ENCODER.chunk_length)
            h_s, _ = episode_hiddens(params, episode, TEST_ENCODER.chunk_length)
            o_rows = h_s[tensors.support_labels == tensors.n_types]
            nota = kmeans_nota(o_rows, head_cfg.kmeans_k, substream(seed, "nota")).centroids
            if not mnav_fd_is_safe(params, episode, tensors, nota):
                continue
            _, grads = forward_backward(params, tensors, head_cfg, fixed_nota=nota)
            numeric = fd_gradients(params, tensors, head_cfg, fixed_nota=nota, h=1e-6)
            assert max_relative_error(grads.arrays(), numeric) < 1e-4
            checked += 1

    def test_perfect_confidence_gives_zero_gradients(self):
        from epiarg.trainer import _softmax_ce_backward

        logits = np.array([[1e9, 0.0, 0.0], [0.0, 1e9, 0.0]])
        loss, grad = _softmax_ce_backward(logits, np.array([0, 1]))
        assert loss == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_duplicated_support_token_doubles_row_gradient(self):
        """Two positions sharing one table row receive the sum of the
        per-position gradients (equal by symmetry here)."""
        from epiarg.corpus import ArgumentSpan, Document
        from epiarg.sampler import Episode

        def make_ep(support_tokens):
            support = Document(
                "s", "s", "e", tuple(support_tokens), (ArgumentSpan(0, 2, "A"),)
            )
            query = Document("q", "q", "e", ("qa", "o1", "o2"), (ArgumentSpan(0, 1, "A"),))
            return Episode(0, ("A",), (support,), (query,))

        cfg = EncoderConfig(d_emb=4, d_model=4, radius=0, n_buckets=64, chunk_length=8, init_scale=0.3)
        head_cfg = HeadConfig("protonet")
        params = initialize_params(cfg, head_cfg, substream(9, "init"))
        bx, by = params.encoder.bucket_indices(["x", "y"])
        assert bx != by
        params.encoder.table[by] = params.encoder.table[bx]  # identical rows, distinct buckets

        ep_dup = make_ep(["x", "x", "o1", "o2"])
        ep_two = make_ep(["x", "y", "o1", "o2"])
        _, g_dup = forward_backward(params, episode_tensors(ep_dup, params, 8), head_cfg)
        _, g_two = forward_backward(params, episode_tensors(ep_two, params, 8), head_cfg)

        np.testing.assert_allclose(g_two.table[bx], g_two.table[by], atol=1e-12)
        np.testing.assert_allclose(
            g_dup.table[bx], g_two.table[bx] + g_two.table[by], atol=1e-12
        )


class TestStackedBackward:
    """One backward over the episode's stacked rows equals the per-document and per-class loops."""

    @pytest.mark.parametrize("head", ["protonet", "nnshot", "mnav"])
    def test_equals_per_document_loop(self, token_sums, head):
        params, head_cfg = make_params(11, head=head)
        tensors = episode_tensors(long_episode(11), params, TEST_ENCODER.chunk_length)
        assert max(len(plan.chunks) for plan in tensors.support_plans + tensors.query_plans) > 1
        _, grads = forward_backward(params, tensors, head_cfg, nota_rng=3)
        mixed, d_hidden = token_sums[-1]  # the projection gradient's product comes last
        _, expected_mixed = encode_docs(
            params.encoder, tensors.support_buckets + tensors.query_buckets, tensors.support_plans + tensors.query_plans
        )
        np.testing.assert_array_equal(mixed, expected_mixed)
        table, projection, rows = per_document_encoder_backward(params, tensors, mixed, d_hidden)
        np.testing.assert_array_equal(grads.rows, rows)
        np.testing.assert_allclose(grads.table, table, rtol=1e-12)
        np.testing.assert_allclose(grads.projection, projection, rtol=1e-12)

    def test_nnshot_equals_per_class_loop_bit_for_bit(self, token_sums):
        from epiarg.trainer import _softmax_ce_backward

        params, head_cfg = make_params(12, head="nnshot")
        tensors = episode_tensors(long_episode(12), params, TEST_ENCODER.chunk_length)
        forward_backward(params, tensors, head_cfg)
        hidden, d_reduced = token_sums[0]  # the reducer gradient's product
        n_support = len(tensors.support_labels)
        r_support, r_query = np.split(hidden @ params.reducer, [n_support])
        dmin, umin = nearest_per_class(r_query, r_support, tensors.support_labels, tensors.n_types + 1)
        _, dlogits = _softmax_ce_backward(-dmin, tensors.query_labels)
        d_rq, d_rs = np.zeros_like(r_query), np.zeros_like(r_support)
        for c in range(tensors.n_types + 1):
            sel = umin[:, c]
            weighted = -dlogits[:, c][:, None] * np.sign(r_query - r_support[sel])
            d_rq += weighted
            np.add.at(d_rs, sel, -weighted)
        assert (r_query[:, None, :] == r_support[umin]).any()  # exact ties give signed zeros
        assert d_reduced.tobytes() == np.vstack([d_rs, d_rq]).tobytes()

    @pytest.mark.parametrize("tokens", [1, 255, 256, 257, 1600])
    def test_token_sum_matches_product(self, tokens):
        rng = np.random.default_rng(tokens)
        a, b = rng.standard_normal((tokens, 7)), rng.standard_normal((tokens, 5))
        # Two summation orders of T products differ by at most 2 T eps times the sum of their magnitudes.
        bound = 2 * tokens * np.finfo(np.float64).eps * (np.abs(a).T @ np.abs(b))
        assert np.all(np.abs(token_sum(a, b) - a.T @ b) <= bound)
        if tokens <= 256:
            assert token_sum(a, b).tobytes() == (a.T @ b).tobytes()


class TestStep:
    def test_small_gradient_unclipped(self):
        g = {"w": np.array([0.3, 0.4])}  # norm 0.5
        norm = clip_global_norm(g, 1.0)
        assert norm == pytest.approx(0.5)
        np.testing.assert_allclose(g["w"], [0.3, 0.4])

    def test_large_gradient_scaled(self):
        g = {"w": np.array([6.0, 8.0])}  # norm 10
        clip_global_norm(g, 1.0)
        np.testing.assert_allclose(g["w"], [0.6, 0.8])

    def test_clipping_preserves_direction(self):
        rng = np.random.default_rng(1)
        g = {"a": rng.normal(size=(5, 3)) * 10, "b": rng.normal(size=4) * 10}
        before = np.concatenate([g["a"].ravel().copy(), g["b"].copy()])
        clip_global_norm(g, 1.0)
        after = np.concatenate([g["a"].ravel(), g["b"]])
        cosine = before @ after / (np.linalg.norm(before) * np.linalg.norm(after))
        assert cosine == pytest.approx(1.0)

    def test_sgd_on_quadratic_bowl_converges(self):
        """Oracle: closed-form quadratic 0.5*|w - target|^2; distance to the
        optimum must strictly decrease for 100 steps."""
        rng = np.random.default_rng(2)
        target = rng.normal(size=8)
        w = {"w": rng.normal(size=8) + 5.0}
        cfg = TrainConfig(episodes=1, learning_rate=0.1, grad_clip_norm=1e9, optimizer="sgd", validate_every=1)
        distances = [float(np.linalg.norm(w["w"] - target))]
        for _ in range(100):
            apply_update(w, {"w": w["w"] - target}, cfg, None)
            distances.append(float(np.linalg.norm(w["w"] - target)))
        assert all(b < a for a, b in zip(distances, distances[1:]))

    def test_adamw_state_updates(self):
        params, head_cfg = make_params(5)
        episode = small_episode(5)
        tensors = episode_tensors(episode, params, TEST_ENCODER.chunk_length)
        _, grads = forward_backward(params, tensors, head_cfg)
        cfg = TrainConfig(episodes=1, learning_rate=1e-3, validate_every=1)
        state = AdamState(params)
        before = params.encoder.table.copy()
        step(params, grads, cfg, state)
        assert state.t == 1
        assert not np.array_equal(before, params.encoder.table)

    def test_non_finite_gradient_aborts(self):
        params, _ = make_params(6)
        grads = Gradients.zeros_like(params)
        grads.projection[0, 0] = np.nan
        with pytest.raises(NumericalError):
            step(params, grads, TrainConfig(episodes=1, validate_every=1), AdamState(params))

    @pytest.mark.parametrize("optimizer", ["sgd", "adamw"])
    def test_non_finite_touched_row_aborts_and_zero_clears(self, optimizer):
        params, head_cfg = make_params(6)
        tensors = episode_tensors(small_episode(6), params, TEST_ENCODER.chunk_length)
        _, grads = forward_backward(params, tensors, head_cfg)
        assert grads.rows.size > 0
        grads.table[grads.rows[-1], 0] = np.nan
        cfg = TrainConfig(episodes=1, validate_every=1, optimizer=optimizer)
        before = params.encoder.table.copy()
        with pytest.raises(NumericalError):
            step(params, grads, cfg, AdamState(params) if optimizer == "adamw" else None)
        np.testing.assert_array_equal(params.encoder.table, before)
        grads.zero_()
        assert np.count_nonzero(grads.table) == 0
        assert grads.rows.size == 0


def temporaries_adamw_update(arrays, grads, cfg, moments, rows):
    """``apply_update``'s AdamW step written with a new array for every intermediate, as numpy evaluates
    the expressions: the reference for the bits of the in-place step."""
    norm = float(np.sqrt(sum(float(np.square(a).sum()) for a in grads.values())))
    if norm > cfg.grad_clip_norm and norm > 0:
        factor = cfg.grad_clip_norm / norm
        for g in grads.values():
            g *= factor
    moments["t"] += 1
    bias1 = 1.0 - 0.9 ** moments["t"]
    bias2 = 1.0 - 0.999 ** moments["t"]
    for name, g in grads.items():
        index = rows.get(name, slice(None))
        p, m, v = arrays[name][index], moments["m"][name][index], moments["v"][name][index]
        m *= 0.9
        m += (1.0 - 0.9) * g
        v *= 0.999
        v += (1.0 - 0.999) * np.square(g)
        update = (m / bias1) / (np.sqrt(v / bias2) + 1e-8)
        if cfg.weight_decay:
            update = update + cfg.weight_decay * p
        p -= cfg.learning_rate * update
        arrays[name][index], moments["m"][name][index], moments["v"][name][index] = p, m, v
    return norm


class TestInPlaceAdamW:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    @pytest.mark.parametrize("gathered", [False, True], ids=["dense-view", "gathered-rows"])
    def test_matches_temporaries_expression_bit_for_bit(self, gathered, weight_decay):
        """Over several steps, some clipped and some not, on a dense view of the table or on gathered
        rows whose set changes from step to step."""
        params, _ = make_params(8)
        reference = params.copy()
        cfg = TrainConfig(episodes=1, validate_every=1, learning_rate=0.05, weight_decay=weight_decay)
        state = AdamState(params)
        moments = {"t": 0, **{key: {k: np.zeros_like(v) for k, v in params.arrays().items()} for key in "mv"}}
        rng = substream(8, "adam-steps")
        n_rows = params.encoder.table.shape[0]
        for i, scale in enumerate([1.0, 0.01, 3.0, 0.02, 1.0, 0.5]):
            index = np.unique(rng.integers(n_rows, size=12)) if gathered else slice(None)
            table = params.encoder.table[index]
            grads = {name: scale * rng.normal(size=arr.shape) for name, arr in dict(params.arrays(), table=table).items()}
            ref_grads = {name: g.copy() for name, g in grads.items()}
            norm = apply_update(params.arrays(), grads, cfg, state, {"table": index})
            assert norm == temporaries_adamw_update(reference.arrays(), ref_grads, cfg, moments, {"table": index})
            assert state.t == moments["t"] == i + 1
            for name, arr in params.arrays().items():
                np.testing.assert_array_equal(arr, reference.arrays()[name])
                np.testing.assert_array_equal(state.m[name], moments["m"][name])
                np.testing.assert_array_equal(state.v[name], moments["v"][name])


def dense_reference_step(params, grads, cfg, moments):
    """The dense optimizer step: clip and update every row of every array.

    ``moments`` is {"t": int, "m": {...}, "v": {...}} for AdamW and None for SGD.
    Returns the pre-clip norm.
    """
    arrays, grads = params.arrays(), grads.arrays()
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient in {name!r}")
    norm = float(np.sqrt(sum(float(np.square(a).sum()) for a in grads.values())))
    if norm > cfg.grad_clip_norm:
        for g in grads.values():
            g *= cfg.grad_clip_norm / norm
    if cfg.optimizer == "sgd":
        for name, p in arrays.items():
            p -= cfg.learning_rate * grads[name]
            if cfg.weight_decay:
                p -= cfg.learning_rate * cfg.weight_decay * p
        return norm
    moments["t"] += 1
    bias1 = 1.0 - 0.9 ** moments["t"]
    bias2 = 1.0 - 0.999 ** moments["t"]
    for name, p in arrays.items():
        g, m, v = grads[name], moments["m"][name], moments["v"][name]
        m *= 0.9
        m += (1.0 - 0.9) * g
        v *= 0.999
        v += (1.0 - 0.999) * np.square(g)
        update = (m / bias1) / (np.sqrt(v / bias2) + 1e-8)
        if cfg.weight_decay:
            update = update + cfg.weight_decay * p
        p -= cfg.learning_rate * update
    return norm


class TestSharedHeadKernels:
    """Training's forward pass is the evaluation classifier: same loss, same empty-class error."""

    @pytest.mark.parametrize("head", ["protonet", "nnshot", "mnav"])
    def test_training_loss_equals_evaluation_loss(self, head):
        params, head_cfg = make_params(7, head=head)
        episode = small_episode(7)
        active = episode.active_types

        def embedded(docs):
            """Per-document ``embed_tokens`` rows and IO labels, stacked in document order."""
            plans = [chunk_document(len(d.tokens), TEST_ENCODER.chunk_length) for d in docs]
            rows = np.vstack([embed_tokens(params.encoder, d, plan).rows for d, plan in zip(docs, plans)])
            return rows, np.concatenate([io_labels(len(d.tokens), d.arguments, active) for d in docs])

        support = embedded(episode.support)
        h_query, gold = embedded(episode.query)
        fixed_nota = None
        if head == "protonet":
            assignment = protonet_classify(compute_prototypes(support, active), h_query)
        elif head == "mnav":
            protos = build_mnav_prototypes(support, active, head_cfg.kmeans_k, 5, head_cfg.kmeans_iters)
            fixed_nota = protos.nota_vectors
            assignment = mnav_classify(protos, h_query)
        else:
            reduced = (support[0] @ params.reducer, support[1])
            assignment = nnshot_classify(reduced, h_query @ params.reducer, len(active))
        tensors = episode_tensors(episode, params, TEST_ENCODER.chunk_length)
        loss, _ = forward_backward(params, tensors, head_cfg, fixed_nota=fixed_nota)
        assert loss == pytest.approx(episode_loss(assignment, gold), rel=0, abs=1e-12)

    @pytest.mark.parametrize("head", ["protonet", "nnshot"])
    def test_missing_support_class_is_empty_class_error(self, head):
        params, head_cfg = make_params(8, head=head)
        lowered = episode_tensors(small_episode(8), params, TEST_ENCODER.chunk_length)
        support_labels = np.where(lowered.support_labels == 1, 2, lowered.support_labels)  # B tokens become O
        tensors = EpisodeTensors(
            lowered.support_buckets,
            lowered.support_plans,
            support_labels,
            lowered.query_buckets,
            lowered.query_plans,
            lowered.query_labels,
            ("A", "B"),
        )
        with pytest.raises(EmptyClassError, match="'B'"):
            forward_backward(params, tensors, head_cfg)


class TestTouchedRowStep:
    """``step`` visits only the table rows it can move; the result must equal the dense step."""

    ENCODER = EncoderConfig(d_emb=6, d_model=5, radius=1, n_buckets=64, chunk_length=16, init_scale=0.3)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    @pytest.mark.parametrize("optimizer", ["sgd", "adamw"])
    @pytest.mark.parametrize("head", ["protonet", "nnshot", "mnav"])
    def test_matches_dense_reference(self, head, optimizer, weight_decay):
        head_cfg = HeadConfig(head, d_reduced=3, kmeans_k=2)
        params = initialize_params(self.ENCODER, head_cfg, substream(31, "init"))
        initial = params.copy()
        reference = params.copy()
        cfg = TrainConfig(
            episodes=1, validate_every=1, learning_rate=0.05, grad_clip_norm=0.02,
            optimizer=optimizer, weight_decay=weight_decay,
        )
        state = AdamState(params) if optimizer == "adamw" else None
        moments = None
        if optimizer == "adamw":
            moments = {"t": 0, **{key: {k: np.zeros_like(v) for k, v in params.arrays().items()} for key in "mv"}}
        nota = substream(32, "nota").normal(size=(2, self.ENCODER.d_model)) if head == "mnav" else None
        grads = Gradients.zeros_like(params)
        touched = set()
        clipped = 0
        for i in range(8):
            ref_grads = Gradients.zeros_like(reference)
            for j in range(2):  # a batch of two episodes with shifting vocabularies
                episode = small_episode(40 + 2 * i + j, vocab_start=3 * i + j)
                tensors = episode_tensors(episode, params, self.ENCODER.chunk_length)
                forward_backward(params, tensors, head_cfg, fixed_nota=nota, out=grads)
                forward_backward(reference, tensors, head_cfg, fixed_nota=nota, out=ref_grads)
            grads.scale_(0.5)
            for arr in ref_grads.arrays().values():
                arr *= 0.5
            touched.update(grads.rows.tolist())
            norm = step(params, grads, cfg, state)
            grads.zero_()
            assert norm == pytest.approx(dense_reference_step(reference, ref_grads, cfg, moments), rel=1e-12)
            clipped += norm > cfg.grad_clip_norm
        assert clipped > 0
        assert len(touched) < self.ENCODER.n_buckets // 2  # without weight decay, no dense pass

        for name, arr in params.arrays().items():
            np.testing.assert_allclose(arr, reference.arrays()[name], rtol=1e-12, atol=0)
        if optimizer == "adamw":
            assert state.t == moments["t"]
            for name in params.arrays():
                np.testing.assert_allclose(state.m[name], moments["m"][name], rtol=1e-12, atol=0)
                np.testing.assert_allclose(state.v[name], moments["v"][name], rtol=1e-12, atol=0)
        if not weight_decay:
            untouched = np.setdiff1d(np.arange(self.ENCODER.n_buckets), sorted(touched))
            assert untouched.size > 0
            assert params.encoder.table[untouched].tobytes() == initial.encoder.table[untouched].tobytes()


class TestTrainLoop:
    def _split(self, seed=0):
        corpus, spec = separable_corpus(seed, n_event_types=4, docs_per_event=12)
        return compute_split(corpus, spec)

    def _cfgs(self, episodes, seed=0):
        sampler_cfg = SamplerConfig(n_ways=3, d_docs=1, seed=seed)
        train_cfg = TrainConfig(
            episodes=episodes,
            learning_rate=0.02,
            validate_every=max(1, episodes),
            seed=seed,
            batch_size=2,
            dev_episodes=8,
        )
        encoder_cfg = EncoderConfig(d_emb=8, d_model=8, radius=1, n_buckets=64, chunk_length=32, init_scale=0.3)
        return sampler_cfg, train_cfg, encoder_cfg

    def test_zero_episodes_returns_initial_params(self):
        split = self._split()
        sampler_cfg, _, encoder_cfg = self._cfgs(4)
        train_cfg = TrainConfig(episodes=0, validate_every=1, seed=3)
        ckpt = train(split, sampler_cfg, train_cfg, HeadConfig("protonet"), encoder_cfg)
        assert ckpt.history == ()
        assert ckpt.episode == 0
        fresh = initialize_params(encoder_cfg, HeadConfig("protonet"), substream(3, "init"),
                                  [t for d in split.train for t in d.tokens])
        np.testing.assert_array_equal(ckpt.params.encoder.table, fresh.encoder.table)

    def test_vocabulary_is_the_first_distinct_training_tokens(self):
        """With more distinct training tokens than table rows, the first ``n_buckets`` of them in
        first-seen order get rows 0, 1, ...; the rest are left out."""
        split = self._split()
        sampler_cfg, _, encoder_cfg = self._cfgs(4)
        encoder_cfg = replace(encoder_cfg, n_buckets=10)
        first_seen = []
        for token in (t for doc in split.train for t in doc.tokens):
            if token not in first_seen:
                first_seen.append(token)
        assert len(first_seen) > encoder_cfg.n_buckets
        ckpt = train(split, sampler_cfg, TrainConfig(episodes=0, validate_every=1), HeadConfig("protonet"), encoder_cfg)
        assert list(ckpt.params.encoder.vocab.items()) == [(t, row) for row, t in enumerate(first_seen[:10])]

    def test_zero_episodes_replaces_the_log_with_an_empty_one(self, tmp_path):
        """A zero-episode run leaves no earlier run's log beside its checkpoint, and no temporary file."""
        split = self._split()
        sampler_cfg, train_cfg, encoder_cfg = self._cfgs(2)
        log_path = tmp_path / "train_log.jsonl"
        train(split, sampler_cfg, train_cfg, HeadConfig("protonet"), encoder_cfg, log_path=log_path)
        assert len(log_path.read_text().splitlines()) == 2
        train(split, sampler_cfg, replace(train_cfg, episodes=0), HeadConfig("protonet"), encoder_cfg, log_path=log_path)
        assert log_path.read_bytes() == b""
        assert [p.name for p in tmp_path.iterdir()] == ["train_log.jsonl"]

    def test_same_seed_identical_parameters(self):
        split = self._split()
        sampler_cfg, train_cfg, encoder_cfg = self._cfgs(6, seed=4)
        a = train(split, sampler_cfg, train_cfg, HeadConfig("protonet"), encoder_cfg)
        b = train(split, sampler_cfg, train_cfg, HeadConfig("protonet"), encoder_cfg)
        np.testing.assert_array_equal(a.params.encoder.table, b.params.encoder.table)
        np.testing.assert_array_equal(a.params.encoder.projection, b.params.encoder.projection)
        assert a.history == b.history

    def test_fixed_episode_loss_mostly_decreases_under_sgd(self):
        """>=90% of consecutive SGD steps at lr 1e-3 do not increase the loss."""
        params, head_cfg = make_params(7)
        episode = small_episode(7)
        tensors = episode_tensors(episode, params, TEST_ENCODER.chunk_length)
        cfg = TrainConfig(episodes=1, learning_rate=1e-3, optimizer="sgd", validate_every=1)
        losses = []
        for _ in range(50):
            loss, grads = forward_backward(params, tensors, head_cfg)
            losses.append(loss)
            step(params, grads, cfg, None)
        decreases = sum(1 for a, b in zip(losses, losses[1:]) if b <= a + 1e-12)
        assert decreases >= 0.9 * (len(losses) - 1)

    def test_validation_history_and_log(self, tmp_path):
        split = self._split()
        sampler_cfg, _, encoder_cfg = self._cfgs(6, seed=5)
        train_cfg = TrainConfig(episodes=6, learning_rate=0.02, validate_every=3, seed=5, dev_episodes=6)
        log_path = tmp_path / "train_log.jsonl"
        ckpt = train(split, sampler_cfg, train_cfg, HeadConfig("protonet"), encoder_cfg, log_path=log_path)
        assert [e for e, _ in ckpt.history] == [3, 6]
        import json

        lines = [json.loads(l) for l in log_path.read_text().splitlines()]
        assert len(lines) == 6
        assert all("loss" in l for l in lines)
        assert "dev_f1" in lines[2] and "dev_f1" in lines[5]

    @pytest.mark.parametrize("dev_f1s, best", [((0.2, 0.5), 1), ((0.5, 0.2), 0)])
    def test_checkpoint_holds_parameters_of_best_validation(self, tmp_path, monkeypatch, dev_f1s, best):
        """The checkpoint saves the parameters as they were at the best validation, whether that is a
        mid-run one (a snapshot later steps must not change) or the last one (kept without a copy)."""
        snapshots = []

        def scripted_validation(episodes, params, *args, **kwargs):
            snapshots.append(params.copy())
            return SimpleNamespace(macro_f1=dev_f1s[len(snapshots) - 1])

        monkeypatch.setattr(epiarg.inference, "evaluate_episodes", scripted_validation)
        split = self._split()
        sampler_cfg, _, encoder_cfg = self._cfgs(6, seed=6)
        train_cfg = TrainConfig(episodes=6, learning_rate=0.02, validate_every=3, seed=6, dev_episodes=4)
        ckpt = train(split, sampler_cfg, train_cfg, HeadConfig("protonet"), encoder_cfg)
        assert not np.array_equal(snapshots[0].encoder.table, snapshots[1].encoder.table)
        save_checkpoint(ckpt, tmp_path / "trained.fdck")
        save_checkpoint(Checkpoint(snapshots[best], ckpt.config, ckpt.episode, ckpt.history), tmp_path / "copy.fdck")
        assert (tmp_path / "trained.fdck").read_bytes() == (tmp_path / "copy.fdck").read_bytes()

    def test_mnav_kmeans_seeded_by_support_set(self, monkeypatch):
        """Training seeds each episode's k-means with the stream evaluation uses for its support set."""
        episodes, states = [], []
        lower, build = epiarg.trainer.episode_tensors, epiarg.trainer.build_mnav_prototypes

        def recording_lower(episode, *args):
            episodes.append(episode)
            return lower(episode, *args)

        def recording_build(support, active, k, rng, iters):
            states.append(rng.bit_generator.state)
            return build(support, active, k, rng, iters)

        monkeypatch.setattr(epiarg.trainer, "episode_tensors", recording_lower)
        monkeypatch.setattr(epiarg.trainer, "build_mnav_prototypes", recording_build)
        sampler_cfg, train_cfg, encoder_cfg = self._cfgs(3, seed=7)
        train(self._split(), sampler_cfg, train_cfg, HeadConfig("mnav", kmeans_k=2), encoder_cfg)
        expected = [mnav_stream(7, ep.active_types, [d.doc_id for d in ep.support]) for ep in episodes]
        assert states == [rng.bit_generator.state for rng in expected] and len(states) == 3

    def test_validate_every_must_fit_budget(self):
        with pytest.raises(ValueError, match="validate_every"):
            TrainConfig(episodes=10, validate_every=50)


class TestCheckpointFormat:
    def test_roundtrip_and_byte_stability(self, tmp_path):
        split_corpus, spec = separable_corpus(1, n_event_types=4, docs_per_event=8)
        split = compute_split(split_corpus, spec)
        sampler_cfg = SamplerConfig(n_ways=3, d_docs=1, seed=1)
        train_cfg = TrainConfig(episodes=4, learning_rate=0.02, validate_every=4, seed=1, dev_episodes=4)
        encoder_cfg = EncoderConfig(d_emb=8, d_model=8, radius=1, n_buckets=64, chunk_length=32)
        ckpt = train(split, sampler_cfg, train_cfg, HeadConfig("nnshot"), encoder_cfg)
        p1 = tmp_path / "a.fdck"
        save_checkpoint(ckpt, p1)
        loaded = load_checkpoint(p1)
        assert loaded.episode == ckpt.episode
        assert loaded.history == ckpt.history
        assert loaded.params.reducer is not None
        np.testing.assert_allclose(loaded.params.encoder.table, ckpt.params.encoder.table, atol=1e-6)
        p2 = tmp_path / "b.fdck"
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_f32_checkpoint_keeps_dev_f1(self, tmp_path, monkeypatch):
        """On the desk ProtoNet inputs at seed 1, the parameters reloaded from f32 storage reproduce
        the recorded best dev F1 and every dev query label."""
        corpus, spec = separable_corpus(1, radius=1)
        split = compute_split(corpus, spec)
        sampler_cfg = SamplerConfig(n_ways=3, d_docs=1, seed=1)
        train_cfg = TrainConfig(episodes=100, learning_rate=1e-2, validate_every=100, seed=1, dev_episodes=20)
        head_cfg = HeadConfig("protonet")
        encoder_cfg = EncoderConfig(d_emb=64, d_model=64, radius=1, n_buckets=65536)
        ckpt = train(split, sampler_cfg, train_cfg, head_cfg, encoder_cfg)
        save_checkpoint(ckpt, tmp_path / "desk.fdck")
        loaded = load_checkpoint(tmp_path / "desk.fdck")
        dev = generate_episode_set(split.dev, sampler_cfg, train_cfg.dev_episodes, label="dev").episodes
        labels = []
        original = epiarg.inference.protonet_classify

        def recording(protos, query):
            assignment = original(protos, query)
            labels[-1].append(assignment.labels)
            return assignment

        monkeypatch.setattr(epiarg.inference, "protonet_classify", recording)
        f1 = {}
        for name, params in (("trained", ckpt.params), ("loaded", loaded.params)):
            labels.append([])
            f1[name] = epiarg.inference.evaluate_episodes(dev, params, head_cfg, encoder_cfg, seed=1).macro_f1
        assert f1 == {"trained": ckpt.best_f1, "loaded": ckpt.best_f1}
        assert len(labels[0]) == sum(len(ep.query) for ep in dev)
        for trained, reloaded in zip(*labels, strict=True):
            assert np.array_equal(trained, reloaded)

    def test_truncated_file_is_reported(self, tmp_path):
        split_corpus, spec = separable_corpus(1, n_event_types=4, docs_per_event=8)
        split = compute_split(split_corpus, spec)
        sampler_cfg = SamplerConfig(n_ways=3, d_docs=1, seed=1)
        train_cfg = TrainConfig(episodes=2, learning_rate=0.02, validate_every=2, seed=1, dev_episodes=2)
        encoder_cfg = EncoderConfig(d_emb=4, d_model=4, radius=1, n_buckets=16, chunk_length=32)
        path = tmp_path / "full.fdck"
        save_checkpoint(train(split, sampler_cfg, train_cfg, HeadConfig("nnshot"), encoder_cfg), path)
        assert [p.name for p in tmp_path.iterdir()] == ["full.fdck"]  # no temporary file left behind
        data = path.read_bytes()
        cut = tmp_path / "cut.fdck"
        # Inside the magic, the version, the blob length, the blob, a tensor header and the last tensor.
        for size in (0, 2, 6, 12, 20, data.index(b"table") + 2, data.index(b"table") + 10, len(data) - 1):
            cut.write_bytes(data[:size])
            with pytest.raises(ValueError, match=re.escape(f"{cut}: truncated checkpoint")):
                load_checkpoint(cut)

    def test_magic_check(self, tmp_path):
        path = tmp_path / "junk.fdck"
        path.write_bytes(b"WRONG" * 4)
        with pytest.raises(ValueError, match="checkpoint"):
            load_checkpoint(path)
