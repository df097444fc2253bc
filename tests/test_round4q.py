"""Session-14 batch 1: ML-eval tier — exact ROC AUC / PR curve /
bucket lift over compressed (score, pos, neg) cells, brute-force
pairwise oracles on randomized inputs."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd


def _rng(seed=47):
    return np.random.default_rng(seed)


def _cells(scores, labels):
    df = pd.DataFrame({"score": np.asarray(scores, np.int64),
                       "pos": np.asarray(labels, np.int64)})
    df["neg"] = 1 - df["pos"]
    return (df.groupby("score", as_index=False)
              .agg({"pos": "sum", "neg": "sum"})
              .sort_values("score").reset_index(drop=True))


def _auc_brute(scores, labels):
    """O(P*N) pairwise: concordant + 0.5*ties."""
    s = np.asarray(scores, np.float64)
    y = np.asarray(labels)
    sp, sn = s[y == 1], s[y == 0]
    num = (sp[:, None] > sn[None, :]).sum() + 0.5 * (sp[:, None] == sn[None, :]).sum()
    return num / (len(sp) * len(sn))


def test_roc_auc_matches_pairwise_bruteforce(ray_session):
    from vaero_ray.stages.mleval import roc_auc

    rng = _rng()
    for trial in range(5):
        n = 200
        y = (rng.random(n) < 0.4).astype(np.int64)
        # correlated integer scores with heavy ties
        scores = (rng.poisson(4, n) + 3 * y + rng.integers(0, 3, n)).astype(np.int64)
        t = roc_auc(_cells(scores, y)).to_pandas()
        p, q = int(y.sum()), int((1 - y).sum())
        assert int(t["n_pos"][0]) == p and int(t["n_neg"][0]) == q
        brute = _auc_brute(scores, y)
        assert abs(t["auc"][0] - brute) < 1e-6
        # exact integer numerator: num2 == 2 * brute * P * N
        assert int(t["auc_num2"][0]) == int(round(2 * brute * p * q))


def test_roc_auc_perfect_and_inverted(ray_session):
    from vaero_ray.stages.mleval import roc_auc

    y = np.array([0] * 50 + [1] * 50)
    s = np.arange(100)  # perfectly separating
    assert roc_auc(_cells(s, y)).to_pandas()["auc"][0] == 1.0
    assert roc_auc(_cells(-s + 200, y)).to_pandas()["auc"][0] == 0.0


def test_pr_curve_matches_per_threshold_bruteforce(ray_session):
    from vaero_ray.stages.mleval import pr_curve

    rng = _rng(7)
    n = 300
    y = (rng.random(n) < 0.3).astype(np.int64)
    s = (rng.poisson(5, n) + 2 * y).astype(np.int64)
    t = pr_curve(_cells(s, y)).to_pandas()
    p = int(y.sum())
    for _, row in t.iterrows():
        thr = row["threshold"]
        pred = s >= thr
        tp = int((pred & (y == 1)).sum())
        fp = int((pred & (y == 0)).sum())
        assert row["tp"] == tp and row["fp"] == fp and row["fn"] == p - tp
        assert abs(row["prec"] - tp / (tp + fp)) < 1e-6
        assert abs(row["rec"] - tp / p) < 1e-6
    # lowest threshold captures everything: recall 1, precision = base rate
    last = t.iloc[-1]
    assert last["rec"] == 1.0
    assert abs(last["prec"] - p / n) < 1e-6


def test_bucket_lift_weighted_average_is_one(ray_session):
    from vaero_ray.stages.mleval import bucket_lift

    rng = _rng(11)
    n = 500
    y = (rng.random(n) < 0.5).astype(np.int64)
    s = (rng.integers(0, 40, n) + 5 * y).astype(np.int64)
    t = bucket_lift(_cells(s, y), k=10).to_pandas()
    assert int(t["n_users"].sum()) == n
    assert int(t["n_pos"].sum()) == int(y.sum())
    # sum(n_b * rate_b) == total positives; weighted lift == 1
    assert abs((t["n_users"] * t["pos_rate"]).sum() - y.sum()) < 1e-2
    base = y.sum() / n
    wl = (t["n_users"] * t["lift"]).sum() / n
    assert abs(wl - 1.0) < 1e-2
    assert t["bucket"].is_monotonic_increasing
    assert t["bucket"].min() >= 0 and t["bucket"].max() <= 9


def test_confusion_mcc_bruteforce(ray_session):
    import math

    from vaero_ray.stages.mleval import confusion_mcc

    rng = _rng(23)
    n = 400
    y = (rng.random(n) < 0.45).astype(np.int64)
    s = (rng.poisson(6, n) + 3 * y).astype(np.int64)
    t = confusion_mcc(_cells(s, y)).to_pandas()
    med = int(np.sort(s)[(n + 1) // 2 - 1])  # lower median
    assert int(t["threshold"][0]) == med
    pred = s > med
    tp = int((pred & (y == 1)).sum())
    fp = int((pred & (y == 0)).sum())
    fn = int((~pred & (y == 1)).sum())
    tn = int((~pred & (y == 0)).sum())
    assert (int(t["tp"][0]), int(t["fp"][0]), int(t["fn"][0]), int(t["tn"][0])) == (tp, fp, fn, tn)
    mcc = (tp * tn - fp * fn) / math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    assert abs(t["mcc"][0] - mcc) < 1e-6
    assert abs(t["acc"][0] - (tp + tn) / n) < 1e-6
    # a strongly informative score must beat chance decisively
    assert t["mcc"][0] > 0.3


def test_user_score_label_cells_known_tiny_input(ray_session):
    from vaero_ray.stages.mleval import user_score_label_cells

    # 4 users: purchase counts 1,1,2,3 -> lower median 1; labels 0,0,1,1
    rows = []
    views = {1: 2, 2: 5, 3: 5, 4: 9}
    purch = {1: 1, 2: 1, 3: 2, 4: 3}
    for u in views:
        rows += [{"user_id": u, "event_type": "view"}] * views[u]
        rows += [{"user_id": u, "event_type": "purchase"}] * purch[u]
        rows += [{"user_id": u, "event_type": "click"}] * 2
    ds = rd.from_pandas(pd.DataFrame(rows)).repartition(3)
    cells = user_score_label_cells(ds)
    got = {int(r["score"]): (int(r["pos"]), int(r["neg"]))
           for _, r in cells.iterrows()}
    assert got == {2: (0, 1), 5: (1, 1), 9: (1, 0)}


# ---------------- winnowing fingerprint dedup ----------------


def _winnow_brute(text, k=8, w=4):
    """Scalar reference: poly hash base 31 mod FP_MOD per k-gram,
    min per full window of w grams, distinct selected values."""
    import re

    M = 1099511627689
    norm = re.sub(r"\s+", " ", text).lower()
    if len(norm) < k:
        return set()
    grams = []
    for i in range(len(norm) - k + 1):
        h = 0
        for c in norm[i:i + k]:
            h = (h * 31 + ord(c)) % M
        grams.append(h)
    if len(grams) < w:
        return set()
    return {min(grams[j:j + w]) for j in range(len(grams) - w + 1)}


def _rand_text(rng, n):
    return "".join(chr(rng.integers(97, 123)) for _ in range(n))


def test_winnow_fingerprints_match_scalar_reference(ray_session):
    from vaero_ray.stages.dedup import winnow_fingerprints

    rng = _rng(3)
    texts = [_rand_text(rng, int(rng.integers(0, 80))) for _ in range(60)]
    texts += ["", "  ", "ab", "a b c d e f"]  # short/degenerate
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts)})
    out = winnow_fingerprints(tbl).to_pandas()
    got = {i: set() for i in range(len(texts))}
    for _, r in out.iterrows():
        got[int(r["doc_id"])].add(int(r["fp"]))
    for i, t in enumerate(texts):
        assert got[i] == _winnow_brute(t), f"doc {i}: {t!r}"


def test_winnow_fingerprints_rejects_k_that_overflows_int64():
    from vaero_ray.stages.dedup import winnow_fingerprints
    from vaero_ray.stages.textstats import FP_MOD

    k_max = (2**63 - 1) // (255 * FP_MOD)  # largest k whose unreduced gram sum fits int64
    tbl = pa.table({"doc_id": pa.array([1], pa.int64()), "text": pa.array(["short text"])})
    assert winnow_fingerprints(tbl, k=k_max).num_rows == 0  # text shorter than k: no grams
    for k in (k_max + 1, 0):
        with pytest.raises(ValueError, match="k="):
            winnow_fingerprints(tbl, k=k)


def test_winnow_guarantee_shared_substring(ray_session):
    from vaero_ray.stages.dedup import winnow_fingerprints

    rng = _rng(9)
    # shared substring of length k + w - 1 = 11 guarantees >= 1 shared fp
    shared = "zqxjkvwpbyg"
    a = _rand_text(rng, 40) + shared + _rand_text(rng, 40)
    b = _rand_text(rng, 55) + shared + _rand_text(rng, 25)
    tbl = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                    "text": pa.array([a, b])})
    out = winnow_fingerprints(tbl).to_pandas()
    s1 = set(out[out["doc_id"] == 1]["fp"])
    s2 = set(out[out["doc_id"] == 2]["fp"])
    assert s1 & s2


def test_winnow_dup_pairs_planted_and_stop_fp(ray_session):
    from vaero_ray.stages.dedup import winnow_dup_pairs

    rng = _rng(17)
    boiler = "copyright acme corp all rights reserved "  # in EVERY doc
    texts = [boiler + _rand_text(rng, 120) for _ in range(40)]
    texts[7] = texts[3] + " tail"        # planted near-dup pair (3, 7)
    ds = rd.from_pandas(pd.DataFrame(
        {"doc_id": range(len(texts)), "text": texts})).repartition(4)
    out = winnow_dup_pairs(ds, min_shared=5, max_df=8).to_pandas()
    pairs = set(zip(out["doc_id"], out["dup_of"]))
    assert (7, 3) in pairs
    # boilerplate fingerprints (df = 40 > max_df) must not pair
    # unrelated docs: the planted pair is the ONLY edge
    assert pairs == {(7, 3)}


def test_ks_separation_bruteforce(ray_session):
    from vaero_ray.stages.mleval import ks_separation

    rng = _rng(29)
    n = 300
    y = (rng.random(n) < 0.4).astype(np.int64)
    s = (rng.poisson(5, n) + 2 * y).astype(np.int64)
    t = ks_separation(_cells(s, y)).to_pandas()
    sp, sn = np.sort(s[y == 1]), np.sort(s[y == 0])
    grid = np.unique(s)
    f1 = np.searchsorted(sp, grid, side="right") / len(sp)
    f2 = np.searchsorted(sn, grid, side="right") / len(sn)
    d = float(np.max(np.abs(f1 - f2)))
    assert abs(t["d_stat"][0] - d) < 1e-6
    assert int(t["d_scaled"][0]) == int(round(d * len(sp) * len(sn)))


def test_blocklist_scan_counts(ray_session):
    from vaero_ray.stages.textstats import blocklist_scan

    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["Spark and sPark and sharks",   # 2x spark (case-insensitive)
                 "vector stream vector",          # 2x vector, 1x stream
                 "nothing here",
                 "shuffle shuffle shuffle shuffle shuffle"],
    })
    ds = rd.from_pandas(docs).repartition(2)
    out = blocklist_scan(
        ds, ["spark", "vector", "stream", "shuffle"], min_hits=3
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert list(out["total_hits"]) == [2, 3, 0, 5]
    assert list(out["n_terms"]) == [1, 2, 0, 1]
    assert list(out["flagged"]) == [0, 1, 0, 1]


# ---------------- embedding compression ops ----------------


def test_jl_project_preserves_distances_roughly(ray_session):
    from vaero_ray.stages.ann import jl_project

    rng = _rng(41)
    n, d, k = 80, 64, 8
    m = rng.normal(0, 1, (n, d)).astype(np.float32)
    ds = rd.from_pandas(pd.DataFrame({
        "vec_id": range(n), "embedding": [row.tolist() for row in m]
    })).repartition(3)
    out = jl_project(ds, out_dim=k).to_pandas()
    assert len(out) == n * k
    proj = np.zeros((n, k))
    for _, r in out.iterrows():
        proj[int(r["vec_id"]), int(r["out_dim"])] = r["proj_micro"] / 1e6
    proj /= np.sqrt(k)
    # JL: projected pairwise sq-distances concentrate around the originals
    idx = rng.integers(0, n, (60, 2))
    idx = idx[idx[:, 0] != idx[:, 1]]
    d0 = ((m[idx[:, 0]].astype(np.float64) - m[idx[:, 1]]) ** 2).sum(1)
    d1 = ((proj[idx[:, 0]] - proj[idx[:, 1]]) ** 2).sum(1)
    ratio = d1 / d0
    assert 0.6 < np.median(ratio) < 1.6
    # determinism: same input twice -> identical integer coordinates
    out2 = jl_project(ds, out_dim=k).to_pandas()
    a = out.sort_values(["vec_id", "out_dim"]).reset_index(drop=True)
    b = out2.sort_values(["vec_id", "out_dim"]).reset_index(drop=True)
    assert a.equals(b)


def test_int8_quantize_bounds_and_monotone(ray_session):
    from vaero_ray.stages.ann import int8_quantize

    rng = _rng(43)
    n, d = 50, 6
    m = rng.normal(0, 3, (n, d)).astype(np.float32)
    m[:, 2] = 1.25  # constant dim -> all codes 0
    ds = rd.from_pandas(pd.DataFrame({
        "vec_id": range(n), "embedding": [row.tolist() for row in m]
    })).repartition(4)
    out = int8_quantize(ds).to_pandas()
    assert len(out) == n * d
    assert out["code"].min() >= 0 and out["code"].max() <= 255
    wide = out.pivot(index="vec_id", columns="dim", values="code")
    assert (wide[3] == 0).all()  # constant dim (1-based dim=3)
    for dim in (1, 4):
        col = m[:, dim - 1].astype(np.float64)
        codes = wide[dim].to_numpy()
        assert codes[np.argmin(col)] == 0 and codes[np.argmax(col)] == 255
        # monotone: higher component never gets a lower code
        order = np.argsort(col)
        assert (np.diff(codes[order]) >= 0).all()


def test_snm_pairs_halo_invariant_to_bucket_rows(ray_session):
    """Bucket size must not change the pair set: halo replication makes
    every in-window pair materialize in exactly one bucket."""
    from vaero_ray.stages.dedup import sorted_neighborhood_pairs

    rng = _rng(53)
    base = ["the quick brown fox %02d" % i for i in range(30)]
    base += ["the quick brown cat %02d" % i for i in range(10)]
    base += [_rand_text(rng, 40) for _ in range(30)]
    ds = rd.from_pandas(pd.DataFrame(
        {"doc_id": range(len(base)), "text": base})).repartition(5)

    def run(bucket_rows):
        return (sorted_neighborhood_pairs(ds, window=5, min_lcp=10,
                                          bucket_rows=bucket_rows)
                .to_pandas().sort_values(["doc_id", "dup_of"])
                .reset_index(drop=True))

    big = run(65536)   # single bucket
    small = run(7)     # many buckets, heavy halo traffic
    assert len(big) > 0
    assert big.equals(small)


def test_snm_pairs_bruteforce_window(ray_session):
    import re

    from vaero_ray.stages.dedup import sorted_neighborhood_pairs

    rng = _rng(59)
    texts = ["prefix%04d tail %s" % (rng.integers(0, 30), _rand_text(rng, 20))
             for _ in range(50)]
    ds = rd.from_pandas(pd.DataFrame(
        {"doc_id": range(len(texts)), "text": texts})).repartition(3)
    got = sorted_neighborhood_pairs(ds, key_len=12, window=4, min_lcp=6,
                                    bucket_rows=11).to_pandas()
    gotset = {(int(r["doc_id"]), int(r["dup_of"]), int(r["rn_gap"]), int(r["key_lcp"]))
              for _, r in got.iterrows()}
    keys = [(re.sub(r"\s+", " ", t).lower()[:12].ljust(12), i)
            for i, t in enumerate(texts)]
    order = sorted(range(len(keys)), key=lambda i: keys[i])
    want = set()
    for a in range(len(order)):
        for g in range(1, 4):
            b = a + g
            if b >= len(order):
                continue
            ka, ia = keys[order[a]]
            kb, ib = keys[order[b]]
            lcp = 0
            for x, y in zip(ka, kb):
                if x != y:
                    break
                lcp += 1
            if lcp >= 6:
                want.add((ib, ia, g, lcp))
    assert gotset == want


def test_isotonic_rates_minimax_bruteforce(ray_session):
    from vaero_ray.stages.mleval import isotonic_rates

    rng = _rng(61)
    for trial in range(6):
        m = int(rng.integers(3, 15))
        pos = rng.integers(0, 20, m).astype(np.int64)
        neg = rng.integers(1, 20, m).astype(np.int64)
        cells = pd.DataFrame({"score": np.arange(m, dtype=np.int64),
                              "pos": pos, "neg": neg})
        t = isotonic_rates(cells).to_pandas()
        n = pos + neg
        cp = np.concatenate(([0], np.cumsum(pos)))
        cn = np.concatenate(([0], np.cumsum(n)))
        # minimax identity: fitted[k] = max_{i<=k} min_{j>=k} avg(i, j)
        want = []
        for k in range(m):
            best = -1.0
            for i in range(k + 1):
                worst = 2.0
                for j in range(k, m):
                    worst = min(worst, (cp[j + 1] - cp[i]) / (cn[j + 1] - cn[i]))
                best = max(best, worst)
            want.append(best)
        got = t["iso_rate"].to_numpy()
        assert np.allclose(got, np.round(want, 6), atol=2e-6)
        # monotone nondecreasing and mass-preserving
        assert (np.diff(got) >= -1e-12).all()
        assert abs((got * n).sum() - pos.sum()) < 1e-3 * max(1, pos.sum())


def test_streaming_window_auc_gate_bounds(ray_session):
    from vaero_ray.pipelines.queries import q_streaming_window_auc

    out = q_streaming_window_auc("/root/testdata/sf0.001").to_pandas()
    assert len(out) > 100  # one row per hour window
    have = out.dropna(subset=["auc"])
    assert len(have) > 0
    assert ((have["auc"] >= 0) & (have["auc"] <= 1)).all()
    # auc_num2 consistency: 0 <= num2 <= 2 * P * N on every window
    assert (have["auc_num2"] >= 0).all()
    assert (have["auc_num2"] <= 2 * have["n_pos"] * have["n_neg"]).all()
    # degenerate windows (single class) must carry a NULL auc, not a crash
    degen = out[(out["n_pos"] == 0) | (out["n_neg"] == 0)]
    assert degen["auc"].isna().all()


def test_bipartite_butterflies_bruteforce(ray_session):
    from itertools import combinations

    from vaero_ray.stages.basket import bipartite_butterflies

    rng = _rng(67)
    rows = []
    for g in range(40):
        items = rng.choice(25, size=rng.integers(1, 7), replace=False)
        for i in items:
            rows.append({"g": g, "i": int(i)})
            if rng.random() < 0.2:
                rows.append({"g": g, "i": int(i)})  # duplicate edge rows
    df = pd.DataFrame(rows)
    ds = rd.from_pandas(df).repartition(4)
    t = bipartite_butterflies(ds, "g", "i").to_pandas()

    edges = set(map(tuple, df[["g", "i"]].drop_duplicates().to_numpy()))
    groups = {}
    items = {}
    for g, i in edges:
        groups.setdefault(g, set()).add(i)
        items.setdefault(i, set()).add(g)
    assert int(t["n_edges"][0]) == len(edges)
    wg = sum(len(v) * (len(v) - 1) // 2 for v in groups.values())
    wi = sum(len(v) * (len(v) - 1) // 2 for v in items.values())
    assert int(t["wedges_group"][0]) == wg
    assert int(t["wedges_item"][0]) == wi
    cat = sum((len(groups[g]) - 1) * (len(items[i]) - 1) for g, i in edges)
    assert int(t["n_caterpillars"][0]) == cat
    bf = 0
    for i1, i2 in combinations(sorted(items), 2):
        co = len(items[i1] & items[i2])
        bf += co * (co - 1) // 2
    assert int(t["n_butterflies"][0]) == bf
    if cat:
        assert abs(t["bcc"][0] - 4.0 * bf / cat) < 1e-6


def test_delong_auc_ci_bruteforce(ray_session):
    import math

    from vaero_ray.stages.mleval import delong_auc_ci

    rng = _rng(71)
    n = 250
    y = (rng.random(n) < 0.4).astype(np.int64)
    s = (rng.poisson(5, n) + 2 * y).astype(np.int64)
    t = delong_auc_ci(_cells(s, y)).to_pandas()
    sp, sn = s[y == 1].astype(float), s[y == 0].astype(float)
    p, q = len(sp), len(sn)
    # per-observation placements (textbook DeLong)
    v10 = np.array([((x > sn).sum() + 0.5 * (x == sn).sum()) / q for x in sp])
    v01 = np.array([((sp > x).sum() + 0.5 * (sp == x).sum()) / p for x in sn])
    theta = v10.mean()
    s10 = ((v10 - theta) ** 2).sum() / (p - 1)
    s01 = ((v01 - theta) ** 2).sum() / (q - 1)
    se = math.sqrt(s10 / p + s01 / q)
    assert abs(t["auc"][0] - theta) < 1e-6
    assert abs(t["auc_se"][0] - se) < 1e-6
    assert abs(t["ci_lo"][0] - (theta - 1.96 * se)) < 2e-6
    assert abs(t["ci_hi"][0] - (theta + 1.96 * se)) < 2e-6
    # degenerate single-class input: no crash, NULL uncertainty
    d = delong_auc_ci(_cells(np.arange(5), np.ones(5, np.int64))).to_pandas()
    assert np.isnan(d["auc_se"][0]) and np.isnan(d["auc"][0])


def test_delong_paired_bruteforce(ray_session):
    import math

    from vaero_ray.stages.mleval import delong_paired

    rng = _rng(77)
    n = 300
    y = (rng.random(n) < 0.45).astype(np.int64)
    s1 = (rng.poisson(5, n) + 2 * y).astype(np.int64)
    s2 = (rng.poisson(5, n) + y).astype(np.int64)
    jc = (pd.DataFrame({"s1": s1, "s2": s2, "pos": y, "neg": 1 - y})
          .groupby(["s1", "s2"], as_index=False)
          .agg({"pos": "sum", "neg": "sum"})
          .sort_values(["s1", "s2"]).reset_index(drop=True))
    t = delong_paired(jc).to_pandas()
    sp1, sp2 = s1[y == 1].astype(float), s2[y == 1].astype(float)
    sn1, sn2 = s1[y == 0].astype(float), s2[y == 0].astype(float)
    P, N = len(sp1), len(sn1)
    v10_1 = np.array([((x > sn1).sum() + .5 * (x == sn1).sum()) / N for x in sp1])
    v01_1 = np.array([((sp1 > x).sum() + .5 * (sp1 == x).sum()) / P for x in sn1])
    v10_2 = np.array([((x > sn2).sum() + .5 * (x == sn2).sum()) / N for x in sp2])
    v01_2 = np.array([((sp2 > x).sum() + .5 * (sp2 == x).sum()) / P for x in sn2])
    th1, th2 = v10_1.mean(), v10_2.mean()

    def sij(a, b, ta, tb, dof):
        return ((a - ta) * (b - tb)).sum() / (dof - 1)

    var1 = sij(v10_1, v10_1, th1, th1, P) / P + sij(v01_1, v01_1, th1, th1, N) / N
    var2 = sij(v10_2, v10_2, th2, th2, P) / P + sij(v01_2, v01_2, th2, th2, N) / N
    cov = sij(v10_1, v10_2, th1, th2, P) / P + sij(v01_1, v01_2, th1, th2, N) / N
    z = (th1 - th2) / math.sqrt(var1 + var2 - 2 * cov)
    assert abs(t["auc1"][0] - th1) < 1e-6
    assert abs(t["auc2"][0] - th2) < 1e-6
    assert abs(t["z"][0] - z) < 1e-5
    # the stronger predictor (s1 carries 2x the signal) must win
    assert t["auc1"][0] > t["auc2"][0] and t["z"][0] > 0


def test_grouped_roc_auc_matches_per_group_bruteforce(ray_session):
    from vaero_ray.stages.mleval import grouped_roc_auc

    rng = _rng(83)
    rows = []
    for grp in ("a", "b", "c", "onlypos"):
        m = 120
        y = (rng.random(m) < 0.5).astype(np.int64) if grp != "onlypos" else np.ones(m, np.int64)
        s = (rng.poisson(6, m) + (2 if grp == "b" else 1) * y).astype(np.int64)
        for sc, yy in zip(s, y):
            rows.append({"grp": grp, "score": int(sc), "pos": int(yy), "neg": int(1 - yy)})
    cells = (pd.DataFrame(rows)
             .groupby(["grp", "score"], as_index=False)
             .agg({"pos": "sum", "neg": "sum"}))
    t = grouped_roc_auc(cells).to_pandas().set_index("grp")
    for grp in ("a", "b", "c"):
        sub = pd.DataFrame(rows)
        sub = sub[sub["grp"] == grp]
        expanded_s = np.repeat(sub["score"].to_numpy(), 1)
        y = sub["pos"].to_numpy()
        brute = _auc_brute(expanded_s, y)
        assert abs(t.loc[grp, "auc"] - brute) < 1e-6
    assert np.isnan(t.loc["onlypos", "auc"])
    assert t.loc["onlypos", "n_neg"] == 0


def test_hourly_mase_perfect_seasonal_signal(ray_session):
    """A perfectly 24h-periodic series has zero seasonal-naive error in
    BOTH halves -> mase NULL (sae_train = 0); adding test-half noise to
    a periodic train half yields mase > 1... construct directly via the
    gate's own kernel over a synthetic events table."""
    from vaero_ray.pipelines.queries import q_hourly_mase_backtest

    out = q_hourly_mase_backtest("/root/testdata/sf0.001").to_pandas()
    assert len(out) == 5  # one row per event type
    assert (out["n_train"] + out["n_test"] > 0).all()
    have = out.dropna(subset=["mase"])
    for _, r in have.iterrows():
        assert abs(r["mase"] - (r["sae_test"] / r["n_test"])
                   / (r["sae_train"] / r["n_train"])) < 1e-6


def test_cuped_reduces_variance_on_correlated_covariate(ray_session):
    """Synthetic events where pre-period activity strongly predicts
    post-period purchases: the CUPED-adjusted variance must be below
    the raw outcome variance in both arms, and theta > 0."""
    from vaero_ray.stages.mleval import cuped_ab_arms

    rng = _rng(97)
    rows = []
    t0 = np.datetime64("2025-01-01T00:00:00", "us")
    for uid in range(200):
        activity = int(rng.integers(1, 20))
        for _ in range(activity):  # pre-period events
            rows.append({"user_id": uid, "event_type": "view",
                         "ts": t0 + np.timedelta64(int(rng.integers(0, 1000)), "s")})
        npur = int(activity // 2 + rng.integers(0, 3))  # correlated outcome
        for _ in range(npur):
            rows.append({"user_id": uid, "event_type": "purchase",
                         "ts": t0 + np.timedelta64(100_000 + int(rng.integers(0, 1000)), "s")})
    ds = rd.from_pandas(pd.DataFrame(rows)).repartition(4)
    t = cuped_ab_arms(ds).to_pandas().sort_values("arm")
    assert list(t["arm"]) == [0, 1]
    assert (t["theta"] > 0).all()
    for _, r in t.iterrows():
        # variance reduction is the whole point of CUPED
        assert 0 <= r["adj_var"] < r["raw_var"]
    # adjusted means of the two arms agree closely (same DGP both arms)
    assert abs(t["adj_mean"].iloc[0] - t["adj_mean"].iloc[1]) < 1.0


def test_k_anonymity_audit_planted_singletons(ray_session):
    from vaero_ray.pipelines.queries import q_k_anonymity_audit

    t = q_k_anonymity_audit("/root/testdata/sf0.001").to_pandas()
    assert int(t["n_rows"][0]) == 500
    assert 0 < int(t["n_violating"][0]) <= int(t["n_groups"][0])
    assert int(t["rows_at_risk"][0]) < int(t["n_rows"][0])
    assert abs(t["risk_share"][0]
               - t["rows_at_risk"][0] / t["n_rows"][0]) < 1e-6


def test_lsh_recall_bounds(ray_session):
    from vaero_ray.pipelines.queries import q_lsh_recall_eval

    t = q_lsh_recall_eval("/root/testdata/sf0.001").to_pandas()
    # LSH candidates are verified on true cosine -> subset of exact
    assert int(t["n_lsh"][0]) <= int(t["n_exact"][0])
    if t["n_exact"][0] > 0:
        assert 0 <= t["recall"][0] <= 1


def test_winnow_derived_shards_and_equivalence(ray_session):
    """num_shards=None derives from lineage metadata; the pair set is
    invariant to the shard count (a fingerprint lives in exactly one
    shard either way)."""
    from vaero_ray.stages.dedup import winnow_dup_pairs

    ds = rd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                         columns=["doc_id", "text"])
    auto = (winnow_dup_pairs(ds, min_shared=5).to_pandas()
            .sort_values(["doc_id", "dup_of"]).reset_index(drop=True))
    manual = (winnow_dup_pairs(ds, min_shared=5, num_shards=7).to_pandas()
              .sort_values(["doc_id", "dup_of"]).reset_index(drop=True))
    assert len(auto) > 0
    assert auto.equals(manual)


def test_leakage_safe_split_keeps_clusters_together(ray_session):
    from vaero_ray.pipelines.queries import q_dup_clusters, q_leakage_safe_split

    sf = "/root/testdata/sf0.001"
    split = q_leakage_safe_split(sf).to_pandas().set_index("doc_id")["split"]
    labels = q_dup_clusters(sf)
    labels = (labels.to_pandas() if not isinstance(labels, pd.DataFrame)
              else labels)
    # every member of a dup cluster gets the SAME split as its cluster
    for cl, g in labels.groupby("cluster"):
        splits = {split[d] for d in g["doc_id"]}
        assert len(splits) == 1, f"cluster {cl} straddles splits {splits}"
    # both splits are populated
    assert set(split.unique()) == {"train", "val"}


def test_weighted_hops_bruteforce(ray_session):
    from vaero_ray.stages.graph import weighted_hops

    rng = _rng(101)
    n_nodes = 30
    edges = []
    seen = set()
    for _ in range(70):
        a, b = sorted(rng.integers(0, n_nodes, 2))
        if a == b or (a, b) in seen:
            continue
        seen.add((a, b))
        edges.append({"u": int(a), "v": int(b), "w": int(rng.integers(1, 10))})
    df = pd.DataFrame(edges)
    ds = rd.from_pandas(df).repartition(4)
    seeds = [0, 7]
    K = 3
    got = weighted_hops(ds, "u", "v", "w", seeds, max_rounds=K).to_pandas()
    # brute force: min weight over paths of <= K edges (synchronous BF)
    INF = 1 << 60
    dist = {s: 0 for s in seeds}
    und = [(r["u"], r["v"], r["w"]) for _, r in df.iterrows()]
    und += [(v, u, w) for u, v, w in und]
    for _ in range(K):
        cur = dict(dist)
        for u, v, w in und:
            if u in cur and cur[u] + w < dist.get(v, INF):
                dist[v] = min(dist.get(v, INF), cur[u] + w)
        # synchronous: recompute from the frozen snapshot
        nd = dict(cur)
        for u, v, w in und:
            if u in cur:
                nd[v] = min(nd.get(v, INF), cur[u] + w)
        dist = nd
    gotmap = dict(zip(got["node"], got["dist"]))
    assert gotmap == {int(k): int(v) for k, v in dist.items()}


def test_sketch_quantile_error_within_contract(ray_session):
    from vaero_ray.pipelines.queries import q_sketch_quantile_error

    t = q_sketch_quantile_error("/root/testdata/sf0.001").to_pandas()
    assert list(t["q_pct"]) == [25, 50, 90, 99]
    # lower-edge estimate: within one bin width of the exact value,
    # worst case 12.5% relative (1/8 of the lower edge)
    assert (t["err_ppm"] <= 125000).all()
    assert (t["sketch_est"] <= t["exact"]).all()  # lower-bound estimate


def test_hll_error_eval_reasonable(ray_session):
    from vaero_ray.pipelines.queries import q_hll_error_eval

    t = q_hll_error_eval("/root/testdata/sf0.01").to_pandas()
    assert int(t["n_exact"][0]) == 150  # known fixture cardinality
    # p=8 HLL: ~6.5% std error; anything under 20% is a sane sketch
    assert abs(t["rel_err"][0]) < 0.2
    assert t["estimate"][0] > 0


def test_cms_error_eval_upper_bound(ray_session):
    from vaero_ray.pipelines.queries import q_cms_error_eval

    t = q_cms_error_eval("/root/testdata/sf0.01").to_pandas()
    assert len(t) == 10
    # CMS point estimates are UPPER bounds: overcount never negative
    assert (t["overcount"] >= 0).all()
    assert (t["cms_est"] >= t["exact"]).all()
    # with 150 users in 1024-wide rows, collisions are rare: most exact
    assert (t["overcount"] == 0).mean() > 0.5


def test_bloom_fpr_eval_bound(ray_session):
    import math

    from vaero_ray.pipelines.queries import q_bloom_fpr_eval

    t = q_bloom_fpr_eval("/root/testdata/sf0.01").to_pandas()
    assert int(t["n_probes"][0]) == 1000
    # theory: (1 - e^{-kn/m})^k with k=3, n=150 distinct, m=65536 -> ~3e-7
    theory = (1 - math.exp(-3 * 150 / 65536)) ** 3
    # measured FPR should be the same order (here: almost surely 0)
    assert t["fpr"][0] <= max(0.01, 100 * theory)


def test_kmv_error_eval_both_branches(ray_session):
    from vaero_ray.pipelines.queries import q_kmv_error_eval

    # sf0.001: 15 distinct users < k=64 -> exact fallback, rel_err == 0
    small = q_kmv_error_eval("/root/testdata/sf0.001").to_pandas()
    assert small["rel_err"][0] == 0.0
    # sf0.01: 150 > 64 -> live estimator; k=64 std error ~ 1/sqrt(62) ~ 13%
    big = q_kmv_error_eval("/root/testdata/sf0.01").to_pandas()
    assert int(big["n_exact"][0]) == 150
    assert abs(big["rel_err"][0]) < 0.4


def test_user_delta_movers_planted_mover(ray_session):
    from vaero_ray.stages.keyed import bucketed_keyed_sum  # noqa: F401
    from vaero_ray.pipelines.queries import q_user_delta_movers

    t = q_user_delta_movers("/root/testdata/sf0.001").to_pandas()
    assert len(t) == 10
    assert (t["delta"] == t["n_second"] - t["n_first"]).all()
    # sorted by |delta| descending with deterministic ties
    absd = t["delta"].abs().to_numpy()
    assert (absd[:-1] >= absd[1:]).all()
