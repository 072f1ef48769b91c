"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a one-line
pass summary with the measured values.
"""

import itertools
import time

import numpy as np
import pytest

from apiminer.corpus import CorpusSpec, synth_corpus
from apiminer.metrics import report
from apiminer.noise import INTERFERE, LEXIFY, LEXIFY_RULES, inject, lexify
from apiminer.normalize import normalize
from apiminer.records import Dataset, HttpRecord
from apiminer.refine import RefinerConfig, discover, prepare_traffic
from apiminer.templates import mine


def run_pipeline(dataset, disable_noise_filter=False, **kwargs):
    traffic = prepare_traffic(dataset, disable_noise_filter=disable_noise_filter)
    return report(discover(traffic, **kwargs), dataset.ground_truth)


@pytest.fixture(scope="module")
def corpus():
    return synth_corpus(CorpusSpec())


@pytest.fixture(scope="module")
def clean_report(corpus):
    start = time.perf_counter()
    rep = run_pipeline(corpus)
    rep.config_echo["elapsed"] = time.perf_counter() - start
    return rep


class TestCriterion1MetricArithmetic:
    def test_eleven_zero_two(self):
        start = time.perf_counter()
        from apiminer.metrics import EvalReport, _ratio

        tp, fp, fn = 11, 0, 2
        pga, _ = _ratio(tp, tp + fp)
        rga, _ = _ratio(tp, tp + fn)
        fga, _ = _ratio(2 * tp, 2 * tp + fp + fn)
        assert pga == pytest.approx(100.00, abs=0.01)
        assert rga == pytest.approx(84.62, abs=0.01)
        assert fga == pytest.approx(91.67, abs=0.01)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        print(
            f"\ncriterion 1 pass: (11,0,2) -> {pga:.2f}/{rga:.2f}/{fga:.2f} "
            f"in {elapsed:.3f}s"
        )


class TestCriterion2GoldenTemplates:
    PATHS = [
        "/api/v1/items/101",
        "/api/v1/items/102",
        "/api/v1/items/103",
        "/api/v1/order/812/status",
        "/api/v1/order/947/status",
        "/api/v1/order/633/status",
    ]

    def test_permutation_invariant(self):
        start = time.perf_counter()
        expected = ["/api/v1/items/{*}", "/api/v1/order/{*}/status"]
        perms = itertools.islice(itertools.permutations(self.PATHS), 0, 720, 14)
        checked = 0
        for perm in perms:
            requests = [
                normalize(HttpRecord(id=i, method="GET", url=u))
                for i, u in enumerate(perm)
            ]
            rendered = sorted(g.template.render() for g in mine(requests))
            assert rendered == expected
            checked += 1
        elapsed = time.perf_counter() - start
        assert checked >= 50 and elapsed < 1.0
        print(
            f"\ncriterion 2 pass: {checked} orderings -> {expected} "
            f"in {elapsed:.3f}s"
        )


class TestCriterion3CleanBenchmark:
    def test_clean_corpus(self, clean_report):
        rep = clean_report
        assert rep.fga >= 95.0
        assert rep.purity >= 0.95
        assert rep.config_echo["elapsed"] < 30.0
        print(
            f"\ncriterion 3 pass: clean FGA {rep.fga:.2f}, purity "
            f"{rep.purity:.4f}, {rep.config_echo['elapsed']:.1f}s"
        )


class TestCriterion4InterfereRobustness:
    def test_ratio_half_five_seeds(self, corpus, clean_report):
        fgas, purities = [], []
        for seed in range(1, 6):
            rep = run_pipeline(inject(corpus, INTERFERE, 0.5, seed))
            fgas.append(rep.fga)
            purities.append(rep.purity)
        drop = clean_report.fga - sum(fgas) / len(fgas)
        purity_shift = abs(clean_report.purity - sum(purities) / len(purities))
        assert drop <= 5.0
        assert purity_shift <= 0.03
        print(
            f"\ncriterion 4 pass: Interfere 0.5 mean FGA drop {drop:.2f} "
            f"(<=5), purity shift {purity_shift:.4f}"
        )


class TestCriterion5LexifyRobustness:
    def test_ratio_half_five_seeds(self, corpus, clean_report):
        fgas = []
        for seed in range(1, 6):
            fgas.append(run_pipeline(inject(corpus, LEXIFY, 0.5, seed)).fga)
        drop = clean_report.fga - sum(fgas) / len(fgas)
        # the paper's bound on the FGA drop under noise
        assert drop <= 8.11
        print(f"\ncriterion 5 pass: Lexify 0.5 mean FGA drop {drop:.2f} (<=8.11)")

    def test_high_ratio_cells(self, corpus):
        # the highest-noise cells: a neutral key appended by Lexify or a
        # splintered component must not break an endpoint here
        pinned = {(0.75, 3): 100.0, (0.95, 1): 100.0, (0.95, 2): 100.0}
        for (ratio, seed), floor in pinned.items():
            fga = run_pipeline(inject(corpus, LEXIFY, ratio, seed)).fga
            assert fga >= floor, (ratio, seed, fga)
        print(f"\ncriterion 5 pass: Lexify high-ratio cells at or above {pinned}")


class TestCriterion6RatioSweepShape:
    def test_interfere_endpoints_of_sweep(self, corpus):
        low = run_pipeline(inject(corpus, INTERFERE, 0.05, 1)).fga
        high = run_pipeline(inject(corpus, INTERFERE, 0.95, 1)).fga
        assert high - low >= -6.0
        print(
            f"\ncriterion 6 pass: Interfere FGA {low:.2f} @0.05 -> "
            f"{high:.2f} @0.95 (gap {high - low:+.2f} >= -6)"
        )


def _random_record(rng, rid):
    words = ["orders", "api", "v1", "user-profile", "Data", "audit-logs",
             "items", "reviews", "ab", "STATUS", "searchable"]
    depth = int(rng.integers(1, 6))
    segments = [words[int(rng.integers(len(words)))] for _ in range(depth)]
    if rng.random() < 0.3:
        segments.append(str(int(rng.integers(1, 9999))))
    path = "/" + "/".join(segments)
    if rng.random() < 0.3:
        path += "/"
    pairs = []
    for _ in range(int(rng.integers(0, 4))):
        key = words[int(rng.integers(len(words)))].lower()
        if rng.random() < 0.3:
            value = "red shoes" if rng.random() < 0.5 else "a b"
        else:
            value = f"v{int(rng.integers(100))}"
        pairs.append(f"{key}={value}")
    url = path + ("?" + "&".join(pairs) if pairs else "")
    return HttpRecord(id=rid, method="GET", url=url, content_type="application/json")


# segment-mutating rules that path normalization cannot absorb
TOKEN_MUTATIONS = ("Underscore Injection", "Hyphen Duplication", "Dot Injection")


class TestCriterion8NormalizerAbsorption:
    def test_absorbable_and_mutating_rules(self):
        rng = np.random.default_rng(23)
        pool = [_random_record(rng, i) for i in range(1000)]
        absorbable = [n for n in LEXIFY_RULES if n not in TOKEN_MUTATIONS]
        assert len(absorbable) == 11

        def signature(record):
            nr = normalize(record)
            return (nr.record.method, tuple(nr.segments))

        for name in absorbable:
            applied_count = 0
            for record in pool:
                mutated, applied = lexify(record, name, rng)
                if not applied:
                    continue
                applied_count += 1
                assert signature(mutated) == signature(record), (name, record.url, mutated.url)
            assert applied_count > 0, name

        for name in TOKEN_MUTATIONS:
            applied_count = changed = 0
            for record in pool:
                mutated, applied = lexify(record, name, rng)
                if not applied:
                    continue
                applied_count += 1
                if signature(mutated) != signature(record):
                    changed += 1
            assert applied_count > 0, name
            assert changed / applied_count >= 0.99, name
        print(
            "\ncriterion 8 pass: 11 rules absorbed exactly, 3 mutation "
            "rules change segments in >=99% of applicable cases"
        )


class TestNearWordEndpoints:
    WORDS = ("users", "user", "carts", "cards", "items", "item", "posts", "post", "orders")

    def test_endpoints_one_edit_apart_stay_apart(self):
        # a clean one-host capture whose resource words are one edit apart:
        # each is frequent, so none is taken for a corruption of another
        rng = np.random.default_rng(0)
        records = [
            HttpRecord(
                id=j * len(self.WORDS) + w,
                method="GET",
                url=f"https://app.example.com/api/v1/{word}/{int(rng.integers(100, 999999))}",
                headers=(("Content-Type", "application/json"),),
                content_type="application/json",
                label=word,
            )
            for j in range(50)
            for w, word in enumerate(self.WORDS)
        ]
        rep = run_pipeline(Dataset(records))
        assert rep.fga == 100.0
        print(f"\nnear-word pass: {len(self.WORDS)} endpoints one edit apart, FGA {rep.fga:.2f}")


def range_drawn_bodies(dataset):
    """Each body's size and field count scaled by one factor from U(0.4, 1.6)."""
    rng = np.random.default_rng(5)
    records = []
    for record in dataset.records:
        if record.body_size > 0:
            f = rng.uniform(0.4, 1.6)
            record = record._replace(
                body_size=max(1, int(record.body_size * f)),
                body_field_count=max(1, round((record.body_field_count or 0) * f)),
            )
        records.append(record)
    return Dataset(records)


class TestRangeDrawnBodies:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_write_endpoints_stay_whole(self, seed):
        # body sizes spread over a range put a write endpoint's requests in
        # several components of its graph; reabsorption must join them
        ranged = range_drawn_bodies(synth_corpus(CorpusSpec(20, 50, seed)))
        clean = run_pipeline(ranged).fga
        noisy = run_pipeline(inject(ranged, LEXIFY, 0.5, 1)).fga
        assert (clean, noisy) == (100.0, 100.0)
        print(f"\nrange-drawn bodies pass: seed {seed}, FGA {clean:.2f} clean, {noisy:.2f} Lexify 0.5")


class TestCriterion9AblationDirection:
    def test_each_toggle_lowers_fga(self, corpus):
        noisy = inject(corpus, INTERFERE, 0.5, 1)
        full = run_pipeline(noisy).fga
        no_filter = run_pipeline(noisy, disable_noise_filter=True).fga
        no_templates = run_pipeline(noisy, disable_template_mining=True).fga
        forced = run_pipeline(
            noisy, refiner_config=RefinerConfig(force_kmeans=True)
        ).fga
        assert no_filter < full
        assert no_templates < full
        assert forced < full
        print(
            f"\ncriterion 9 pass: full {full:.2f} > no-filter {no_filter:.2f}, "
            f"no-templates {no_templates:.2f}, forced-kmeans {forced:.2f}"
        )


class TestCriterion10Determinism:
    def test_bench_byte_identical(self, tmp_path):
        from apiminer.cli import main

        argv = [
            "bench", "--endpoints", "8", "--requests", "15",
            "--kind", "both", "--ratios", "0.25,0.5", "--seeds", "1,2",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        rows = a.read_text(encoding="utf-8").strip().splitlines()
        assert len(rows) == 9
        print(f"\ncriterion 10 pass: two bench runs byte-identical ({len(rows) - 1} rows)")
