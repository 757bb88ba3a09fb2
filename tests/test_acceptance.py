"""Acceptance suite: ten behavioral criteria, one PASS/FAIL line each.

Every test exercises one criterion end to end at its pinned tolerance and
registers a summary line printed after the run. Timings are wall-clock.
"""

from __future__ import annotations

import hashlib
import random
import time

from conftest import record_criterion
from helpers import reference_ratio

from stepfim import cli
from stepfim.backends import ReplayBackend, record_fixtures
from stepfim.decompose import StepChain
from stepfim.expand import (
    ExpansionConfig,
    expand_chain,
    expand_iteratively,
    expand_records,
    requests_for_chain,
)
from stepfim.fim import (
    FIM_MIDDLE,
    FIM_PREFIX,
    FIM_SUFFIX,
    SamplerConfig,
    parse_psm,
    reassemble,
    sample_fim,
)
from stepfim.similarity import gate, similarity
from stepfim.stats import CorpusStats, diff_stats
from stepfim.synth import CorpusSpec, generate

ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 +-*/=()$._,"


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_criterion_01_fim_construction_fidelity():
    problems = generate(CorpusSpec(count=853, seed=4111))
    config = SamplerConfig(rounds=3, seed=9001)

    started = time.perf_counter()
    total = mismatches = 0
    for prob in problems:
        source = "\n".join(prob.fine_chain.texts)
        for sample in sample_fim(prob.fine_chain, prob.question, config, source_id=prob.id):
            total += 1
            if reassemble(sample.prefix, sample.middle, sample.suffix) != source:
                mismatches += 1
    elapsed = time.perf_counter() - started

    record_criterion(
        1,
        "FIM construction: 853 chains x 3 rounds give 2,559 byte-exact samples in < 5 s",
        total == 2559 and mismatches == 0 and elapsed < 5.0,
        f"samples={total} mismatches={mismatches} elapsed={elapsed:.2f}s",
    )


def test_criterion_02_psm_format_contract():
    problems = generate(CorpusSpec(count=334, seed=2202))
    config = SamplerConfig(rounds=3, seed=2203)
    samples = [
        sample
        for prob in problems
        for sample in sample_fim(prob.fine_chain, prob.question, config, source_id=prob.id)
    ][:1000]
    assert len(samples) == 1000

    failures = 0
    for sample in samples:
        psm = sample.psm_text
        token_counts_ok = all(psm.count(token) == 1 for token in (FIM_PREFIX, FIM_SUFFIX, FIM_MIDDLE))
        order_ok = psm.index(FIM_PREFIX) == 0 < psm.index(FIM_SUFFIX) < psm.index(FIM_MIDDLE)
        span_ok = psm[sample.loss_char_start : sample.loss_char_end] == sample.middle
        pre, suf, mid = parse_psm(psm)
        identity_ok = f"{FIM_PREFIX}{pre}{FIM_SUFFIX}{suf}{FIM_MIDDLE}{mid}" == psm
        if not (token_counts_ok and order_ok and span_ok and identity_ok):
            failures += 1

    record_criterion(
        2,
        "PSM contract: tokens once each in order, loss span = middle, parse o format = id",
        failures == 0,
        f"samples=1000 failures={failures}",
    )


def test_criterion_03_similarity_oracle_equivalence():
    rng = random.Random(20240817)
    max_err = 0.0
    for _ in range(1000):
        a = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 200)))
        b = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 200)))
        max_err = max(max_err, abs(similarity(a, b) - reference_ratio(a, b)))

    exact_ok = similarity("abcd", "bcde") == 0.75 and similarity("same text", "same text") == 1.0

    record_criterion(
        3,
        "similarity matches an independent reference on 1,000 pairs within 1e-12",
        max_err <= 1e-12 and exact_ok,
        f"max_err={max_err:.2e} exact_pairs_ok={exact_ok}",
    )


def test_criterion_04_gate_behavior():
    rng = random.Random(44044)

    texts = ["".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 80))) for _ in range(200)]
    echo_rejections = sum(not gate(t, t, 0.8).valid for t in texts)

    pairs = [
        (
            "".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 80))),
            "".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 80))),
        )
        for _ in range(200)
    ]
    etas = [round(0.05 * k, 2) for k in range(1, 21)]
    monotone = True
    for candidate, next_step in pairs:
        was_valid = False
        for eta in etas:
            valid = gate(candidate, next_step, eta).valid
            if was_valid and not valid:
                monotone = False
            was_valid = was_valid or valid

    record_criterion(
        4,
        "gate: echoes always Invalid at eta=0.8; decisions monotone in eta",
        echo_rejections == 200 and monotone,
        f"echo_rejections={echo_rejections}/200 monotone_over_{len(etas)}_thresholds={monotone}",
    )


def test_criterion_05_oracle_reconstruction(tmp_path):
    out = tmp_path / "synth"
    started = time.perf_counter()
    assert cli.main(["gen-synth", "--count", "500", "--seed", "777", "--out", str(out)]) == 0

    expanded = tmp_path / "expanded.jsonl"
    assert cli.main([
        "expand", "--input", str(out / "coarse.jsonl"), "--output", str(expanded),
        "--backend", "oracle", "--iterations", "1",
    ]) == 0
    fine_lines = (out / "fine.jsonl").read_text(encoding="utf-8").splitlines()
    got_lines = expanded.read_text(encoding="utf-8").splitlines()
    matched = sum(a == b for a, b in zip(fine_lines, got_lines))

    refined = tmp_path / "refined.jsonl"
    assert cli.main([
        "expand", "--input", str(out / "fine.jsonl"), "--output", str(refined),
        "--backend", "oracle", "--iterations", "1",
    ]) == 0
    fixed_point = refined.read_bytes() == (out / "fine.jsonl").read_bytes()
    elapsed = time.perf_counter() - started

    record_criterion(
        5,
        "oracle expansion rebuilds all 500 fine chains exactly; fine chains are a fixed point",
        matched == 500 and len(got_lines) == 500 and fixed_point and elapsed < 30.0,
        f"reconstructed={matched}/500 fixed_point={fixed_point} elapsed={elapsed:.2f}s",
    )


def test_criterion_06_structural_invariants():
    rng = random.Random(61803)
    words = ("carry", "borrow", "total", "product", "remainder", "sum", "factor", "digit")

    chains_checked = gaps_checked = 0
    subseq_violations = bound_violations = 0
    started = time.perf_counter()
    for index in range(10_000):
        n = rng.randint(1, 6)
        texts = [f"step {j} {rng.choice(words)} {rng.randint(0, 999)}." for j in range(n)]
        leading = rng.random() < 0.25
        config = ExpansionConfig(include_leading_gap=leading, max_in_flight=1)
        question = f"randomized chain {index}?"
        chain = StepChain.from_texts(texts)

        mapping = {}
        missing = set()
        for _, request in requests_for_chain(question, chain, config):
            mode = rng.randrange(5)
            if mode == 0:
                mapping[request.request_id] = request.suffix_steps[0]
            elif mode == 1:
                mapping[request.request_id] = ""
            elif mode == 2:
                mapping[request.request_id] = f"{FIM_SUFFIX}{request.request_id}"
            elif mode == 3:
                missing.add(request.request_id)  # replay miss -> backend error
            else:
                mapping[request.request_id] = f"inserted {request.request_id[:12]}"

        expanded, report = expand_chain(question, chain, ReplayBackend(mapping), config)
        chains_checked += 1
        gaps_checked += report.attempted

        pointer = 0
        for step in expanded.texts:
            if pointer < len(texts) and step == texts[pointer]:
                pointer += 1
        if pointer != len(texts):
            subseq_violations += 1
        bound = 2 * n if leading else 2 * n - 1
        if len(expanded.texts) > bound:
            bound_violations += 1
    elapsed = time.perf_counter() - started

    record_criterion(
        6,
        "10,000 randomized chains: input kept as a subsequence, length <= 2n-1 per round",
        subseq_violations == 0 and bound_violations == 0 and chains_checked == 10_000,
        f"chains={chains_checked} gaps={gaps_checked} subseq_violations={subseq_violations} "
        f"bound_violations={bound_violations} elapsed={elapsed:.2f}s",
    )


def test_criterion_07_iteration_growth():
    question = "What is the value of 1 + 1 + 1 + 1 + 1?"
    chain = StepChain.from_texts([f"original step {i} of five." for i in range(1, 6)])
    config = ExpansionConfig(iterations=3)

    class Distinct:
        def fill(self, request):
            return f"inserted {request.request_id}"

    class Recording:
        def __init__(self, inner):
            self.inner, self.mapping = inner, {}

        def fill(self, request):
            response = self.inner.fill(request)
            self.mapping[request.request_id] = response
            return response

    recorder = Recording(Distinct())
    expand_iteratively(question, chain, recorder, config)

    expanded, reports = expand_iteratively(question, chain, ReplayBackend(recorder.mapping), config)
    lengths = [r.output_steps for r in reports]
    all_valid = all(r.inserted == r.attempted for r in reports)

    record_criterion(
        7,
        "always-valid replay: 3 iterations on a 5-step chain grow 9 -> 17 -> 33",
        lengths == [9, 17, 33] and all_valid and len(expanded.texts) == 33,
        f"lengths={lengths} all_proposals_valid={all_valid}",
    )


def test_criterion_08_reference_growth_strings():
    before = CorpusStats(
        samples=7500, avg_tokens=254.31, total_tokens=1_907_325, avg_steps=5.13,
        tokenizer_id="whitespace",
    )
    after_one = CorpusStats(
        samples=7500, avg_tokens=350.88, total_tokens=2_631_600, avg_steps=9.56,
        tokenizer_id="whitespace",
    )
    after_three = CorpusStats(
        samples=7500, avg_tokens=350.88, total_tokens=2_631_600, avg_steps=33.75,
        tokenizer_id="whitespace",
    )

    one = diff_stats(before, after_one).formatted()
    three = diff_stats(before, after_three).formatted()
    steps_ok = one["avg_steps"] == "+86.35%"
    tokens_ok = one["avg_tokens"] == "+37.97%"
    deep_ok = three["avg_steps"] == "+557.89%"

    record_criterion(
        8,
        'growth strings: 5.13->9.56 is "+86.35%", 254.31->350.88 is "+37.97%"',
        steps_ok and tokens_ok and deep_ok,
        f'avg_steps={one["avg_steps"]} avg_tokens={one["avg_tokens"]} iter3_steps={three["avg_steps"]}',
    )


def test_criterion_09_subcommand_determinism(tmp_path):
    cot = tmp_path / "cot.jsonl"
    cot.write_text(
        '{"id": "c0", "question": "What is (2 + 3) * 4?", "solution": '
        '"First, compute 2 + 3 = 5. Then multiply 5 by 4 to get 20. The answer is 20."}\n'
        '{"id": "c1", "question": "What is 10 - 3?", "solution": '
        '"Subtract 3 from 10 to get 7. The answer is 7."}\n',
        encoding="utf-8",
    )
    synth = tmp_path / "synth"
    chains = tmp_path / "chains.jsonl"
    fim_out = tmp_path / "fim.jsonl"
    expanded = tmp_path / "expanded.jsonl"
    report = tmp_path / "report.jsonl"
    before_json = tmp_path / "before.json"
    after_json = tmp_path / "after.json"
    delta_json = tmp_path / "delta.json"

    runs: list[tuple[str, list[str], list]] = [
        ("gen-synth",
         ["gen-synth", "--count", "40", "--seed", "424242", "--out", str(synth)],
         [synth / "coarse.jsonl", synth / "fine.jsonl", synth / "dropped.jsonl"]),
        ("decompose",
         ["decompose", "--input", str(cot), "--output", str(chains)],
         [chains]),
        ("build-fim",
         ["build-fim", "--input", str(synth / "fine.jsonl"), "--output", str(fim_out),
          "--seed", "7"],
         [fim_out]),
        ("expand",
         ["expand", "--input", str(synth / "coarse.jsonl"), "--output", str(expanded),
          "--report", str(report), "--backend", "oracle"],
         [expanded, report]),
        ("stats-before",
         ["stats", "--input", str(synth / "coarse.jsonl"), "--output", str(before_json)],
         [before_json]),
        ("stats-after",
         ["stats", "--input", str(synth / "fine.jsonl"), "--output", str(after_json)],
         [after_json]),
        ("compare",
         ["compare", "--before", str(before_json), "--after", str(after_json),
          "--output", str(delta_json)],
         [delta_json]),
    ]

    unstable = []
    for name, argv, outputs in runs:
        assert cli.main(argv) == 0, name
        first = [_sha(p) for p in outputs]
        assert cli.main(argv) == 0, name
        second = [_sha(p) for p in outputs]
        if first != second:
            unstable.append(name)

    record_criterion(
        9,
        "every subcommand rerun with the same inputs writes byte-identical files",
        not unstable,
        f"subcommands={len(runs)} unstable={unstable or 'none'}",
    )


def test_criterion_10_replay_throughput(tmp_path):
    problems = generate(CorpusSpec(count=2000, seed=31337, ops_min=5, ops_max=5))
    records = [
        {"id": p.id, "question": p.question, "steps": list(p.fine_chain.texts)}
        for p in problems
    ]
    config = ExpansionConfig(max_in_flight=4)

    class Distinct:
        def fill(self, request):
            return f"inserted {request.request_id}"

    all_requests = [
        request
        for row in records
        for _, request in requests_for_chain(
            row["question"], StepChain.from_texts(row["steps"]), config
        )
    ]
    assert len(all_requests) == 10_000
    fixture = str(tmp_path / "fixture.jsonl")
    record_fixtures(all_requests, Distinct(), fixture)
    backend = ReplayBackend.from_file(fixture)

    started = time.perf_counter()
    expanded = list(expand_records(records, backend, config))
    elapsed = time.perf_counter() - started
    attempted = sum(r.attempted for _, reports in expanded for r in reports)
    inserted = sum(r.inserted for _, reports in expanded for r in reports)

    record_criterion(
        10,
        "expansion works through 10,000 gaps against the replay backend in < 60 s",
        attempted == 10_000 and len(expanded) == 2000 and elapsed < 60.0,
        f"gaps={attempted} inserted={inserted} elapsed={elapsed:.2f}s",
    )
