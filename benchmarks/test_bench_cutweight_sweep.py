"""E7 — cut-weight sweep for the Kast kernel on byte-carrying strings.

Section 4.1/4.2: the cut weight is swept over ``{2, 4, ..., 1024}``.  The
paper's findings for the byte-carrying representation:

* the best (three-group, no-misplacement) clustering is already achieved at
  the *smallest* cut weights, which is what makes the kernel easy to
  parametrise;
* clustering quality degrades as the cut weight grows (high cut weights only
  find "general categories");
* "the smaller the cut weight the more expensive the computation became".

The benchmark times the whole sweep and prints one row per cut weight — the
series behind the paper's discussion — then asserts those three trends.
The cost trend is asserted on counted work (the features the Kast search
selects and the occurrences it scores), which, unlike seconds, does not
move with machine load; the seconds are printed next to the counts.
"""

from __future__ import annotations

from repro.core.kast import KastSpectrumKernel
from repro.pipeline.config import ExperimentConfig, experiment_spec
from repro.pipeline.report import summarise_sweep
from repro.pipeline.sweep import PAPER_CUT_WEIGHTS, cut_weight_sweep


def test_bench_cutweight_sweep_with_bytes(benchmark, strings_with_bytes):
    # The cost-vs-cut-weight claim is about the Kast *search algorithm*: the
    # number of qualifying occurrences and selected features shrinks as the
    # cut weight grows; it is asserted on those counts below.  The sweep runs
    # the reference python backend, whose printed seconds follow the search;
    # the vectorised engine backend spends its time in cut-independent
    # match-table sweeps.
    config = ExperimentConfig(
        spec=experiment_spec("kast", backend="python"), n_clusters=3, linkage="single"
    )

    sweep = benchmark.pedantic(
        lambda: cut_weight_sweep(config, cut_weights=PAPER_CUT_WEIGHTS, strings=strings_with_bytes),
        rounds=1,
        iterations=1,
    )

    print()
    print(summarise_sweep(sweep, title="E7: Kast kernel cut-weight sweep (byte information kept)"))

    ari = sweep.series("adjusted_rand_index")
    misplacements = sweep.series("misplacements_vs_expected")
    seconds = [point.kernel_seconds for point in sweep.points]

    # Search work per cut weight over a fixed subset of the corpus pairs
    # (every fifth string: 22 strings, 231 pairs), read from the kernel's
    # own work counters.
    subset = strings_with_bytes[::5]
    features, occurrences = [], []
    for cut_weight in PAPER_CUT_WEIGHTS:
        kernel = KastSpectrumKernel(cut_weight=cut_weight)
        for index, string in enumerate(subset):
            kernel.value_row(string, subset[index + 1 :])
        work = kernel.work_counts()
        features.append(work["selected_features"])
        occurrences.append(work["selected_occurrences"])
    print(f"{'cut':>5} {'features':>9} {'occurrences':>12} {'seconds':>8}")
    for row in zip(PAPER_CUT_WEIGHTS, features, occurrences, seconds):
        print("{:>5} {:>9} {:>12} {:>8.3f}".format(*row))

    # Small cut weights achieve the perfect three-group clustering.
    assert misplacements[0] == 0.0
    assert ari[0] == max(ari)
    # Large cut weights are no better (and eventually much worse).
    assert ari[-1] < ari[0]
    # Cost shrinks as the cut weight grows: the search selects no more
    # features, and scores no more occurrences, at a larger cut weight.
    for counts in (features, occurrences):
        assert all(later <= earlier for earlier, later in zip(counts, counts[1:])), counts
        assert counts[0] > counts[-1], counts
