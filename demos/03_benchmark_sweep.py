#!/usr/bin/env python3
"""Desk-scale benchmark sweep: accuracy vs sample size and noise power.

Runs the seeded harness over two sample sizes and two noise powers,
then prints the plot-ready summary table: per (algorithm, N, p), the
means over the trials that recovered every column (``trials_ok``) next
to the count of all trials (``trials``).  The same sweep is available
from the command line:

    pegica benchmark --n 6 --m 6 --samples 20000,100000 \
        --noise-power 0.1,0.67 --trials 5 --seed 11 --out bench_out
    pegica report bench_out/benchmark.csv

Expected shape of the results: the oracle SINR-optimal demixer sits at
zero loss by construction, the estimate-based demixer approaches it as
samples grow, and the oracle pseudoinverse demixer keeps a constant bias.
"""

from pegica.benchmark import RunConfig, run_benchmark, summarize

config = RunConfig(
    n=6, m=6,
    samples=(20_000, 100_000),
    noise_powers=(0.1, 0.67),
    trials=5,
    seed=11,
    panel="paper",
    algorithms=("pegi_sinr", "oracle_ainv", "oracle_sinropt"),
    timing=False,
)
rows = run_benchmark(config)
header, table = summarize(rows)

widths = [max(len(h), 10) for h in header]
print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
for line in table:
    print("  ".join(f"{float(c):.4g}".ljust(w) if i >= 3 else str(c).ljust(w)
                    for i, (c, w) in enumerate(zip(line, widths))))

n_partial = sum(1 for r in rows if r.trial != "mean" and r.status != "ok")
if n_partial:
    print(f"\n{n_partial} trial row(s) reported partial recovery; the means skip "
          "them, and trials_ok out of trials counts them")
