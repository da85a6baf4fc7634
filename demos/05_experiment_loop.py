"""
A full crowdsourcing run
========================

Everything wired together: a synthetic ground truth, a simulated noisy
crowd, and three question strategies racing to a good clustering.  The
run loop asks a batch, folds the answers in, re-clusters only when an
answer could actually move the optimum, and snapshots quality as it goes.
"""

from perc import (
    ExperimentConfig,
    ReplayOracle,
    questions_to_reach,
    run_experiment,
    synth_world,
)

# Thirty records drawn from six entities.  The gold clustering stays
# hidden from the strategies; it only grades them and drives the
# simulated workers, who flip answers about ten percent of the time.
records, gold = synth_world(30, 6, seed=7)

results = {}
for strategy in ("perc", "tc", "dense"):
    config = ExperimentConfig(strategy=strategy, budget=250, batch_size=5,
                              initial_pairs=29, workers_per_pair=5,
                              error_rate=0.1, seed=7)
    results[strategy] = run_experiment(config, records, gold=gold)

print("questions needed to reach F1 0.9 (lower is better):")
for strategy, result in results.items():
    final = result.curve[-1]
    needed = questions_to_reach(result.curve, 0.9)
    print(f"  {strategy:6s} {str(needed):>5s}   "
          f"final f1 {final.f1:.3f} after {final.questions_asked} questions")

# The reliability-guided strategy keeps asking inside and across its
# uncertain blocks; transitive closure stops once everything is inferable,
# which locks early mistakes in.
stats = results["perc"].stats
print(f"\nperc run: {stats['rounds']} rounds, "
      f"{stats['reclusterings']} reclusterings, "
      f"recluster fraction {stats['recluster_fraction']:.2f}")

# Every run logs each asked pair with its exact tally.  Replaying that log
# through the same configuration reproduces the curve bit for bit, which
# is the property audits and regression tests lean on.
perc = results["perc"]
config = ExperimentConfig(strategy="perc", budget=250, batch_size=5,
                          initial_pairs=29, workers_per_pair=5,
                          error_rate=0.1, seed=7)
replayed = run_experiment(config, records, gold=gold,
                          replay=ReplayOracle(perc.vote_log))
print("\nreplay reproduces the curve:", replayed.curve == perc.curve)

# The command line wraps this same loop:
#   perc synth --records 30 --entities 6 --seed 7 --out world/
#   perc run --records world/records.csv --gold world/gold.csv \
#       --strategy perc --budget 250 --batch 5 --initial 29 \
#       --workers 5 --error-rate 0.1 --seed 7 --out run/
#   perc eval --clusters run/clusters.csv --gold world/gold.csv
