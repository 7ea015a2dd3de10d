# Fixed-seed `dckpt chaos` campaigns: scripted schedule families plus
# seed-randomized runs on both topologies and both runtimes (1-D chain and
# 2-D grid), and exact single-schedule repro lines. Sourced, not executed,
# by scripts/run_chaos_smoke.sh (the violation tripwire) and
# scripts/compare_chaos_smoke.sh (the parity check between two binaries).
#
# CAMPAIGNS holds one "name|dckpt chaos arguments" entry per campaign; the
# arguments are word-split on spaces.
# shellcheck disable=SC2034  # used by the sourcing script

CAMPAIGNS=(
  "chain pairs, scripted + 40 random|--topology=pairs --nodes=8 --cells=48 --steps=96 --interval=12 --staging=4 --rerepl-delay=8 --runs=40 --seed=20260805"
  "chain triples, scripted + 40 random|--topology=triples --nodes=9 --cells=48 --steps=96 --interval=12 --staging=4 --rerepl-delay=8 --runs=40 --seed=20260805"
  "grid 4x4 pairs, scripted + 40 random|--topology=pairs --grid=4x4 --block=6 --steps=64 --interval=8 --rerepl-delay=6 --runs=40 --seed=20260805"
  "grid 3x3 triples, scripted + 40 random|--topology=triples --grid=3x3 --block=6 --steps=64 --interval=8 --rerepl-delay=6 --runs=40 --seed=20260805"
  "spare-pool delay from the Erlang model|--topology=pairs --nodes=8 --steps=96 --interval=12 --spares=4 --repair=1800 --mtbf=900 --step-seconds=5 --runs=20 --seed=7"
  "single-schedule repro (risk-window double hit)|--topology=pairs --nodes=6 --steps=48 --interval=8 --rerepl-delay=6 --schedule=9:0,10:1"
  "grid single-schedule repro (rack double hit)|--topology=pairs --grid=2x2 --block=8 --steps=48 --interval=8 --rerepl-delay=6 --schedule=9:0,10:1"
  # Corruption campaigns: tight retry policy so torn/failed refills and the
  # exhausted-retries path are all exercised within the run length.
  "chain pairs corruption, scripted + 40 random|--topology=pairs --nodes=8 --cells=48 --steps=96 --interval=12 --staging=4 --rerepl-delay=8 --retry-max=2 --retry-base=2 --runs=40 --seed=42424242"
  "chain triples corruption, scripted + 40 random|--topology=triples --nodes=9 --cells=48 --steps=96 --interval=12 --staging=4 --rerepl-delay=8 --retry-max=2 --retry-base=2 --runs=40 --seed=42424242"
  "grid 4x4 pairs corruption, scripted + 40 random|--topology=pairs --grid=4x4 --block=6 --steps=64 --interval=8 --rerepl-delay=6 --retry-max=2 --retry-base=2 --runs=40 --seed=42424242"
  "grid 3x3 triples corruption, scripted + 40 random|--topology=triples --grid=3x3 --block=6 --steps=64 --interval=8 --rerepl-delay=6 --retry-max=2 --retry-base=2 --runs=40 --seed=42424242"
  # The two acceptance scenarios from docs/CHAOS.md as exact repro lines:
  # triples fail over around the corrupt preferred replica (survived),
  # pairs detect total loss and complete degraded (fatal-detected).
  "triples corrupt-preferred failover repro|--topology=triples --nodes=9 --cells=48 --steps=96 --interval=12 --staging=4 --rerepl-delay=8 --retry-max=3 --retry-base=1 --schedule=28:corrupt:1:0,29:0"
  "pairs only-replica-corrupt degraded repro|--topology=pairs --nodes=8 --cells=48 --steps=96 --interval=12 --staging=4 --rerepl-delay=8 --retry-max=3 --retry-base=1 --schedule=28:corrupt:1:0,29:0"
  "torn-refill retry repro|--topology=pairs --nodes=6 --steps=48 --interval=8 --rerepl-delay=6 --retry-max=3 --retry-base=1 --schedule=9:torn:0,9:0"
  "grid corrupt-preferred repro|--topology=triples --grid=3x3 --block=6 --steps=64 --interval=8 --rerepl-delay=6 --retry-max=3 --retry-base=1 --schedule=15:corrupt:4:3,15:3"
  # Silent-error campaigns (verification enabled adds the sdc-* scripted
  # families and an sdc motif to the random draws): both topologies, both
  # runtimes, plus the two acceptance scenarios from docs/CHAOS.md as exact
  # repro lines -- keep-last-3 survives the latent strike via a depth-2
  # rollback, keep-last-2 accepts a *detected* fatal (never a violation).
  "chain pairs sdc, scripted + 40 random|--topology=pairs --nodes=8 --cells=48 --steps=96 --interval=12 --staging=4 --rerepl-delay=8 --verify-every=4 --keep-last=3 --runs=40 --seed=20260809"
  "chain triples sdc, scripted + 40 random|--topology=triples --nodes=9 --cells=48 --steps=96 --interval=12 --staging=4 --rerepl-delay=8 --verify-every=4 --keep-last=3 --runs=40 --seed=20260809"
  "grid 4x4 pairs sdc, scripted + 40 random|--topology=pairs --grid=4x4 --block=6 --steps=64 --interval=8 --rerepl-delay=6 --verify-every=4 --keep-last=3 --runs=40 --seed=20260809"
  "grid 3x3 triples sdc, scripted + 40 random|--topology=triples --grid=3x3 --block=6 --steps=64 --interval=8 --rerepl-delay=6 --verify-every=4 --keep-last=3 --runs=40 --seed=20260809"
  "sdc survivable rollback repro|--topology=pairs --nodes=8 --cells=48 --steps=96 --interval=12 --verify-every=4 --keep-last=3 --schedule=13:sdc:0"
  "sdc fatal-detected shallow-retention repro|--topology=pairs --nodes=8 --cells=48 --steps=96 --interval=12 --verify-every=4 --keep-last=2 --schedule=13:sdc:0"
  "grid sdc survivable rollback repro|--topology=pairs --grid=4x4 --block=6 --steps=96 --interval=12 --verify-every=4 --keep-last=3 --schedule=13:sdc:0"
  # Fault-prediction campaigns: the scripted set now includes the alarm
  # families (predicted kill, same-step alarm, false-alarm storm during a
  # risk window, missed prediction at a commit boundary); the exact repro
  # lines pin the proactive-commit path on both runtimes.
  "chain pairs alarms, scripted + 40 random|--topology=pairs --nodes=8 --cells=48 --steps=96 --interval=12 --staging=4 --rerepl-delay=8 --runs=40 --seed=20260811"
  "alarm proactive-commit repro|--topology=pairs --nodes=8 --cells=48 --steps=96 --interval=12 --rerepl-delay=8 --schedule=26:alarm:0:2,27:0"
  "grid alarm proactive-commit repro|--topology=pairs --grid=2x2 --block=8 --steps=48 --interval=8 --rerepl-delay=6 --schedule=17:alarm:1:3,19:1"
  # Differential-checkpoint campaigns (--dcp-stack enables the delta cadence,
  # the dcp-* scripted families and a torndelta motif in the random draws):
  # both topologies, both runtimes, plus the acceptance scenario from
  # docs/DCP.md as an exact repro line -- a layer torn in transfer fails
  # over to the buddy's intact chain (survived, one torn-chain failover).
  "chain pairs dcp, scripted + 40 random|--topology=pairs --nodes=8 --cells=48 --steps=96 --interval=12 --rerepl-delay=8 --dcp-stack=3 --runs=40 --seed=20260812"
  "chain triples dcp, scripted + 40 random|--topology=triples --nodes=9 --cells=48 --steps=96 --interval=12 --rerepl-delay=8 --dcp-stack=3 --runs=40 --seed=20260812"
  "grid 4x4 pairs dcp, scripted + 40 random|--topology=pairs --grid=4x4 --block=6 --steps=64 --interval=8 --rerepl-delay=6 --dcp-stack=3 --runs=40 --seed=20260812"
  "grid 3x3 triples dcp, scripted + 40 random|--topology=triples --grid=3x3 --block=6 --steps=64 --interval=8 --rerepl-delay=6 --dcp-stack=3 --runs=40 --seed=20260812"
  "torn-chain failover repro|--topology=triples --nodes=9 --cells=48 --steps=96 --interval=12 --rerepl-delay=8 --dcp-stack=3 --schedule=25:torndelta:0:1,25:0"
  # A verification rollback while a node is still lost (its only copies
  # were corrupt): to a retained set with an immediate or a delayed refill,
  # to the virtual initial entry, and on the grid. All fatal-detected.
  "sdc rollback over a lost node, immediate refill|--topology=pairs --nodes=4 --steps=40 --interval=4 --verify-every=1 --keep-last=2 --rerepl-delay=0 --schedule=9:corrupt:1:0,9:0,10:sdc:2"
  "sdc rollback over a lost node, delayed refill|--topology=pairs --nodes=4 --steps=40 --interval=4 --verify-every=1 --keep-last=2 --rerepl-delay=5 --schedule=9:corrupt:1:0,9:0,10:sdc:2"
  "sdc rollback to the initial entry over a lost node|--topology=pairs --nodes=4 --steps=40 --interval=4 --verify-every=3 --keep-last=3 --rerepl-delay=0 --schedule=1:sdc:2,9:corrupt:1:0,9:0"
  "grid sdc rollback over a lost node, immediate refill|--topology=triples --grid=2x3 --block=6 --steps=40 --interval=4 --verify-every=1 --keep-last=2 --rerepl-delay=0 --schedule=9:corrupt:1:0,9:corrupt:2:0,9:0,10:sdc:4"
)
