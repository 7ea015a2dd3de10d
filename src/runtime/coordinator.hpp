// Coordinated fault-tolerant execution: the runtime counterpart of the
// protocols the model analyses.
//
// The Coordinator drives a lockstep iterative computation over a set of
// Workers, checkpointing every `checkpoint_interval` steps through the buddy
// storage substrate:
//
//   Pairs (double checkpointing): each worker keeps a local copy of its own
//   image and stages a replica on its buddy; the set commits when every
//   exchange completed.
//
//   Triples: no local copy -- each worker stages its image on its preferred
//   and secondary buddies (two replicas), rotation as in the paper.
//
// Failure injection destroys a worker's memory and buddy storage mid-run.
// The coordinator then performs the paper's coordinated rollback: survivors
// restore the last committed set, the replacement node recovers its image
// from a surviving replica (hash-verified), re-replicates what it stored for
// its peers, and the lost steps are re-executed. End-to-end correctness is
// checked by comparing the final state hash against a failure-free run.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ckpt/ring.hpp"
#include "ckpt/transfer.hpp"  // RetryPolicy
#include "runtime/kernel.hpp"
#include "runtime/recovery_engine.hpp"
#include "runtime/worker.hpp"
#include "util/thread_pool.hpp"

namespace dckpt::runtime {

struct RuntimeConfig {
  std::uint64_t nodes = 4;
  ckpt::Topology topology = ckpt::Topology::Pairs;
  std::size_t cells_per_node = 512;
  std::uint64_t checkpoint_interval = 16;  ///< steps between checkpoints
  std::uint64_t total_steps = 128;
  std::size_t threads = 0;  ///< stepping pool; 0 = hardware concurrency
  /// Semi-blocking staging (the paper's non-blocking exchange): the set
  /// snapshotted at step s commits only at step s + staging_steps; a
  /// failure in between discards it and rolls back to the *previous*
  /// committed set -- the real-system analogue of losing the whole
  /// preceding period when a failure hits parts 1/2. 0 = commit
  /// immediately (blocking exchange). Must be <= checkpoint_interval.
  std::uint64_t staging_steps = 0;
  /// Re-replication delay: executed steps between a rollback and the refill
  /// of the replacement node's buddy storage (detection + spare allocation +
  /// image transfer). While the refill is pending the victim's group cannot
  /// survive another member loss -- the runtime realization of the model's
  /// risk window (paper Sec. III/IV). A committed checkpoint also closes
  /// the window (it re-creates every replica). 0 = refill immediately.
  std::uint64_t rereplication_delay_steps = 0;
  /// Retry-with-backoff policy for re-replication transfers (failed or torn
  /// deliveries are re-issued; each waiting step extends the risk window).
  ckpt::RetryPolicy transfer_retry;
  /// Silent-error verification cadence: every `verify_every` checkpoint
  /// periods the run pays a verification (a full state audit) that detects
  /// latent corruption captured into committed sets. 0 = verification off
  /// (silent errors, if injected, stay silent). A final verification always
  /// runs at the end of the run when enabled.
  std::uint64_t verify_every = 0;
  /// Keep-last-l checkpoint retention: how many committed sets each buddy
  /// store retains (>= 1). Detected silent corruption rolls back through
  /// this ladder to the newest set whose capture predates every live
  /// corruption epoch.
  std::size_t keep_last = 1;
  /// Differential-checkpoint (dcp) stack size K: when > 0, only every K-th
  /// commit exchanges full images; the K - 1 commits in between send
  /// content-hash block deltas chained on the committed base, and a restore
  /// replays base + <= K - 1 layers. 0 = every commit is full (dcp off).
  /// Requires staging_steps == 0, verify_every == 0 and keep_last == 1
  /// (chains hang off the committed set, not the retention ring).
  std::uint64_t dcp_stack_size = 0;
  /// Differential block size in bytes (per-block FNV hash granularity).
  std::size_t dcp_block_size = ckpt::kDefaultDcpBlockSize;

  void validate() const;
};

/// What a chaos injection does to the runtime.
enum class InjectionKind {
  NodeLoss,       ///< destroy the node's memory and buddy storage
  CorruptReplica, ///< silently damage a committed image at rest
  TornTransfer,   ///< next refill delivery for `node` arrives prefix-only
  FailTransfer,   ///< next refill delivery for `node` fails outright
  SilentError,    ///< latent in-memory corruption (captured by checkpoints)
  Alarm,          ///< fault-predictor alarm: proactive checkpoint trigger
  TornDelta,      ///< tear a dcp chain layer at rest (depth in `window`)
};

/// An injection fired when the run first reaches step `step` (0-based).
/// SilentError flips live memory first (the node keeps running and the
/// damage rides into every later snapshot until detected); NodeLoss and
/// CorruptReplica act immediately (corruption before losses within a
/// step); Torn/FailTransfer arm and are consumed by the next
/// re-replication delivery attempt for `node`'s storage. For
/// CorruptReplica, `node` is the holder whose store is damaged and `owner`
/// selects which committed image.
struct FailureInjection {
  std::uint64_t step = 0;
  std::uint64_t node = 0;
  InjectionKind kind = InjectionKind::NodeLoss;
  std::uint64_t owner = 0;  ///< CorruptReplica only
  /// Alarm: prediction-window width in steps -- the alarm claims `node`
  /// will be lost within [step, step + window]; 0 = a same-step prediction.
  /// TornDelta: 1-based chain depth of the layer to tear, counted from the
  /// base (the field is overloaded; the two kinds never coexist on one
  /// injection).
  std::uint64_t window = 0;
};

/// Consumes (erases) every Alarm injection scheduled for `step`, returning
/// how many fired. Shared by both coordinators: alarms fire at the top of
/// the step loop, before the step's other injections, so the proactive
/// checkpoint they trigger can land ahead of the loss they predict (and,
/// being erased, each alarm fires exactly once even across replays).
std::uint64_t consume_alarms(std::vector<FailureInjection>& pending,
                             std::uint64_t step);

struct RunReport;

/// Static alarm <-> loss matching for the prediction scoreboard: each alarm
/// (step s, node v, window w) consumes the earliest unconsumed NodeLoss of
/// node v with s <= step <= s + w; every unconsumed loss counts as missed.
/// Valid as an upfront computation because injections fire exactly once --
/// replays never re-deliver either side. Adds to report.true_predictions
/// and report.missed_failures; shared by both coordinators (the chaos
/// shadow oracle mirrors it independently).
void score_predictions(std::span<const FailureInjection> failures,
                       RunReport& report);

/// Upfront range check shared by both coordinators (and mirrored by the
/// chaos shadow oracle): every injection must name an existing node and a
/// step that actually executes, a CorruptReplica must aim at a store
/// that actually holds the owner's image under `topology`, and a
/// SilentError requires verification enabled (`verify_every` > 0) -- an
/// undetectable silent error would make a campaign vacuously pass -- and a
/// TornDelta requires dcp enabled with 1 <= depth <= dcp_stack_size - 1
/// (a chain never grows longer than K - 1 layers). Throws
/// std::invalid_argument otherwise.
void validate_injections(std::span<const FailureInjection> failures,
                         std::uint64_t nodes, std::uint64_t total_steps,
                         ckpt::Topology topology,
                         std::uint64_t verify_every = 0,
                         std::uint64_t dcp_stack_size = 0);

struct RunReport {
  std::uint64_t steps_executed = 0;   ///< step executions incl. replays
                                      ///< (= total_steps + replayed_steps)
  std::uint64_t replayed_steps = 0;   ///< steps re-executed after rollbacks
  std::uint64_t checkpoints = 0;
  std::uint64_t failures = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t bytes_replicated = 0; ///< checkpoint bytes sent to buddies
  std::uint64_t cow_copies = 0;       ///< pages duplicated by COW
  std::uint64_t recoveries = 0;       ///< restores that had to go beyond a
                                      ///< clean local copy (incl. exhausted
                                      ///< attempts)
  std::uint64_t rereplications = 0;   ///< refill deliveries that restored
                                      ///< at least one image
  std::uint64_t risk_steps = 0;       ///< executed steps with a refill pending
                                      ///< (degraded redundancy)
  std::uint64_t failovers = 0;        ///< recoveries that skipped >= 1
                                      ///< corrupt replica and still succeeded
  std::uint64_t transfer_retries = 0; ///< refill deliveries re-issued after a
                                      ///< failed or torn transfer
  std::uint64_t corrupt_images_detected = 0;  ///< hash-check rejections at
                                              ///< any restore point
  std::uint64_t degraded_steps = 0;   ///< executed steps while some node ran
                                      ///< on from a blank restart (data loss)
  std::uint64_t hash_verified_recoveries = 0; ///< successful peer restores
                                              ///< whose content hash matched
  std::uint64_t sdc_injected = 0;     ///< silent-error injections fired
  std::uint64_t verifications_run = 0;///< checkpoint verifications executed
  std::uint64_t sdc_detected = 0;     ///< verifications that found corruption
  std::uint64_t rollback_depth = 0;   ///< retained sets dropped across all
                                      ///< silent-error rollbacks
  std::uint64_t alarms_raised = 0;    ///< predictor alarms delivered
  std::uint64_t proactive_ckpts = 0;  ///< alarm-triggered commits taken
                                      ///< (skip-if-just-committed excluded)
  std::uint64_t true_predictions = 0; ///< node losses matched by an alarm
                                      ///< within its prediction window
  std::uint64_t missed_failures = 0;  ///< node losses no alarm announced
  std::uint64_t delta_commits = 0;    ///< commits that sent block deltas
  std::uint64_t full_commits = 0;     ///< commits that sent full images
  std::uint64_t chain_replays = 0;    ///< restores that replayed >= 1 layer
  std::uint64_t chain_replay_depth = 0;  ///< total layers replayed across
                                         ///< all chain replays
  std::uint64_t torn_chain_failovers = 0;  ///< ladder rungs skipped for a
                                           ///< torn dcp layer
  bool fatal = false;                 ///< unrecoverable data loss occurred
  bool degraded = false;              ///< run continued past the loss
  std::uint64_t fatal_node = 0;       ///< first node with no clean replica
  std::uint64_t fatal_step = 0;       ///< step of the exhausted rollback
  std::string fatal_reason;
  std::uint64_t final_hash = 0;       ///< FNV-1a over the global state

  bool operator==(const RunReport&) const = default;
};

class Coordinator {
 public:
  Coordinator(RuntimeConfig config, std::unique_ptr<Kernel> kernel);

  /// Runs to completion, injecting `failures` (each fires at most once, in
  /// step order). Returns the report; on fatal data loss, `fatal` is set,
  /// the lost nodes restart blank and the run *continues* in degraded mode
  /// (every such step counted in `degraded_steps`) -- it never throws for
  /// data loss.
  RunReport run(std::span<const FailureInjection> failures = {});

  /// Global state concatenated across workers (after run()).
  std::vector<double> global_state() const;

  const RuntimeConfig& config() const noexcept { return config_; }

 private:
  void begin_checkpoint(std::uint64_t step);
  void commit_checkpoint(RunReport& report);
  void commit_delta_checkpoint(RunReport& report, std::uint64_t step);
  void proactive_checkpoint(RunReport& report, std::uint64_t step);
  void rollback_all(RunReport& report, std::uint64_t step);
  void execute_step();
  std::vector<ckpt::BuddyStore*> store_directory();

  RuntimeConfig config_;
  std::unique_ptr<Kernel> kernel_;
  ckpt::GroupAssignment groups_;
  std::vector<Worker> workers_;
  util::ThreadPool pool_;
  std::vector<std::uint64_t> committed_hashes_;  ///< per node
  std::uint64_t committed_step_ = 0;             ///< step of last commit
  bool has_commit_ = false;

  // In-flight (staged, not yet committed) checkpoint set.
  bool staging_ = false;
  std::uint64_t staging_snapshot_step_ = 0;
  std::uint64_t staging_commit_at_ = 0;
  std::uint64_t staging_version_ = 0;
  std::vector<std::uint64_t> staging_hashes_;
  // Corruption epochs at snapshot time: an SDC landing between snapshot and
  // commit is *not* captured by the staged set, so the commit must record
  // the epochs the images actually carry.
  std::vector<std::uint64_t> staging_epochs_;
  std::uint64_t staged_bytes_ = 0;

  // Verification cadence: checkpoint periods since the last verification.
  std::uint64_t periods_since_verify_ = 0;

  // Differential-checkpoint state (dcp_stack_size > 0): per-node block hash
  // arrays of the last committed image (the dcpScalable hashArray) and the
  // number of delta layers chained since the last full commit.
  std::vector<std::vector<std::uint64_t>> hash_arrays_;
  std::uint64_t dcp_layers_ = 0;
  std::uint64_t dcp_tip_version_ = 0;  ///< snapshot version of the last commit

  // Refill/retry/degraded-mode machine shared with the grid coordinator.
  RecoveryEngine engine_;
};

/// Hash of a full global state vector (for cross-run comparisons).
std::uint64_t state_hash(std::span<const double> state);

}  // namespace dckpt::runtime
