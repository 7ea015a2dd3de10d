// One checkpoint driver for both runtimes: the buddy-checkpointing protocol
// as the paper states it, independent of how the application splits its
// domain.
//
// The driver owns every node's application memory (a PageStore, so
// checkpoints get real COW semantics) and buddy storage, and runs a lockstep
// iterative computation, checkpointing every `checkpoint_interval` steps:
//
//   Pairs (double checkpointing): each node keeps a local copy of its own
//   image and stages a replica on its buddy; the set commits when every
//   exchange completed.
//
//   Triples: no local copy -- each node stages its image on its preferred
//   and secondary buddies (two replicas), rotation as in the paper.
//
// Failure injection destroys a node's memory and buddy storage mid-run. The
// driver then performs the paper's coordinated rollback: survivors restore
// the last committed set, the replacement node recovers its image from a
// surviving replica (hash-verified), re-replicates what it stored for its
// peers, and the lost steps are re-executed. Verified checkpoints, proactive
// commits on predictor alarms and differential (dcp) commits ride on the
// same loop.
//
// The driver also runs everything after a failure: it walks each node's
// replica ladder skipping corrupt images, blank-restarts nodes whose ladder
// is exhausted (degraded mode -- the run continues), refills the stores the
// failure emptied after the configured delay (retrying with backoff when a
// transfer fails or arrives torn), counts every step of open risk window,
// and rolls back through the retained sets when verification finds silent
// corruption. The chaos shadow oracle is an independent reimplementation of
// exactly this logic, and any divergence is classified `violated`.
//
// A topology adapter (the 1-D chain Coordinator, the 2-D GridCoordinator)
// supplies only a node's initial condition and one Jacobi step: a halo
// exchange that reads the pre-step state, then a per-node update the driver
// runs on its stepping pool. Buddy placement follows consecutive node ids
// (racks), not the domain decomposition.
//
// Each node's state lives twice. Its PageStore is the authority for
// snapshots, COW and the cow_copies count; a contiguous live copy is what
// the update reads and the halos come from. A step writes back only the
// pages whose bytes changed, then swaps the step's output in as the live
// copy, so untouched pages stay shared with the last commit's images; every
// other path that changes a node's pages (restores, re-initialization,
// node loss, silent errors) refreshes the live copy.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ckpt/buddy_store.hpp"
#include "ckpt/dcp.hpp"
#include "ckpt/page_store.hpp"
#include "ckpt/recovery.hpp"
#include "ckpt/ring.hpp"
#include "ckpt/transfer.hpp"  // RetryPolicy
#include "util/thread_pool.hpp"

namespace dckpt::runtime {

struct RuntimeConfig;  // coordinator.hpp
struct GridConfig;     // grid.hpp

/// The protocol settings both runtimes share: everything the
/// step/commit/refill machine needs, nothing the application layer adds on
/// top. Each field means what the RuntimeConfig field of the same name
/// means. Both runtime configs convert implicitly; the grid's policy always
/// has staging_steps == 0 (the grid commits immediately).
struct CheckpointPolicy {
  std::uint64_t nodes = 4;
  ckpt::Topology topology = ckpt::Topology::Pairs;
  std::uint64_t checkpoint_interval = 16;
  std::uint64_t total_steps = 128;
  std::uint64_t staging_steps = 0;
  std::uint64_t rereplication_delay_steps = 0;
  ckpt::RetryPolicy transfer_retry;
  std::uint64_t verify_every = 0;
  std::size_t keep_last = 1;
  std::uint64_t dcp_stack_size = 0;
  std::size_t dcp_block_size = ckpt::kDefaultDcpBlockSize;

  CheckpointPolicy() = default;
  CheckpointPolicy(const RuntimeConfig& config);  // NOLINT: implicit
  CheckpointPolicy(const GridConfig& config);     // NOLINT: implicit

  void validate() const;  ///< throws std::invalid_argument
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

/// The one injection check, run by the driver, the chaos shadow oracle and
/// the chaos schedule generators: every injection must name an existing
/// node and a step that actually executes, a CorruptReplica must aim at one
/// of the owner's holders (ckpt::GroupAssignment::holders), a SilentError
/// requires verification enabled (`verify_every` > 0) -- an undetectable
/// silent error would make a campaign vacuously pass -- and a TornDelta
/// requires dcp enabled with 1 <= depth <= dcp_stack_size - 1 (a chain
/// never grows longer than K - 1 layers). Throws std::invalid_argument
/// otherwise.
void validate_injections(std::span<const FailureInjection> failures,
                         const CheckpointPolicy& policy);

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

/// Hash of a full global state vector (for cross-run comparisons).
std::uint64_t state_hash(std::span<const double> state);

class CheckpointDriver {
 public:
  virtual ~CheckpointDriver() = default;
  // The store directory points into this object.
  CheckpointDriver(const CheckpointDriver&) = delete;
  CheckpointDriver& operator=(const CheckpointDriver&) = delete;

  /// Runs to completion, injecting `failures` (each fires at most once, in
  /// step order). Returns the report; on fatal data loss, `fatal` is set,
  /// the lost nodes restart blank and the run *continues* in degraded mode
  /// (every such step counted in `degraded_steps`) -- it never throws for
  /// data loss.
  RunReport run(std::span<const FailureInjection> failures = {});

  /// Every node's state concatenated in node order.
  std::vector<double> global_state() const;

 protected:
  /// Throws std::invalid_argument unless `policy` is valid (adapters
  /// validate their own config first); every node holds `cells` doubles.
  CheckpointDriver(const CheckpointPolicy& policy, std::size_t cells,
                   std::size_t threads);

  /// The starting configuration: every node takes its initial condition,
  /// and the rollback ladder (back to its virtual initial entry), the
  /// corruption epochs, the lost set, the refills and the commit markers
  /// reset. Adapters call it at the end of their constructor, once the
  /// hooks below can run; a rollback to the start calls it again.
  void initialize_all();

  std::uint64_t node_count() const noexcept { return policy_.nodes; }

  /// Halo capture: copies `out.size()` doubles of `node`'s state, starting
  /// at cell `first`.
  void read_cells(std::uint64_t node, std::size_t first,
                  std::span<double> out) const;

  /// `node`'s paged memory: what its snapshots capture. Between steps it
  /// holds the same bytes as the live copy read_cells() reads.
  const ckpt::PageStore& memory(std::uint64_t node) const {
    return memory_[node];
  }

  /// Writes `node`'s initial condition into `state` (zero-filled, `cells`
  /// long). Also the blank restart of a node with no replica left.
  virtual void initialize(std::uint64_t node,
                          std::span<double> state) const = 0;
  /// First half of a Jacobi step: captures every ghost value the updates
  /// need, before any node changes, so the result is independent of
  /// stepping order and thread count.
  virtual void exchange_halos() = 0;
  /// Second half: `next` = one step of `node` from `previous` and its
  /// captured halos. Runs concurrently for different nodes.
  virtual void update(std::uint64_t node, std::span<const double> previous,
                      std::span<double> next) const = 0;

 private:
  /// One rung of the rollback ladder: a committed set's capture step, its
  /// per-node content hashes, and the corruption epochs its images carry.
  /// The ladder is seeded with a *virtual initial entry* (the starting
  /// configuration, epochs all zero) so a run corrupted before its first
  /// clean commit can still roll back to a restart instead of dying.
  struct RetainedSet {
    std::uint64_t step = 0;
    std::vector<std::uint64_t> hashes;
    std::vector<std::uint64_t> epochs;
    bool initial = false;
  };

  /// A pending re-replication of one store the failure emptied.
  struct RefillEntry {
    std::uint64_t node = 0;
    std::uint64_t due = 0;      ///< executed steps until the next attempt
    std::uint64_t attempt = 1;  ///< 1-based delivery attempt counter
    bool abandoned = false;     ///< retries exhausted; wait for a commit
  };

  /// Writes `node`'s live copy into its pages. Only the pages whose bytes
  /// changed are written, so the others stay shared with the snapshots.
  void write_back(std::uint64_t node);
  /// Restores `node`'s pages from `image` and refreshes its live copy.
  void restore(std::uint64_t node, const ckpt::Snapshot& image);
  void reinitialize(std::uint64_t node);
  void destroy(std::uint64_t node);
  void inject_sdc(std::uint64_t node);
  void execute_step();
  std::vector<ckpt::Snapshot> snapshot_all();
  void begin_checkpoint(std::uint64_t step);
  void commit_checkpoint(RunReport& report);
  void commit_delta_checkpoint(RunReport& report, std::uint64_t step);
  void proactive_checkpoint(RunReport& report, std::uint64_t step);

  /// Fires every injection scheduled for `step`, in kind order within the
  /// step: SilentError flips live memory first (the node keeps running, its
  /// corruption epoch advances), CorruptReplica and TornDelta damage
  /// committed images, Torn/FailTransfer arm against the node's next refill
  /// delivery, NodeLoss destroys last. Fired injections are erased from
  /// `pending`. Returns true when at least one NodeLoss fired.
  bool fire_injections(std::vector<FailureInjection>& pending,
                       std::uint64_t step, RunReport& report);
  /// The coordinated rollback after a NodeLoss, to the committed set (the
  /// starting configuration before the first commit): every node restores
  /// through its replica ladder; corrupt images are skipped and counted; a
  /// node with no clean replica blank-restarts and is marked lost (the
  /// first one sets the fatal fields; the run continues). The run resumes
  /// from committed_step_.
  void rollback_all(RunReport& report, std::uint64_t step);
  /// One verification round (cost accounted by the caller). No live
  /// corruption -> nullopt. Otherwise walks the rollback ladder newest ->
  /// oldest for the shallowest retained set that (a) was captured before
  /// every live corruption epoch and (b) every node can restore
  /// hash-verified through its replica ladder, installs it as the committed
  /// set and returns the step to resume from. Exhausted ladder =
  /// detected-but-unrecoverable: the corruption is *accepted* as the new
  /// truth (fatal fields set, run continues) and nullopt is returned.
  std::optional<std::uint64_t> verify_checkpoints(RunReport& report,
                                                  std::uint64_t step);
  /// The per-node half of a rollback, one task per node on the stepping
  /// pool: every node not lost walks its replica ladder against
  /// expected[node] and, when the walk succeeds, restores the image into
  /// its own memory. Returns the outcomes in node order, without their
  /// images (a lost node's outcome stays default).
  std::vector<ckpt::RecoveryOutcome> restore_all(
      std::span<const std::uint64_t> expected);
  /// Queues a refill for every store a rollback left empty -- every store
  /// must be refilled before its group can take another hit (the model's
  /// risk window) -- and delivers at once when the delay is 0, exactly like
  /// the blocking protocol.
  void schedule_refills(RunReport& report);
  /// Attempts every live refill whose countdown reached zero, erasing the
  /// delivered ones.
  void deliver_due(RunReport& report);
  /// One delivery attempt for `entry`. Returns true when the entry is done
  /// (delivered); false re-arms it (retry scheduled or abandoned in place).
  bool attempt_delivery(RefillEntry& entry, RunReport& report);
  /// Every node runs committed or initial data again; nobody is blank.
  void readmit_lost();

  CheckpointPolicy policy_;
  std::size_t cells_;
  ckpt::GroupAssignment groups_;
  util::ThreadPool pool_;
  std::vector<std::vector<double>> next_;  ///< step output, per chunk
  // Per node: the application state (paged, and the live copy), the buddy
  // storage, and the view of the stores the ckpt walks take (&stores_[i]).
  std::vector<ckpt::PageStore> memory_;
  std::vector<std::vector<double>> live_;
  std::vector<ckpt::BuddyStore> stores_;
  std::vector<ckpt::BuddyStore*> directory_;
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
  // The last full commit's images and their block hash arrays: a delta
  // commit takes the hash of every block still on those pages from here.
  // The stores hold the same pages, so keeping them shares nothing more.
  std::vector<ckpt::Snapshot> full_images_;
  std::vector<std::vector<std::uint64_t>> full_hashes_;
  std::uint64_t dcp_layers_ = 0;
  std::uint64_t dcp_tip_version_ = 0;  ///< snapshot version of the last commit

  // The post-failure machine: pending refills, armed transfer faults (per
  // node, FIFO), the nodes running blank since an exhausted ladder, the
  // live per-node corruption epochs (0 = clean since capture) and the
  // rollback ladder (front = the committed set, depth 0).
  std::vector<RefillEntry> refill_;
  std::vector<std::vector<InjectionKind>> armed_;
  std::vector<char> lost_;
  std::uint64_t lost_count_ = 0;
  std::vector<std::uint64_t> sdc_epoch_;
  std::deque<RetainedSet> sets_;
};

}  // namespace dckpt::runtime
