// The corruption-tolerant rollback/refill machine the CheckpointDriver runs
// for both runtimes (1-D chain and 2-D grid).
//
// Everything that happens *after* a failure: walk each node's replica
// ladder skipping corrupt images, blank-restart nodes whose ladder is
// exhausted (degraded mode -- the run continues), schedule re-replication
// refills, deliver them after the configured delay with bounded
// retry-with-backoff when a transfer fails or arrives torn, and account
// every step of open risk window. The chaos shadow oracle is an independent
// reimplementation of exactly this logic, and any divergence is classified
// `violated`.
//
// The engine owns no application data: restores and blank restarts go
// through caller-supplied callbacks, stores through a directory span.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "ckpt/buddy_store.hpp"
#include "ckpt/ring.hpp"
#include "ckpt/transfer.hpp"

namespace dckpt::runtime {

struct RunReport;           // checkpoint_driver.hpp
struct FailureInjection;    // checkpoint_driver.hpp
enum class InjectionKind;   // checkpoint_driver.hpp

class RecoveryEngine {
 public:
  /// Restores `node` from the verified committed image.
  using RestoreFn =
      std::function<void(std::uint64_t node, const ckpt::Snapshot& image)>;
  /// Degraded mode: re-initializes `node` from the kernel's initial
  /// condition (deterministic -- no NaN poison leaking through halos).
  using BlankRestartFn = std::function<void(std::uint64_t node)>;

  /// `keep_last` is the retained-set ladder depth the engine tracks for
  /// silent-error rollback; it must match the stores' retention.
  RecoveryEngine(ckpt::GroupAssignment groups,
                 std::uint64_t rereplication_delay_steps,
                 ckpt::RetryPolicy retry, std::size_t keep_last = 1);

  /// Fires every injection scheduled for `step`, in kind order within the
  /// step: SilentError flips live memory first (via `silent_corrupt`; the
  /// node keeps running, its corruption epoch advances), CorruptReplica
  /// damages committed images, Torn/FailTransfer arm against the node's
  /// next refill delivery, NodeLoss destroys last (via `destroy`). Fired
  /// injections are erased from `pending`. Returns true when at least one
  /// NodeLoss fired (callers roll back).
  bool fire_injections(
      std::vector<FailureInjection>& pending, std::uint64_t step,
      std::span<ckpt::BuddyStore* const> stores,
      const std::function<void(std::uint64_t)>& destroy,
      const std::function<void(std::uint64_t)>& silent_corrupt,
      RunReport& report);

  /// The coordinated rollback after a NodeLoss (committed set exists):
  /// every node restores through its replica ladder; corrupt images are
  /// skipped and counted; a node with no clean replica blank-restarts and
  /// is marked lost (first one sets the fatal fields; the run continues).
  /// Then re-derives the refill set from the stores the failure emptied --
  /// immediately delivered when the delay is 0, else enqueued.
  void rollback_and_refill(std::uint64_t step,
                           std::span<ckpt::BuddyStore* const> stores,
                           std::span<const std::uint64_t> committed_hashes,
                           const RestoreFn& restore,
                           const BlankRestartFn& blank_restart,
                           RunReport& report);

  /// Per-executed-step bookkeeping: ticks the open risk window, performs
  /// due refill deliveries (consuming armed transfer injections; failed or
  /// torn deliveries are retried with exponential backoff until the policy
  /// abandons them), and counts degraded steps while any node is lost.
  void tick(std::span<ckpt::BuddyStore* const> stores,
            std::span<const std::uint64_t> committed_hashes,
            RunReport& report);

  /// A committed exchange re-creates every replica: pending and abandoned
  /// refills are subsumed, the risk window closes, and lost nodes rejoin
  /// (their blank-restarted state is now the committed truth). The commit
  /// also pushes the new set onto the retained-set ladder: `snapshot_step`
  /// is the step the images were captured at, `hashes` their per-node
  /// content digests, and `epochs` the corruption epochs *at capture time*
  /// (a staged commit may have absorbed corruption the live epochs no
  /// longer show first).
  void on_commit(std::uint64_t snapshot_step,
                 std::span<const std::uint64_t> hashes,
                 std::span<const std::uint64_t> epochs);

  /// How a verification round changed the run.
  struct VerifyAction {
    bool rolled_back = false;   ///< a retained set was (re)installed
    bool to_initial = false;    ///< rolled all the way to the initial state
    std::uint64_t resume_step = 0;  ///< step to resume from when rolled_back
  };

  /// One verification round (cost accounted by the caller). No live
  /// corruption -> no-op. Otherwise walks the rollback ladder newest ->
  /// oldest for the shallowest retained set that (a) was captured before
  /// every live corruption epoch and (b) every node can restore
  /// hash-verified through its replica ladder. Exhausted ladder =
  /// detected-but-unrecoverable: the corruption is *accepted* as the new
  /// truth (fatal fields set, run continues) -- no exception path. On
  /// rollback, `committed_hashes` is rewritten to the installed set's
  /// digests and deeper refills are rescheduled for emptied stores.
  VerifyAction verify_checkpoints(std::uint64_t step,
                                  std::span<ckpt::BuddyStore* const> stores,
                                  std::vector<std::uint64_t>& committed_hashes,
                                  const RestoreFn& restore,
                                  const BlankRestartFn& blank_restart,
                                  RunReport& report);

  /// Live per-node corruption epochs (monotonic; 0 = clean since capture).
  std::span<const std::uint64_t> current_epochs() const noexcept {
    return sdc_epoch_;
  }

  /// Pre-first-commit rollback (or a verified rollback to the initial
  /// state): every node re-initializes, so all corruption epochs clear and
  /// the retained-set ladder resets to the virtual initial entry.
  void reset_to_initial();

  bool any_lost() const noexcept { return lost_count_ > 0; }
  bool refill_pending() const noexcept { return !refill_.empty(); }

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

  struct RefillEntry {
    std::uint64_t node = 0;
    std::uint64_t due = 0;      ///< executed steps until the next attempt
    std::uint64_t attempt = 1;  ///< 1-based delivery attempt counter
    bool abandoned = false;     ///< retries exhausted; wait for a commit
  };

  /// One delivery attempt for `entry`. Returns true when the entry is done
  /// (delivered); false re-arms it (retry scheduled or abandoned in place).
  bool attempt_delivery(RefillEntry& entry,
                        std::span<ckpt::BuddyStore* const> stores,
                        std::span<const std::uint64_t> committed_hashes,
                        RunReport& report);

  /// Attempts every live entry whose countdown reached zero, erasing the
  /// delivered ones.
  void deliver_due(std::span<ckpt::BuddyStore* const> stores,
                   std::span<const std::uint64_t> committed_hashes,
                   RunReport& report);

  ckpt::GroupAssignment groups_;
  std::uint64_t delay_steps_;
  ckpt::RetryPolicy retry_;
  std::size_t keep_last_;
  std::vector<RefillEntry> refill_;
  std::vector<std::vector<InjectionKind>> armed_;  ///< per-node FIFO
  std::vector<char> lost_;
  std::uint64_t lost_count_ = 0;
  std::vector<std::uint64_t> sdc_epoch_;  ///< live corruption epochs
  std::deque<RetainedSet> sets_;          ///< front = committed (depth 0)
};

}  // namespace dckpt::runtime
