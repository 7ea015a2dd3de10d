// Failure arrival processes for the simulator.
//
// Two interchangeable sources of (time, node) failure events:
//
//  * PlatformExponentialInjector -- one Poisson process at platform rate
//    1/M; each arrival strikes a uniformly random node. For independent
//    exponential nodes this is *exactly* equivalent to n per-node processes
//    (superposition theorem) and costs O(1) per failure even at n = 10^6.
//
//  * PerNodeInjector -- n independent renewal processes with an arbitrary
//    inter-arrival Distribution (Weibull in every shipped run), kept as a
//    min-heap of per-node next-failure times. A failed node is replaced
//    after the downtime; the replacement's clock restarts (renewal with
//    rebirth). O(log n) per failure. reset() restarts the whole fleet on a
//    new stream in place, so a Monte-Carlo lane reuses one injector across
//    trials instead of cloning n laws per trial.
//
// Injectors are advanced lazily: peek() exposes the next failure, pop()
// consumes it, on_node_replaced() reschedules the failed node's stream.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/distributions.hpp"
#include "util/rng.hpp"

namespace dckpt::sim {

struct FailureEvent {
  double time = 0.0;
  std::uint64_t node = 0;
};

class FailureInjector {
 public:
  virtual ~FailureInjector() = default;

  /// Next failure event (strictly increasing times across calls).
  virtual FailureEvent peek() = 0;

  /// Consumes the event returned by the last peek().
  virtual void pop() = 0;

  /// Notifies that `node` failed at `failure_time` and its replacement
  /// becomes fault-prone again at `rebirth_time` (>= failure_time).
  virtual void on_node_replaced(std::uint64_t node, double failure_time,
                                double rebirth_time) = 0;

  virtual std::uint64_t node_count() const = 0;
};

/// Memoryless platform-level injector (exact for exponential node lifetimes).
class PlatformExponentialInjector final : public FailureInjector {
 public:
  /// `platform_mtbf` is M (already divided by n).
  PlatformExponentialInjector(double platform_mtbf, std::uint64_t nodes,
                              util::Xoshiro256ss rng);

  FailureEvent peek() override;
  void pop() override;
  void on_node_replaced(std::uint64_t node, double failure_time,
                        double rebirth_time) override;
  std::uint64_t node_count() const override { return nodes_; }

 private:
  void ensure_next();

  double rate_;
  std::uint64_t nodes_;
  util::Xoshiro256ss rng_;
  double clock_ = 0.0;
  FailureEvent next_{};
  bool has_next_ = false;
};

/// General renewal injector: one clock per node, heap-ordered. Supports
/// heterogeneous fleets (per-node inter-arrival laws) -- real machines mix
/// healthy nodes with "lemons" whose MTBF is far below the fleet average.
class PerNodeInjector final : public FailureInjector {
 public:
  /// Homogeneous fleet: every node uses `inter_arrival`, whose mean is the
  /// *individual node* MTBF (n * M).
  PerNodeInjector(const util::Distribution& inter_arrival, std::uint64_t nodes,
                  util::Xoshiro256ss rng);

  /// Heterogeneous fleet: `laws[i]` is node i's inter-arrival law.
  PerNodeInjector(std::vector<std::unique_ptr<util::Distribution>> laws,
                  util::Xoshiro256ss rng);

  /// Restarts every node's clock at time 0 on `rng`, keeping the laws and
  /// the storage: afterwards the injector yields exactly the events a
  /// freshly constructed one with the same laws and `rng` would.
  void reset(util::Xoshiro256ss rng);

  FailureEvent peek() override;
  void pop() override;
  void on_node_replaced(std::uint64_t node, double failure_time,
                        double rebirth_time) override;
  std::uint64_t node_count() const override { return next_time_.size(); }

 private:
  struct HeapEntry {
    double time;
    std::uint64_t node;
    std::uint64_t generation;  ///< invalidates stale entries after rebirth
    bool operator>(const HeapEntry& other) const noexcept {
      return time > other.time;
    }
  };

  void push_node(std::uint64_t node, double from_time);
  void push_all_nodes();
  void pop_entry();
  void refill();

  std::vector<std::unique_ptr<util::Distribution>> dists_;  ///< per node
  util::Xoshiro256ss rng_;
  std::vector<double> next_time_;
  std::vector<std::uint64_t> generation_;
  /// Min-heap under std::greater<>, driven by std::push_heap/pop_heap --
  /// the calls std::priority_queue makes -- so reset() can clear it and
  /// keep its capacity.
  std::vector<HeapEntry> heap_;
  bool has_top_ = false;
  FailureEvent top_{};
};

}  // namespace dckpt::sim
