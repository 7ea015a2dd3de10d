// Trace-driven failure injection: replay recorded failure logs through the
// simulator instead of sampling a distribution. HPC failure studies publish
// such logs; this makes the simulator consumable for them and makes runs
// exactly reproducible across tools.
//
// File format: one event per line, `<time_seconds> <node_id>`, '#' comments
// and blank lines ignored; times must be non-decreasing.
#pragma once

#include <string>
#include <vector>

#include "sim/failure_injector.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"

namespace dckpt::sim {

/// Replays a fixed schedule; after the last event the source goes silent
/// (next failure at +infinity).
class TraceInjector final : public FailureInjector {
 public:
  /// `events` must be time-sorted; `nodes` bounds the node ids.
  TraceInjector(std::vector<FailureEvent> events, std::uint64_t nodes);

  FailureEvent peek() override;
  void pop() override;
  void on_node_replaced(std::uint64_t node, double failure_time,
                        double rebirth_time) override;
  std::uint64_t node_count() const override { return nodes_; }

  std::size_t remaining() const noexcept { return events_.size() - cursor_; }

 private:
  std::vector<FailureEvent> events_;
  std::size_t cursor_ = 0;
  std::uint64_t nodes_;
};

/// Parses a failure-log file: one `<time_seconds> <node_id>` event per line
/// (a finite time >= 0 and an unsigned node id, each a whole number in the
/// util::parse_number grammar, nothing after them); blank lines and lines
/// starting with '#' are skipped. Throws std::runtime_error on I/O or format
/// errors (with line numbers).
std::vector<FailureEvent> load_failure_trace(const std::string& path);

/// Writes a failure log in the same format.
void save_failure_trace(const std::string& path,
                        const std::vector<FailureEvent>& events);

/// Synthesizes a trace: `nodes` independent renewal processes with the
/// given inter-arrival law, truncated at `horizon` seconds, merged and
/// time-sorted. (No rebirth semantics -- each node keeps its own renewal
/// clock -- which matches how public failure logs are collected.)
std::vector<FailureEvent> generate_failure_trace(
    const util::Distribution& inter_arrival, std::uint64_t nodes,
    double horizon, util::Xoshiro256ss rng);

}  // namespace dckpt::sim
