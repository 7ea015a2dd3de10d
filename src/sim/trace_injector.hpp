// Failure logs: read, write and synthesize the recorded failure traces that
// HPC failure studies publish. `dckpt trace-gen` writes one and
// `dckpt trace-fit` fits a failure law to one; no simulation replays them.
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
