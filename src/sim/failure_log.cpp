#include "sim/failure_log.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/parse.hpp"

namespace dckpt::sim {

std::vector<FailureEvent> load_failure_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_failure_trace: cannot open " + path);
  std::vector<FailureEvent> events;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    // Exactly two whitespace-separated fields, each parsed whole.
    std::istringstream fields(line);
    std::string time_text, node_text, extra;
    fields >> time_text >> node_text;
    const auto time = util::parse_number<double>(time_text, 0.0);
    const auto node = util::parse_number<std::uint64_t>(node_text);
    if (!time || !node || fields >> extra) {
      throw std::runtime_error("load_failure_trace: bad line " +
                               std::to_string(line_number) + " in " + path);
    }
    events.push_back({time.value, node.value});
  }
  if (!std::is_sorted(events.begin(), events.end(),
                      [](const FailureEvent& a, const FailureEvent& b) {
                        return a.time < b.time;
                      })) {
    throw std::runtime_error("load_failure_trace: trace not time-sorted: " +
                             path);
  }
  return events;
}

void save_failure_trace(const std::string& path,
                        const std::vector<FailureEvent>& events) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_failure_trace: cannot open " + path);
  out << "# dckpt failure trace: <time_seconds> <node_id>\n";
  out.precision(9);
  for (const auto& event : events) {
    out << std::fixed << event.time << ' ' << event.node << '\n';
  }
  if (!out) throw std::runtime_error("save_failure_trace: write failed");
}

std::vector<FailureEvent> generate_failure_trace(
    const util::Distribution& inter_arrival, std::uint64_t nodes,
    double horizon, util::Xoshiro256ss rng) {
  if (nodes == 0) {
    throw std::invalid_argument("generate_failure_trace: zero nodes");
  }
  if (!(horizon > 0.0)) {
    throw std::invalid_argument("generate_failure_trace: horizon must be > 0");
  }
  std::vector<FailureEvent> events;
  for (std::uint64_t node = 0; node < nodes; ++node) {
    double t = inter_arrival.sample(rng);
    while (t < horizon) {
      events.push_back({t, node});
      t += inter_arrival.sample(rng);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const FailureEvent& a, const FailureEvent& b) {
              return a.time < b.time;
            });
  return events;
}

}  // namespace dckpt::sim
