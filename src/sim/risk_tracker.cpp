#include "sim/risk_tracker.hpp"

#include <algorithm>
#include <stdexcept>

namespace dckpt::sim {

RiskTracker::RiskTracker(std::uint64_t nodes, int group_size)
    : nodes_(nodes), group_size_(group_size) {
  if (group_size != 2 && group_size != 3) {
    throw std::invalid_argument("RiskTracker: group_size must be 2 or 3");
  }
  if (nodes == 0 || nodes % static_cast<std::uint64_t>(group_size) != 0) {
    throw std::invalid_argument(
        "RiskTracker: nodes must be a positive multiple of group_size");
  }
}

bool RiskTracker::on_failure(std::uint64_t node, double time,
                             double risk_window) {
  if (node >= nodes_) throw std::out_of_range("RiskTracker: node id");
  const std::uint64_t group = group_of(node);
  const std::uint64_t member = node % static_cast<std::uint64_t>(group_size_);
  auto& windows = open_[group];
  // Prune expired windows: exposure ended, replicas restored.
  std::erase_if(windows, [time](const Window& w) { return w.expiry <= time; });

  // Count distinct *other* members currently exposed. A repeated failure of
  // the same member (its replacement failing again) refreshes its window but
  // does not endanger additional replicas.
  bool member_already_open = false;
  std::uint64_t distinct_others = 0;
  std::uint64_t seen_mask = 0;
  for (const Window& w : windows) {
    if (w.member == member) {
      member_already_open = true;
    } else if (!(seen_mask & (1ULL << w.member))) {
      seen_mask |= 1ULL << w.member;
      ++distinct_others;
    }
  }

  const auto fatal_threshold =
      static_cast<std::uint64_t>(group_size_) - 1;  // 1 for pairs, 2 triples
  if (distinct_others >= fatal_threshold) {
    return true;  // every other member already exposed -> no copy survives
  }

  if (member_already_open) {
    // Refresh: keep the latest expiry for this member.
    for (Window& w : windows) {
      if (w.member == member) w.expiry = std::max(w.expiry, time + risk_window);
    }
  } else {
    windows.push_back(Window{member, time + risk_window});
  }
  if (windows.empty()) open_.erase(group);
  return false;
}

}  // namespace dckpt::sim
