#include "sim/failure_injector.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

namespace dckpt::sim {

// ------------------------------------------- PlatformExponentialInjector

PlatformExponentialInjector::PlatformExponentialInjector(
    double platform_mtbf, std::uint64_t nodes, util::Xoshiro256ss rng)
    : rate_(1.0 / platform_mtbf), nodes_(nodes), rng_(rng) {
  if (!(platform_mtbf > 0.0) || !std::isfinite(platform_mtbf)) {
    throw std::invalid_argument("PlatformExponentialInjector: bad MTBF");
  }
  if (nodes == 0) {
    throw std::invalid_argument("PlatformExponentialInjector: zero nodes");
  }
}

void PlatformExponentialInjector::ensure_next() {
  if (has_next_) return;
  clock_ += -std::log(rng_.next_double_open_zero()) / rate_;
  next_ = {clock_, rng_.next_below(nodes_)};
  has_next_ = true;
}

FailureEvent PlatformExponentialInjector::peek() {
  ensure_next();
  return next_;
}

void PlatformExponentialInjector::pop() {
  ensure_next();
  has_next_ = false;
}

void PlatformExponentialInjector::on_node_replaced(std::uint64_t, double,
                                                   double) {
  // Memoryless process: replacement changes nothing.
}

// ------------------------------------------------------- PerNodeInjector

PerNodeInjector::PerNodeInjector(const util::Distribution& inter_arrival,
                                 std::uint64_t nodes, util::Xoshiro256ss rng)
    : rng_(rng), next_time_(nodes, 0.0), generation_(nodes, 0) {
  if (nodes == 0) throw std::invalid_argument("PerNodeInjector: zero nodes");
  dists_.reserve(nodes);
  for (std::uint64_t node = 0; node < nodes; ++node) {
    dists_.push_back(inter_arrival.clone());
  }
  push_all_nodes();
}

PerNodeInjector::PerNodeInjector(
    std::vector<std::unique_ptr<util::Distribution>> laws,
    util::Xoshiro256ss rng)
    : dists_(std::move(laws)), rng_(rng), next_time_(dists_.size(), 0.0),
      generation_(dists_.size(), 0) {
  if (dists_.empty()) {
    throw std::invalid_argument("PerNodeInjector: zero nodes");
  }
  for (const auto& law : dists_) {
    if (!law) throw std::invalid_argument("PerNodeInjector: null law");
  }
  push_all_nodes();
}

void PerNodeInjector::reset(util::Xoshiro256ss rng) {
  rng_ = rng;
  std::fill(generation_.begin(), generation_.end(), 0);
  heap_.clear();
  has_top_ = false;
  push_all_nodes();
}

void PerNodeInjector::push_node(std::uint64_t node, double from_time) {
  const double t = from_time + dists_[node]->sample(rng_);
  next_time_[node] = t;
  heap_.push_back(HeapEntry{t, node, generation_[node]});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

void PerNodeInjector::push_all_nodes() {
  for (std::uint64_t node = 0; node < dists_.size(); ++node) {
    push_node(node, 0.0);
  }
}

void PerNodeInjector::pop_entry() {
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  heap_.pop_back();
}

void PerNodeInjector::refill() {
  if (has_top_) return;
  while (!heap_.empty()) {
    const HeapEntry entry = heap_.front();
    if (entry.generation != generation_[entry.node]) {
      pop_entry();  // stale: the node was reborn since this was scheduled
      continue;
    }
    top_ = {entry.time, entry.node};
    has_top_ = true;
    return;
  }
  throw std::logic_error("PerNodeInjector: heap exhausted");
}

FailureEvent PerNodeInjector::peek() {
  refill();
  return top_;
}

void PerNodeInjector::pop() {
  refill();
  pop_entry();
  has_top_ = false;
  // The node keeps failing on its renewal schedule until on_node_replaced
  // reschedules it; schedule the next arrival from the consumed one so the
  // stream never dries up even if the caller ignores replacement.
  ++generation_[top_.node];
  push_node(top_.node, top_.time);
}

void PerNodeInjector::on_node_replaced(std::uint64_t node, double,
                                       double rebirth_time) {
  ++generation_[node];
  push_node(node, rebirth_time);
}

}  // namespace dckpt::sim
