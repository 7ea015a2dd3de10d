// The checkpoint driver's page-identity paths, on both adapters: a sparse
// kernel that leaves most pages byte-identical between commits (so delta
// commits reuse block hashes and replays share pages) must still recover
// to the checkpoint-free answer with every counter the chaos oracle
// predicts, and the contiguous live copy a node steps on must equal its
// paged memory after every path that rewrites the pages.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "chaos/shadow.hpp"
#include "runtime/runtime_api.hpp"

namespace {

using namespace dckpt::runtime;
using dckpt::ckpt::Topology;

// -------------------------------------------------------- sparse kernels

/// 1-D heat stencil on a window of kWindow cells that drifts kDrift cells
/// per step; every other cell is copied unchanged. The step counter lives
/// in the last cell, so the kernel is stateless and replays after a
/// rollback follow the same windows.
class DriftingWindowKernel final : public Kernel {
 public:
  static constexpr std::size_t kWindow = 256;  // 2 KiB
  static constexpr std::size_t kDrift = 192;

  void initialize(std::size_t offset, std::span<double> state) const override {
    for (std::size_t i = 0; i + 1 < state.size(); ++i) {
      const auto x = static_cast<double>(offset + i);
      state[i] = std::sin(0.01 * x) + 0.25 * std::sin(0.37 * x);
    }
    state.back() = 0.0;
  }

  void step(std::span<const double> previous, std::span<double> next,
            double left_ghost, double right_ghost) const override {
    const std::size_t n = previous.size() - 1;
    std::copy(previous.begin(), previous.end(), next.begin());
    const auto counter = static_cast<std::size_t>(previous[n]);
    const std::size_t begin = counter * kDrift % (n - kWindow);
    for (std::size_t i = begin; i < begin + kWindow; ++i) {
      const double left = i == 0 ? left_ghost : previous[i - 1];
      const double right = i + 1 == n ? right_ghost : previous[i + 1];
      next[i] = previous[i] + 0.25 * (left - 2.0 * previous[i] + right);
    }
    next[n] = previous[n] + 1.0;
  }

  std::size_t right_halo_index(std::size_t cells) const override {
    return cells - 2;  // the last cell is the counter
  }
  std::string name() const override { return "drifting-window"; }
};

/// 2-D heat stencil on a band of kBand rows drifting kDrift rows per step;
/// the counter is the block's last cell, which the band never reaches.
class DriftingBandKernel final : public GridKernel {
 public:
  static constexpr std::size_t kBand = 4;
  static constexpr std::size_t kDrift = 7;

  void initialize(std::size_t row0, std::size_t col0, std::size_t rows,
                  std::size_t cols, std::span<double> state) const override {
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        state[r * cols + c] = std::sin(0.05 * static_cast<double>(col0 + c)) *
                              std::cos(0.07 * static_cast<double>(row0 + r));
      }
    }
    state.back() = 0.0;
  }

  void step(std::span<const double> previous, std::span<double> next,
            std::size_t rows, std::size_t cols,
            std::span<const double> north, std::span<const double> south,
            std::span<const double> west,
            std::span<const double> east) const override {
    std::copy(previous.begin(), previous.end(), next.begin());
    const auto counter = static_cast<std::size_t>(previous.back());
    const std::size_t first = counter * kDrift % (rows - 1 - kBand);
    const auto at = [&](std::size_t r, std::size_t c) {
      return previous[r * cols + c];
    };
    for (std::size_t r = first; r < first + kBand; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        const double up = r == 0 ? north[c] : at(r - 1, c);
        const double down = r + 1 == rows ? south[c] : at(r + 1, c);
        const double left = c == 0 ? west[r] : at(r, c - 1);
        const double right = c + 1 == cols ? east[r] : at(r, c + 1);
        next[r * cols + c] =
            at(r, c) + 0.2 * (up + down + left + right - 4.0 * at(r, c));
      }
    }
    next.back() = previous.back() + 1.0;
  }

  std::string name() const override { return "drifting-band"; }
};

// ------------------------------------------------- sparse runs vs oracle

/// Every counter the shadow oracle predicts, plus the fatal flag.
void expect_matches_oracle(const RunReport& r, const RunReport& p) {
  EXPECT_EQ(r.fatal, p.fatal);
  for (const auto& counter : dckpt::chaos::kOracleCounters) {
    EXPECT_EQ(r.*counter.field, p.*counter.field) << counter.name;
  }
}

/// dcp K = 3 with a commit every 4 steps: the set committed at step 12 is
/// a full base plus two delta layers. At step 14 node 0's first-rung chain
/// tears at depth 1, node 1's first-rung base is corrupted and `victim` is
/// lost, so the rollback replays chains, fails over twice and refills.
template <typename Config>
Config sparse_policy(Config config, Topology topology) {
  config.topology = topology;
  config.checkpoint_interval = 4;
  config.total_steps = 40;
  config.dcp_stack_size = 3;
  config.rereplication_delay_steps = 2;
  config.threads = 2;
  return config;
}

std::vector<FailureInjection> sparse_schedule(const CheckpointPolicy& policy,
                                              std::uint64_t victim) {
  const dckpt::ckpt::GroupAssignment groups(policy.nodes, policy.topology);
  const std::uint64_t corrupt_holder = policy.topology == Topology::Pairs
                                           ? 1
                                           : groups.preferred_buddy(1);
  std::vector<FailureInjection> failures(3);
  failures[0] = {14, 0, InjectionKind::TornDelta, 0, 1};
  failures[1] = {14, corrupt_holder, InjectionKind::CorruptReplica, 1, 0};
  failures[2] = {14, victim, InjectionKind::NodeLoss, 0, 0};
  return failures;
}

template <typename Driver, typename Config, typename MakeKernel>
void check_sparse_run(const Config& config, std::uint64_t victim,
                      MakeKernel make_kernel) {
  Config plain = config;
  plain.checkpoint_interval = plain.total_steps;  // no boundary is reached
  plain.dcp_stack_size = 0;
  Driver reference(plain, make_kernel());
  const std::uint64_t expected = reference.run().final_hash;

  const auto failures = sparse_schedule(config, victim);
  Driver driver(config, make_kernel());
  const RunReport report = driver.run(failures);
  EXPECT_EQ(report.final_hash, expected);
  expect_matches_oracle(report,
                        dckpt::chaos::predict_outcome(config, failures));
  // The schedule reached every path it aims at.
  EXPECT_FALSE(report.fatal) << report.fatal_reason;
  EXPECT_EQ(report.failures, 1u);
  EXPECT_EQ(report.torn_chain_failovers, 1u);
  EXPECT_GE(report.corrupt_images_detected, 2u);
  EXPECT_GT(report.chain_replays, 0u);
  EXPECT_GT(report.delta_commits, 0u);
}

TEST(SparseKernelTest, ChainPairsRecoverExactlyAsPredicted) {
  RuntimeConfig config;
  config.nodes = 4;
  config.cells_per_node = 2048;  // 16 KiB: four pages
  config.dcp_block_size = 1024;
  check_sparse_run<Coordinator>(
      sparse_policy(config, Topology::Pairs), 2,
      [] { return std::make_unique<DriftingWindowKernel>(); });
}

TEST(SparseKernelTest, ChainTriplesRecoverExactlyAsPredicted) {
  RuntimeConfig config;
  config.nodes = 6;
  config.cells_per_node = 2560;  // 20 KiB: five pages
  config.dcp_block_size = 6144;  // blocks span pages, with a short tail
  check_sparse_run<Coordinator>(
      sparse_policy(config, Topology::Triples), 5,
      [] { return std::make_unique<DriftingWindowKernel>(); });
}

TEST(SparseKernelTest, GridRecoversExactlyAsPredicted) {
  for (const Topology topology : {Topology::Pairs, Topology::Triples}) {
    SCOPED_TRACE(topology == Topology::Pairs ? "pairs" : "triples");
    GridConfig config;
    config.grid_rows = topology == Topology::Pairs ? 2 : 3;
    config.grid_cols = config.grid_rows;
    config.block_rows = 48;
    config.block_cols = 64;  // 24 KiB: six pages
    config.dcp_block_size = 4096;
    check_sparse_run<GridCoordinator>(
        sparse_policy(config, topology), config.nodes() - 1,
        [] { return std::make_unique<DriftingBandKernel>(); });
  }
}

// ------------------------------------------------- live copy vs pages

/// A 1-D heat chain that, before every step and on demand, compares each
/// node's live copy (read_cells) with its paged memory byte for byte.
class CheckedChain final : public CheckpointDriver {
 public:
  CheckedChain(const CheckpointPolicy& policy, std::size_t cells)
      : CheckpointDriver(policy, cells, 2), cells_(cells),
        left_(policy.nodes, 0.0), right_(policy.nodes, 0.0) {
    initialize_all();
  }

  /// Nodes whose live copy differed from their pages, over all checks.
  std::size_t mismatches = 0;
  std::size_t checks = 0;

  void check_all() {
    std::vector<double> live(cells_);
    std::vector<double> paged(cells_);
    for (std::uint64_t node = 0; node < node_count(); ++node) {
      read_cells(node, 0, live);
      memory(node).read(0, std::as_writable_bytes(std::span(paged)));
      if (std::memcmp(live.data(), paged.data(),
                      cells_ * sizeof(double)) != 0) {
        ++mismatches;
      }
      ++checks;
    }
  }

 private:
  void initialize(std::uint64_t node,
                  std::span<double> state) const override {
    kernel_.initialize(node * cells_, state);
  }
  void exchange_halos() override {
    check_all();  // after whatever the previous iteration restored
    for (std::uint64_t i = 0; i < node_count(); ++i) {
      if (i > 0) read_cells(i - 1, cells_ - 1, std::span(&left_[i], 1));
      if (i + 1 < node_count()) {
        read_cells(i + 1, 0, std::span(&right_[i], 1));
      }
    }
  }
  void update(std::uint64_t node, std::span<const double> previous,
              std::span<double> next) const override {
    kernel_.step(previous, next, left_[node], right_[node]);
  }

  std::size_t cells_;
  HeatKernel kernel_;
  std::vector<double> left_, right_;
};

TEST(LiveCopyTest, MatchesThePagesAfterEveryRestorePath) {
  struct Case {
    const char* name;
    CheckpointPolicy policy;
    std::vector<FailureInjection> failures;
  };
  CheckpointPolicy base;
  base.nodes = 4;
  base.checkpoint_interval = 6;
  base.total_steps = 36;
  std::vector<Case> cases;
  // A loss before the first commit re-initializes every node; a later one
  // restores every node from the committed set.
  cases.push_back({"rollback restore and re-initialization", base,
                   {{3, 1}, {20, 2}}});
  // A silent error flips a live byte; verification rolls back through the
  // retained sets, once past the first commit and once to the start.
  CheckpointPolicy verified = base;
  verified.verify_every = 1;
  verified.keep_last = 3;
  cases.push_back({"silent error, verified rollback", verified,
                   {{2, 0, InjectionKind::SilentError},
                    {14, 3, InjectionKind::SilentError}}});
  // Losing both members of a pair blank-restarts them (degraded mode).
  cases.push_back({"exhausted ladder, blank restart", base,
                   {{20, 2}, {20, 3}}});
  // dcp: the rollback restores replayed chain tips that share base pages.
  CheckpointPolicy dcp = base;
  dcp.topology = Topology::Triples;
  dcp.nodes = 6;
  dcp.dcp_stack_size = 3;
  cases.push_back({"dcp chain replay", dcp, {{21, 4}}});
  // Staging: a loss while a set is in flight rolls back past it.
  CheckpointPolicy staged = base;
  staged.staging_steps = 3;
  cases.push_back({"staged exchange", staged, {{13, 1}}});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ASSERT_NO_THROW(c.policy.validate());
    CheckedChain chain(c.policy, 700);  // two pages, the second partial
    const RunReport report = chain.run(c.failures);
    EXPECT_GT(report.failures + report.sdc_injected, 0u);
    chain.check_all();
    EXPECT_EQ(chain.mismatches, 0u);
    EXPECT_EQ(chain.checks, (report.steps_executed + 1) * c.policy.nodes);
  }
}

TEST(LiveCopyTest, DriverRejectsAPolicyItCannotRun) {
  // A subclass that skips its own validation still cannot build a driver
  // with no retained set or no delivery attempt.
  CheckpointPolicy no_retention;
  no_retention.keep_last = 0;
  EXPECT_THROW(CheckedChain(no_retention, 64), std::invalid_argument);
  CheckpointPolicy no_attempts;
  no_attempts.transfer_retry.max_attempts = 0;
  EXPECT_THROW(CheckedChain(no_attempts, 64), std::invalid_argument);
}

}  // namespace
