// Extension: incremental (delta) checkpoints. Measures, on the real
// runtime substrate, how many bytes a buddy exchange actually needs when
// only dirty pages are shipped, as a function of the checkpoint interval --
// and what that does to the model's R (= theta_min) and hence the optimal
// waste. Each delta is a content-hash dcp diff at block = page size.
#include "bench_common.hpp"

#include <cstring>
#include <memory>

#include "ckpt/dcp.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace dckpt;
  using namespace dckpt::bench;
  const auto context = parse_bench_args(
      argc, argv, "Incremental checkpoints: dirty bytes vs interval");
  if (!context) return 0;

  print_header(
      "Incremental checkpoints -- dirty fraction of a sparse-writer app",
      "1 MiB state, app touches a 16 KiB working set per step (4 random\n"
      "pages of 256, each write stamped with its step). Snapshot every k\n"
      "steps; the delta carries only pages whose content changed since the\n"
      "previous snapshot (dcp blocks of one page): the pages touched in\n"
      "between. The model effect: R scales with the dirty fraction, and\n"
      "the Base optimal waste (M = 7 h, phi = R/4) shrinks accordingly.\n"
      "Note a dense stencil rewrites everything -- incremental\n"
      "checkpointing pays off exactly when working sets are sparse.");

  auto csv = context->csv("ext_incremental",
                          {"interval", "dirty_ratio", "delta_mib",
                           "r_effective", "waste_full", "waste_delta"});
  util::TextTable table({"ckpt every", "dirty pages", "delta size",
                         "R_eff", "waste (full R)", "waste (delta R)"});

  const auto base_params =
      model::base_scenario().at_phi_ratio(0.25).with_mtbf(7 * 3600.0);
  const double full_waste =
      model::waste_at_optimal_period(model::Protocol::DoubleNbl, base_params);

  for (std::uint64_t interval : {5ULL, 20ULL, 80ULL, 320ULL}) {
    // Drive a sparse-writer application and snapshot periodically.
    constexpr std::size_t kStateBytes = 1 << 20;  // 1 MiB
    constexpr std::size_t kPage = 4096;
    constexpr int kPagesPerStep = 4;
    ckpt::PageStore store(kStateBytes, kPage);
    util::Xoshiro256ss rng(0xd1f7 + interval);
    std::vector<std::byte> payload(kPage, std::byte{0x5A});
    ckpt::Snapshot previous = store.snapshot(0);
    std::vector<std::uint64_t> previous_hashes =
        ckpt::block_hashes(previous, kPage);
    double dirty_ratio_sum = 0.0;
    double delta_bytes_sum = 0.0;
    int samples = 0;
    for (std::uint64_t step = 1; step <= 960; ++step) {
      // The step stamp makes every write change its page's bytes: a page
      // rewritten with the bytes it holds would not be content-dirty.
      std::memcpy(payload.data(), &step, sizeof step);
      for (int touch = 0; touch < kPagesPerStep; ++touch) {
        const std::size_t page = rng.next_below(kStateBytes / kPage);
        store.write(page * kPage, payload);
      }
      if (step % interval == 0) {
        const ckpt::Snapshot current = store.snapshot(0);
        // Untouched pages are still the previous snapshot's: their hashes
        // are reused, only the touched pages are read.
        ckpt::BlockDiff diff = ckpt::diff_blocks(
            previous_hashes, previous.version(), previous.content_hash(),
            current, kPage, {&previous, previous_hashes});
        dirty_ratio_sum += diff.layer.dirty_ratio();
        delta_bytes_sum += static_cast<double>(diff.layer.delta_bytes());
        previous = current;
        previous_hashes = std::move(diff.hashes);
        ++samples;
      }
    }
    const double dirty = dirty_ratio_sum / samples;
    const double delta_bytes = delta_bytes_sum / samples;
    // Model effect: the buddy exchange moves dirty*S bytes, so R shrinks.
    auto delta_params = base_params;
    delta_params.remote_blocking =
        std::max(1e-3, base_params.remote_blocking * dirty);
    delta_params.overhead =
        std::min(delta_params.overhead, delta_params.remote_blocking);
    const double delta_waste = model::waste_at_optimal_period(
        model::Protocol::DoubleNbl, delta_params);
    table.add_row({std::to_string(interval),
                   util::format_percent(dirty, 1),
                   util::format_bytes(delta_bytes),
                   util::format_duration(delta_params.remote_blocking),
                   util::format_percent(full_waste, 2),
                   util::format_percent(delta_waste, 2)});
    if (csv) {
      csv->write_row({std::to_string(interval),
                      util::format_fixed(dirty, 6),
                      util::format_fixed(delta_bytes / (1024 * 1024), 4),
                      util::format_fixed(delta_params.remote_blocking, 4),
                      util::format_fixed(full_waste, 6),
                      util::format_fixed(delta_waste, 6)});
    }
  }
  std::printf("%s", table.render().c_str());
  if (csv) std::printf("[csv] wrote %s\n", csv->path().c_str());
  return 0;
}
