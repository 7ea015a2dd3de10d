// Extension: content-hash differential checkpoints (dcp). Measures, on the
// real ckpt substrate, the bytes a buddy exchange actually moves when only
// content-dirty blocks ship, across controlled per-commit dirty fractions,
// and compares the measured volume ratio against the analytic multiplier
//   m = (1/K)(1 + h) + (1 - 1/K)(d_b + h)
// of model/dcp.hpp. At small d the reduction approaches d + h per commit
// (plus the 1/K full-image amortization), which is the dcpScalable result
// the model encodes.
//
// Extra mode for CI: `bench_ext_dcp --hash-json=PATH` skips the volume
// table and instead times a full commit's hashing of one 1 MiB image
// (block_hashes at 4 KiB blocks, then content_hash, on a fresh Snapshot
// over the same pages each repetition, so no cached digest is timed)
// against flat fnv1a over a copy of the same bytes, best of N each; and a
// delta commit's diff of that image with 8 of its 256 pages rewritten,
// with the original image as the hash reference (only the rewritten pages
// are read) against the full walk. It writes {commit_hash_gb_per_s,
// flat_fnv1a_gb_per_s, speedup, diff_reference_per_sec, diff_walk_per_sec,
// diff_speedup, ...} to PATH; scripts/check_bench_regression.py compares
// that file against the committed BENCH_hash.json baseline.
#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <numeric>

#include "ckpt/dcp.hpp"
#include "ckpt/page_store.hpp"
#include "util/rng.hpp"

namespace {

using namespace dckpt;

/// Seconds taken by one call of `work`.
template <typename Work>
double time_once(Work&& work) {
  const auto start = std::chrono::steady_clock::now();
  work();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

int run_hash_comparison(const std::string& json_path) {
  constexpr std::size_t kImageBytes = 1 << 20;  // 1 MiB
  // Each repetition hashes 1 MiB twice (~2-4 ms); the best of many filters
  // scheduler noise at little cost.
  constexpr int kReps = 200;
  ckpt::PageStore store(kImageBytes, ckpt::kDefaultPageSize);
  util::Xoshiro256ss rng(0x4a54);
  std::vector<std::byte> content(kImageBytes);
  for (auto& byte : content) byte = static_cast<std::byte>(rng());
  store.write(0, content);
  const ckpt::Snapshot image = store.snapshot(0);
  const std::vector<std::byte> flat = image.to_bytes();
  const auto bytes = static_cast<double>(kImageBytes);
  volatile std::uint64_t sink = 0;
  double commit_best = 0.0;
  double flat_best = 0.0;
  // Alternating the two within each repetition exposes both to the same
  // host noise.
  for (int rep = 0; rep < kReps; ++rep) {
    const ckpt::Snapshot fresh(image.pages(), image.size_bytes(),
                               image.version(), image.owner());
    const double commit_s = time_once([&] {
      const auto hashes = ckpt::block_hashes(fresh, ckpt::kDigestBlockSize);
      sink = sink ^ hashes.back() ^ fresh.content_hash();
    });
    const double flat_s =
        time_once([&] { sink = sink ^ ckpt::fnv1a(flat); });
    commit_best = std::max(commit_best, bytes / commit_s * 1e-9);
    flat_best = std::max(flat_best, bytes / flat_s * 1e-9);
  }

  // The delta commit: 8 pages spread over the image rewritten, diffed
  // against the image's hash array with and without the image itself as
  // the hash reference.
  constexpr int kRewritten = 8;
  const std::size_t pages = kImageBytes / ckpt::kDefaultPageSize;
  const std::vector<std::uint64_t> base_hashes =
      ckpt::block_hashes(image, ckpt::kDigestBlockSize);
  std::vector<std::byte> payload(ckpt::kDefaultPageSize);
  for (int k = 0; k < kRewritten; ++k) {
    for (auto& byte : payload) byte = static_cast<std::byte>(rng());
    const std::size_t page = (2 * k + 1) * pages / (2 * kRewritten);
    store.write(page * ckpt::kDefaultPageSize, payload);
  }
  const ckpt::Snapshot rewritten = store.snapshot(0);
  const auto diff_once = [&](ckpt::HashReference reference) {
    const ckpt::Snapshot fresh(rewritten.pages(), rewritten.size_bytes(),
                               rewritten.version(), rewritten.owner());
    return time_once([&] {
      const ckpt::BlockDiff diff = ckpt::diff_blocks(
          base_hashes, image.version(), image.content_hash(), fresh,
          ckpt::kDigestBlockSize, reference);
      sink = sink ^ diff.layer.result_hash() ^ diff.hashes.front();
    });
  };
  double reference_best = 0.0;
  double walk_best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    reference_best =
        std::max(reference_best, 1.0 / diff_once({&image, base_hashes}));
    walk_best = std::max(walk_best, 1.0 / diff_once({}));
  }

  auto v = util::JsonValue::object();
  v.set("record", "bench_hash");
  v.set("image_bytes", kImageBytes);
  v.set("block_size", ckpt::kDigestBlockSize);
  v.set("reps", kReps);
  v.set("commit_hash_gb_per_s", commit_best);
  v.set("flat_fnv1a_gb_per_s", flat_best);
  v.set("speedup", commit_best / flat_best);
  v.set("diff_pages_rewritten", kRewritten);
  v.set("diff_reference_per_sec", reference_best);
  v.set("diff_walk_per_sec", walk_best);
  v.set("diff_speedup", reference_best / walk_best);
  const std::string text = v.dump();
  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out, "%s\n", text.c_str());
  std::fclose(out);
  std::printf("%s\n", text.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dckpt;
  using namespace dckpt::bench;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--hash-json=", 12) == 0) {
      return run_hash_comparison(argv[i] + 12);
    }
  }
  const auto context = parse_bench_args(
      argc, argv, "Differential checkpoints: transfer bytes full vs dcp");
  if (!context) return 0;

  constexpr std::size_t kStateBytes = 1 << 20;  // 1 MiB
  constexpr std::size_t kPage = 4096;
  constexpr std::size_t kPages = kStateBytes / kPage;
  constexpr std::uint64_t kStack = 8;   // K: commits per full exchange
  constexpr int kCycles = 6;            // measured full-exchange cycles

  print_header(
      "Differential checkpoints -- exchange volume vs dirty fraction",
      "1 MiB state, 4 KiB blocks, K = 8 commits per full exchange. Each\n"
      "commit rewrites a d-fraction of pages with fresh content; deltas\n"
      "carry only blocks whose content hash changed. 'dcp/full' is measured\n"
      "bytes over K-commit cycles relative to shipping the full image every\n"
      "commit; 'model m' is the analytic multiplier at h = 0. At small d\n"
      "the per-delta volume approaches d (+ hash overhead h when h > 0).");

  auto csv = context->csv("ext_dcp",
                          {"dirty_fraction", "block", "full_mib_per_commit",
                           "dcp_mib_per_commit", "measured_ratio", "model_m"});
  auto jsonl = context->jsonl("ext_dcp",
                              {"dirty_fraction", "block",
                               "full_mib_per_commit", "dcp_mib_per_commit",
                               "measured_ratio", "model_m"});
  util::TextTable table({"d", "block", "full/commit", "dcp/commit",
                         "dcp/full", "model m"});

  for (const double d : {0.05, 0.2, 1.0}) {
    for (const std::size_t block : {kPage, 4 * kPage}) {
      ckpt::PageStore store(kStateBytes, kPage);
      util::Xoshiro256ss rng(0xdc9 + static_cast<std::uint64_t>(d * 100) +
                             block);
      std::vector<std::byte> payload(kPage);
      std::vector<std::size_t> pages(kPages);
      std::iota(pages.begin(), pages.end(), std::size_t{0});
      const auto dirty_pages =
          static_cast<std::size_t>(d * static_cast<double>(kPages) + 0.5);

      double dcp_bytes = 0.0;
      double full_bytes = 0.0;
      std::uint64_t commits = 0;
      ckpt::Snapshot base = store.snapshot(0);
      std::vector<std::uint64_t> base_hashes =
          ckpt::block_hashes(base, block);
      for (int cycle = 0; cycle < kCycles; ++cycle) {
        for (std::uint64_t commit = 0; commit < kStack; ++commit) {
          // Touch `dirty_pages` distinct pages with fresh content (partial
          // Fisher-Yates draw), so the content-dirty fraction is exactly d.
          for (std::size_t i = 0; i < dirty_pages; ++i) {
            const std::size_t j =
                i + static_cast<std::size_t>(rng.next_below(pages.size() - i));
            std::swap(pages[i], pages[j]);
            for (auto& byte : payload) {
              byte = static_cast<std::byte>(rng());
            }
            store.write(pages[i] * kPage, payload);
          }
          const ckpt::Snapshot current = store.snapshot(0);
          full_bytes += static_cast<double>(current.size_bytes());
          if (commit == 0) {  // the cycle's full exchange
            dcp_bytes += static_cast<double>(current.size_bytes());
          } else {
            const auto delta = ckpt::make_block_delta(
                base_hashes, base.version(), base.content_hash(), current,
                block);
            dcp_bytes += static_cast<double>(delta.delta_bytes());
          }
          base = current;
          base_hashes = ckpt::block_hashes(base, block);
          ++commits;
        }
      }

      const double per_commit = static_cast<double>(commits);
      const double measured = dcp_bytes / full_bytes;
      model::DcpSpec spec;
      spec.dirty_fraction = d;
      spec.block_size = block;
      spec.page_size = kPage;
      spec.stack_size = kStack;
      const double m = model::checkpoint_volume_multiplier(spec);
      table.add_row({util::format_fixed(d, 2),
                     util::format_bytes(static_cast<double>(block)),
                     util::format_bytes(full_bytes / per_commit),
                     util::format_bytes(dcp_bytes / per_commit),
                     util::format_fixed(measured, 4),
                     util::format_fixed(m, 4)});
      const double full_mib = full_bytes / per_commit / (1 << 20);
      const double dcp_mib = dcp_bytes / per_commit / (1 << 20);
      if (csv) {
        csv->write_row_numeric({d, static_cast<double>(block), full_mib,
                                dcp_mib, measured, m});
      }
      if (jsonl) {
        jsonl->row({d, static_cast<double>(block), full_mib, dcp_mib,
                    measured, m});
      }
    }
  }
  std::printf("%s", table.render().c_str());
  if (csv) std::printf("[csv] wrote %s\n", csv->path().c_str());
  if (jsonl) std::printf("[jsonl] wrote %s\n", jsonl->path().c_str());
  return 0;
}
