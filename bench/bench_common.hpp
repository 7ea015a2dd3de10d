// Shared plumbing for the figure/table reproduction binaries: CLI with
// optional --csv/--jsonl <dir> flags, grid definitions matching the paper's
// axes, and small print helpers. Each bench prints the figure's data series
// as aligned text and, when --csv / --jsonl is given, writes the
// full-resolution grid for external plotting or machine consumption.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "model/model_api.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/format.hpp"
#include "util/json.hpp"
#include "util/math.hpp"
#include "util/table.hpp"

namespace dckpt::bench {

/// One JSONL artifact next to a bench's printed table: one JSON object per
/// `row` call, keys zipped against the header passed at construction.
class JsonlWriter {
 public:
  JsonlWriter(const std::string& path, std::vector<std::string> keys)
      : path_(path), keys_(std::move(keys)), out_(path) {
    if (!out_) {
      throw std::runtime_error("JsonlWriter: cannot open '" + path + "'");
    }
  }

  void row(const std::vector<util::JsonValue>& values) {
    if (values.size() != keys_.size()) {
      throw std::invalid_argument("JsonlWriter: arity mismatch");
    }
    auto record = util::JsonValue::object();
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      record.set(keys_[i], values[i]);
    }
    out_ << record.dump() << '\n';
  }

  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  std::vector<std::string> keys_;
  std::ofstream out_;
};

struct BenchContext {
  std::optional<std::string> csv_dir;
  std::optional<std::string> jsonl_dir;
  /// --trials override for the Monte-Carlo benches (0 = bench default);
  /// CI's bench-smoke step uses this to keep artifact runs fast.
  std::uint64_t trials_override = 0;

  /// The bench's Monte-Carlo trial count: the override, if given.
  std::uint64_t trials_or(std::uint64_t bench_default) const noexcept {
    return trials_override > 0 ? trials_override : bench_default;
  }

  /// Opens `<csv_dir>/<name>.csv` when --csv was passed, else nullptr.
  std::unique_ptr<util::CsvWriter> csv(
      const std::string& name, const std::vector<std::string>& header) const {
    if (!csv_dir) return nullptr;
    return std::make_unique<util::CsvWriter>(*csv_dir + "/" + name + ".csv",
                                             header);
  }

  /// Opens `<jsonl_dir>/<name>.jsonl` when --jsonl was passed, else nullptr.
  std::unique_ptr<JsonlWriter> jsonl(
      const std::string& name, const std::vector<std::string>& keys) const {
    if (!jsonl_dir) return nullptr;
    return std::make_unique<JsonlWriter>(*jsonl_dir + "/" + name + ".jsonl",
                                         keys);
  }
};

/// Parses the standard bench options; returns nullopt on --help/error.
inline std::optional<BenchContext> parse_bench_args(int argc,
                                                    const char* const* argv,
                                                    const char* description) {
  util::CliParser parser(argv[0] ? argv[0] : "bench", description);
  parser.add_option("csv", "", "directory to write full-resolution CSV grids");
  parser.add_option("jsonl", "",
                    "directory to write full-resolution JSONL grids");
  parser.add_option("trials", "0",
                    "Monte-Carlo trials override (0 = bench default)");
  if (!parser.parse(argc, argv)) return std::nullopt;
  BenchContext context;
  const std::string dir = parser.get("csv");
  if (!dir.empty()) context.csv_dir = dir;
  const std::string jsonl_dir = parser.get("jsonl");
  if (!jsonl_dir.empty()) context.jsonl_dir = jsonl_dir;
  context.trials_override = parser.get_count("trials");
  return context;
}

/// MTBF axis of Figures 4 and 7: 1 min .. 1 day, log-ish ticks as labeled
/// in the paper.
inline std::vector<double> figure_mtbf_axis() {
  return {60.0, 600.0, 3600.0, 4.0 * 3600.0, 86400.0};
}

/// phi/R axis of Figures 4-5, 7-8.
inline std::vector<double> phi_ratio_axis(int points = 11) {
  std::vector<double> axis;
  axis.reserve(points);
  for (int i = 0; i < points; ++i) {
    axis.push_back(static_cast<double>(i) / (points - 1));
  }
  return axis;
}

inline void print_header(const std::string& title, const std::string& note) {
  std::printf("=== %s ===\n", title.c_str());
  if (!note.empty()) std::printf("%s\n", note.c_str());
  std::printf("\n");
}

/// Figures 4 and 7: waste at the model-optimal period, one table per
/// protocol, rows = phi/R, columns = MTBF ticks. When ctx has --csv, also
/// writes a dense grid (25 log-spaced M in [15 s, 1 day] x 21 ratios).
inline void run_waste_surface(const model::Scenario& scenario,
                              const BenchContext& context,
                              const std::string& figure_name) {
  print_header(figure_name + " -- waste vs (phi/R, M), scenario " +
                   scenario.name,
               "Each cell: total waste at the protocol's optimal period "
               "(1.00 means no progress possible).");
  const auto mtbf_axis = figure_mtbf_axis();
  for (auto protocol : model::kPaperProtocols) {
    std::vector<std::string> header{"phi/R"};
    for (double mtbf : mtbf_axis) {
      header.push_back("M=" + util::format_duration(mtbf));
    }
    util::TextTable table(header);
    for (double ratio : phi_ratio_axis()) {
      std::vector<std::string> row{util::format_fixed(ratio, 2)};
      for (double mtbf : mtbf_axis) {
        const auto params = scenario.at_phi_ratio(ratio).with_mtbf(mtbf);
        row.push_back(util::format_fixed(
            model::waste_at_optimal_period(protocol, params), 3));
      }
      table.add_row(std::move(row));
    }
    std::printf("--- %s ---\n%s\n",
                std::string(model::protocol_name(protocol)).c_str(),
                table.render().c_str());
  }
  auto csv = context.csv(figure_name,
                         {"protocol", "phi_over_R", "mtbf_s", "waste"});
  auto jsonl = context.jsonl(figure_name,
                             {"protocol", "phi_over_R", "mtbf_s", "waste"});
  if (csv || jsonl) {
    const auto dense_m = util::log_space(15.0, 86400.0, 25);
    for (auto protocol : model::kPaperProtocols) {
      for (double ratio : phi_ratio_axis(21)) {
        for (double mtbf : dense_m) {
          const auto params = scenario.at_phi_ratio(ratio).with_mtbf(mtbf);
          const double waste =
              model::waste_at_optimal_period(protocol, params);
          if (csv) {
            csv->write_row({std::string(model::protocol_name(protocol)),
                            util::format_fixed(ratio, 4),
                            util::format_fixed(mtbf, 2),
                            util::format_fixed(waste, 6)});
          }
          if (jsonl) {
            jsonl->row({model::protocol_name(protocol), ratio, mtbf, waste});
          }
        }
      }
    }
    if (csv) std::printf("[csv] wrote %s\n", csv->path().c_str());
    if (jsonl) std::printf("[jsonl] wrote %s\n", jsonl->path().c_str());
  }
}

/// Figures 5 and 8: waste ratio vs DoubleNBL at fixed M = 7 h.
inline void run_waste_ratio(const model::Scenario& scenario,
                            const BenchContext& context,
                            const std::string& figure_name) {
  print_header(
      figure_name + " -- waste ratio vs DoubleNBL, scenario " + scenario.name,
      "M = 7 h. Values < 1 mean the protocol beats DoubleNBL "
      "(paper: Triple wins for phi/R <~ 0.5, worst case ~ +15%).");
  util::TextTable table(
      {"phi/R", "DoubleBoF/DoubleNBL", "Triple/DoubleNBL"});
  auto csv = context.csv(figure_name,
                         {"phi_over_R", "bof_over_nbl", "triple_over_nbl"});
  auto jsonl = context.jsonl(
      figure_name, {"phi_over_R", "bof_over_nbl", "triple_over_nbl"});
  for (double ratio : phi_ratio_axis(21)) {
    const auto params =
        scenario.at_phi_ratio(ratio).with_mtbf(scenario.default_mtbf);
    const double bof = model::waste_ratio(model::Protocol::DoubleBof,
                                          model::Protocol::DoubleNbl, params);
    const double tri = model::waste_ratio(model::Protocol::Triple,
                                          model::Protocol::DoubleNbl, params);
    table.add_row({util::format_fixed(ratio, 2), util::format_fixed(bof, 4),
                   util::format_fixed(tri, 4)});
    if (csv) csv->write_row_numeric({ratio, bof, tri});
    if (jsonl) jsonl->row({ratio, bof, tri});
  }
  std::printf("%s", table.render().c_str());
  if (csv) std::printf("[csv] wrote %s\n", csv->path().c_str());
  if (jsonl) std::printf("[jsonl] wrote %s\n", jsonl->path().c_str());
}

/// Figures 6 and 9: relative success probabilities over (M, platform life).
/// theta = (alpha + 1) R (full overlap -- the largest risk window, as the
/// paper stresses). Prints P(NBL)/P(BOF) and P(NBL)/P(Triple) surfaces;
/// lower = the second protocol is safer.
inline void run_risk_surface(const model::Scenario& scenario,
                             const BenchContext& context,
                             const std::string& figure_name,
                             const std::vector<double>& mtbf_axis,
                             const std::vector<double>& life_axis,
                             const std::string& life_unit,
                             double life_unit_seconds) {
  print_header(
      figure_name + " -- relative success probability, scenario " +
          scenario.name,
      "theta = (alpha+1) R. Ratios < 1: the denominator protocol is safer.");
  const auto params_at = [&](double mtbf) {
    // phi = 0 -> theta = (alpha + 1) R.
    return scenario.at_phi_ratio(0.0).with_mtbf(mtbf);
  };
  for (const auto& [title, num, den] :
       {std::tuple{std::string("P(DoubleNBL)/P(DoubleBoF)"),
                   model::Protocol::DoubleNbl, model::Protocol::DoubleBof},
        std::tuple{std::string("P(DoubleNBL)/P(Triple)"),
                   model::Protocol::DoubleNbl, model::Protocol::Triple}}) {
    std::vector<std::string> header{"M \\ life(" + life_unit + ")"};
    for (double life : life_axis) {
      header.push_back(util::format_fixed(life, 0));
    }
    util::TextTable table(header);
    for (double mtbf : mtbf_axis) {
      std::vector<std::string> row{util::format_duration(mtbf)};
      for (double life : life_axis) {
        const auto params = params_at(mtbf);
        const double p_num = model::success_probability(
            num, params, life * life_unit_seconds);
        const double p_den = model::success_probability(
            den, params, life * life_unit_seconds);
        row.push_back(p_den > 0.0
                          ? util::format_fixed(p_num / p_den, 4)
                          : "inf");
      }
      table.add_row(std::move(row));
    }
    std::printf("--- %s ---\n%s\n", title.c_str(), table.render().c_str());
  }
  auto csv = context.csv(figure_name,
                         {"mtbf_s", "life_s", "p_nbl", "p_bof", "p_triple",
                          "p_tripleBof"});
  auto jsonl = context.jsonl(figure_name,
                             {"mtbf_s", "life_s", "p_nbl", "p_bof",
                              "p_triple", "p_tripleBof"});
  if (csv || jsonl) {
    for (double mtbf : mtbf_axis) {
      for (double life : life_axis) {
        const auto params = params_at(mtbf);
        const double t = life * life_unit_seconds;
        const double p_nbl = model::success_probability(
            model::Protocol::DoubleNbl, params, t);
        const double p_bof = model::success_probability(
            model::Protocol::DoubleBof, params, t);
        const double p_triple =
            model::success_probability(model::Protocol::Triple, params, t);
        const double p_triple_bof =
            model::success_probability(model::Protocol::TripleBof, params, t);
        if (csv) {
          csv->write_row_numeric(
              {mtbf, t, p_nbl, p_bof, p_triple, p_triple_bof});
        }
        if (jsonl) {
          jsonl->row({mtbf, t, p_nbl, p_bof, p_triple, p_triple_bof});
        }
      }
    }
    if (csv) std::printf("[csv] wrote %s\n", csv->path().c_str());
    if (jsonl) std::printf("[jsonl] wrote %s\n", jsonl->path().c_str());
  }
}

}  // namespace dckpt::bench
