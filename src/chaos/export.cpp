#include "chaos/export.hpp"

#include <charconv>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "sim/export.hpp"

namespace dckpt::chaos {

namespace {

std::string hex64(std::uint64_t value) {
  char digits[16];
  std::string text = "0x";
  const auto [ptr, ec] = std::to_chars(digits, digits + 16, value, 16);
  (void)ec;
  text.append(16 - static_cast<std::size_t>(ptr - digits), '0');
  text.append(digits, ptr);
  return text;
}

/// Every oracle counter under its stable name (JsonValue objects dump in
/// key order, so the table's order does not show in the output).
util::JsonValue counters_json(const runtime::RunReport& report) {
  auto v = util::JsonValue::object();
  for (const OracleCounter& counter : kOracleCounters) {
    v.set(counter.name, report.*counter.field);
  }
  return v;
}

/// The `predicted` sub-record: the counters plus the oracle's fatal verdict
/// (fatal_node keeps its older export key).
util::JsonValue predicted_json(const runtime::RunReport& predicted) {
  auto v = counters_json(predicted);
  v.set("fatal", predicted.fatal);
  if (predicted.fatal) {
    v.set("fatal_step", predicted.fatal_step);
    v.set("unrecoverable_node", predicted.fatal_node);
  }
  return v;
}

/// The `report` sub-record: the counters plus what only the runtime
/// measures. Fatal runs complete degraded, so they carry a final hash too.
util::JsonValue report_json(const runtime::RunReport& report) {
  auto v = counters_json(report);
  v.set("bytes_replicated", report.bytes_replicated);
  v.set("cow_copies", report.cow_copies);
  v.set("fatal", report.fatal);
  v.set("degraded", report.degraded);
  v.set("final_hash", hex64(report.final_hash));
  if (report.fatal) {
    v.set("fatal_reason", report.fatal_reason);
    v.set("fatal_node", report.fatal_node);
    v.set("fatal_step", report.fatal_step);
  }
  return v;
}

}  // namespace

util::JsonValue to_json(const ChaosRunResult& run) {
  auto v = util::JsonValue::object();
  v.set("record", "chaos_run");
  v.set("index", run.index);
  v.set("name", run.schedule.name);
  v.set("seed", run.schedule.seed);
  v.set("schedule", run.schedule.spec());
  v.set("outcome", outcome_name(run.outcome));
  if (!run.detail.empty()) v.set("detail", run.detail);
  v.set("repro", run.repro);
  v.set("predicted", predicted_json(run.predicted));
  v.set("report", report_json(run.report));
  v.set("target", run.target);  // appended: keep older consumers working
  return v;
}

util::JsonValue to_json(const ChaosCampaignSummary& summary) {
  auto v = util::JsonValue::object();
  v.set("record", "chaos_campaign");
  v.set("runs", static_cast<std::uint64_t>(summary.runs.size()));
  v.set("survived", summary.survived);
  v.set("fatal_detected", summary.fatal_detected);
  v.set("violated", summary.violated);
  v.set("reference_hash", hex64(summary.reference_hash));
  v.set("target", summary.target);  // appended: keep older consumers working
  if (!summary.grid_geometry.empty()) {
    v.set("grid", summary.grid_geometry);
    v.set("block", summary.block_geometry);
  }
  return v;
}

void write_campaign_jsonl(std::ostream& out,
                          const ChaosCampaignSummary& summary) {
  sim::write_jsonl(out, to_json(summary));
  for (const ChaosRunResult& run : summary.runs) {
    sim::write_jsonl(out, to_json(run));
  }
}

void save_campaign_jsonl(const std::string& path,
                         const ChaosCampaignSummary& summary) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("chaos export: cannot open '" + path +
                             "' for writing");
  }
  write_campaign_jsonl(out, summary);
}

}  // namespace dckpt::chaos
