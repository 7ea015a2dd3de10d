// Golden-file guards for the exported JSONL schemas (chaos runs and sweep
// points). Two layers:
//
//   *.fields  -- the sorted key set of each record (and its nested objects).
//                Removing or renaming a key fails here: the schemas are
//                append-only, so consumers written against an older schema
//                must keep working. Adding a key also fails until the golden
//                is regenerated -- that is the explicit review point.
//   *.jsonl   -- the byte-exact record for one fixed-seed configuration.
//                Any drift in values (aggregates, hashes, float formatting)
//                fails here; both sim engines must reproduce it bit-for-bit
//                (CI runs this suite under DCKPT_ENGINE=scalar too).
//
// Regenerate after an intentional schema change with
//   DCKPT_UPDATE_GOLDEN=1 ./test_golden_schemas
// and review the golden diff like any other source change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/chaos_api.hpp"
#include "model/model_api.hpp"
#include "sim/export.hpp"
#include "sim/service.hpp"
#include "sim/sweep.hpp"
#include "util/json.hpp"

namespace {

using namespace dckpt;

std::string golden_path(const std::string& name) {
  return std::string(DCKPT_GOLDEN_DIR) + "/" + name;
}

bool update_mode() {
  const char* env = std::getenv("DCKPT_UPDATE_GOLDEN");
  return env && *env && std::string(env) != "0";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  ASSERT_TRUE(out) << "cannot write golden " << path;
  out << content;
}

/// Compares `actual` against the named golden file (or rewrites it in
/// update mode). The assertion message carries the regeneration recipe.
void expect_matches_golden(const std::string& name,
                           const std::string& actual) {
  const std::string path = golden_path(name);
  if (update_mode()) {
    write_file(path, actual);
    return;
  }
  const std::string expected = read_file(path);
  ASSERT_FALSE(expected.empty())
      << "missing golden " << path
      << "; regenerate with DCKPT_UPDATE_GOLDEN=1";
  EXPECT_EQ(expected, actual)
      << name << " drifted from its golden copy. If the change is an "
      << "intentional append-only schema extension, regenerate with "
      << "DCKPT_UPDATE_GOLDEN=1 and review the diff; anything else is a "
      << "breaking schema change.";
}

std::string sorted_keys(const util::JsonValue& object) {
  std::string out;
  for (const auto& [key, value] : object.members()) {
    out += key;
    out += '\n';
  }
  return out;
}

// ------------------------------------------------------------- fixtures

/// Fixed-seed chaos run with the full silent-error machinery engaged
/// (strike, verification, rollback ladder), so every appended counter is
/// present and nonzero where the scenario makes it so.
chaos::ChaosRunResult golden_chaos_run() {
  chaos::ChaosCampaignConfig config;
  config.runtime.nodes = 8;
  config.runtime.cells_per_node = 48;
  config.runtime.checkpoint_interval = 12;
  config.runtime.total_steps = 96;
  config.runtime.staging_steps = 4;
  config.runtime.rereplication_delay_steps = 8;
  config.runtime.verify_every = 4;
  config.runtime.keep_last = 3;
  auto schedule = chaos::ChaosSchedule::parse("13:sdc:0,70:5");
  return chaos::run_one(config, std::move(schedule),
                        chaos::reference_run(config).final_hash);
}

/// Fixed-seed one-point sweep with the SDC axis enabled.
sim::SweepPoint golden_sweep_point() {
  sim::SweepSpec spec;
  spec.protocols = {model::Protocol::DoubleNbl};
  spec.mtbfs = {2000.0};
  spec.phi_ratios = {0.25};
  spec.config.params = model::base_scenario().params;
  spec.t_base_in_mtbfs = 5.0;
  spec.trials = 8;
  spec.seed = 0x90a;
  spec.threads = 1;
  spec.config.sdc.rate = 2e-4;
  spec.config.sdc.verify_cost = 10.0;
  spec.config.sdc.verify_every = 2;
  spec.config.keep_last = 3;
  auto rows = sim::run_sweep(spec);
  EXPECT_EQ(rows.size(), 1u);
  return rows.empty() ? sim::SweepPoint{} : rows.front();
}

/// Fixed-seed chaos run with differential checkpointing engaged (delta
/// cadence, a torn layer, chain replay with failover), so every PR 9
/// counter is nonzero in the byte-stable record.
chaos::ChaosRunResult golden_dcp_chaos_run() {
  chaos::ChaosCampaignConfig config;
  config.runtime.topology = ckpt::Topology::Triples;
  config.runtime.nodes = 9;
  config.runtime.cells_per_node = 48;
  config.runtime.checkpoint_interval = 12;
  config.runtime.total_steps = 96;
  config.runtime.rereplication_delay_steps = 8;
  config.runtime.dcp_stack_size = 3;
  auto schedule = chaos::ChaosSchedule::parse("25:torndelta:0:1,25:0");
  return chaos::run_one(config, std::move(schedule),
                        chaos::reference_run(config).final_hash);
}

/// Fixed-seed one-point sweep with the dcp axis enabled.
sim::SweepPoint golden_dcp_sweep_point() {
  sim::SweepSpec spec;
  spec.protocols = {model::Protocol::DoubleNbl};
  spec.mtbfs = {2000.0};
  spec.phi_ratios = {0.25};
  spec.config.params = model::base_scenario().params;
  spec.t_base_in_mtbfs = 5.0;
  spec.trials = 8;
  spec.seed = 0x9dc;
  spec.threads = 1;
  spec.config.dcp.stack_size = 6;
  spec.config.dcp.dirty_fraction = 0.1;
  spec.config.dcp.hash_overhead = 0.02;
  auto rows = sim::run_sweep(spec);
  EXPECT_EQ(rows.size(), 1u);
  return rows.empty() ? sim::SweepPoint{} : rows.front();
}

// ---------------------------------------------------------- field guards

TEST(GoldenSchema, ChaosRunFieldSets) {
  const auto run = golden_chaos_run();
  const auto v = chaos::to_json(run);
  expect_matches_golden("chaos_run.fields", sorted_keys(v));
  expect_matches_golden("chaos_run.report.fields",
                        sorted_keys(v.at("report")));
  expect_matches_golden("chaos_run.predicted.fields",
                        sorted_keys(v.at("predicted")));
}

TEST(GoldenSchema, ChaosCampaignFieldSet) {
  chaos::ChaosCampaignConfig config;
  config.runtime.nodes = 4;
  config.runtime.cells_per_node = 16;
  config.runtime.checkpoint_interval = 6;
  config.runtime.total_steps = 24;
  config.random_runs = 2;
  config.campaign_seed = 7;
  config.threads = 1;
  const auto summary = chaos::run_campaign(config);
  expect_matches_golden("chaos_campaign.fields",
                        sorted_keys(chaos::to_json(summary)));
}

TEST(GoldenSchema, SweepPointFieldSets) {
  const auto point = golden_sweep_point();
  const auto v = sim::to_json(point);
  expect_matches_golden("sweep_point.fields", sorted_keys(v));
  expect_matches_golden("sweep_point.sim.fields", sorted_keys(v.at("sim")));
}

TEST(GoldenSchema, ServeStatsFieldSets) {
  // The serve_stats record is the service's operational contract: scrapers
  // tail it from --stats-out, so the key set (including every nested
  // object) is append-only. The fixture answers one EVAL first so the
  // latency block carries its full percentile key set, and registers
  // transport counters so the server block is the real one, not a stub.
  sim::EvalService service;
  sim::ServerCounters counters;
  service.set_transport_counters(&counters);
  (void)service.handle_line("EVAL kind=period protocol=Triple mtbf=3600");
  const auto v = util::parse_json(service.handle_line("STATS"));
  expect_matches_golden("serve_stats.fields", sorted_keys(v));
  expect_matches_golden("serve_stats.cache.fields",
                        sorted_keys(v.at("cache")));
  expect_matches_golden("serve_stats.kernel.fields",
                        sorted_keys(v.at("kernel")));
  expect_matches_golden("serve_stats.latency.fields",
                        sorted_keys(v.at("latency")));
  expect_matches_golden("serve_stats.server.fields",
                        sorted_keys(v.at("server")));
  service.set_transport_counters(nullptr);
}

TEST(GoldenSchema, EvalErrorFieldSet) {
  // Typed errors are part of the wire contract too: record, code, error.
  sim::EvalService service;
  const auto v = util::parse_json(service.handle_line("EVAL kind=banana"));
  EXPECT_EQ(v.at("record").as_string(), "eval_error");
  expect_matches_golden("eval_error.fields", sorted_keys(v));
}

// ---------------------------------------------------------- value guards

TEST(GoldenSchema, ChaosRunRecordIsByteStable) {
  const auto run = golden_chaos_run();
  ASSERT_NE(run.outcome, chaos::ChaosOutcome::Violated) << run.detail;
  expect_matches_golden("chaos_run.jsonl", chaos::to_json(run).dump() + "\n");
}

TEST(GoldenSchema, SweepPointRecordIsByteStable) {
  const auto point = golden_sweep_point();
  std::ostringstream out;
  sim::write_sweep_jsonl(out, {point});
  expect_matches_golden("sweep_point.jsonl", out.str());
}

TEST(GoldenSchema, DcpChaosRunRecordIsByteStable) {
  const auto run = golden_dcp_chaos_run();
  ASSERT_NE(run.outcome, chaos::ChaosOutcome::Violated) << run.detail;
  // The fixture must actually exercise the dcp counters it guards.
  ASSERT_GT(run.report.delta_commits, 0u);
  ASSERT_GT(run.report.chain_replays, 0u);
  ASSERT_GT(run.report.torn_chain_failovers, 0u);
  expect_matches_golden("chaos_run.dcp.jsonl",
                        chaos::to_json(run).dump() + "\n");
}

TEST(GoldenSchema, DcpSweepPointRecordIsByteStable) {
  const auto point = golden_dcp_sweep_point();
  EXPECT_NE(point.model_waste_dcp, point.model_waste);
  std::ostringstream out;
  sim::write_sweep_jsonl(out, {point});
  expect_matches_golden("sweep_point.dcp.jsonl", out.str());
}

}  // namespace
