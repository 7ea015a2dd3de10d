// dckpt -- unified command-line frontend for the double/triple
// checkpointing toolkit.
//
//   dckpt plan       protocol recommendation from machine specs
//   dckpt simulate   Monte-Carlo campaign for one configuration
//   dckpt sweep      Monte-Carlo campaigns over a (protocol, M, phi) grid
//   dckpt optimize   empirical period optimization (simulation-driven)
//   dckpt trace-gen  synthesize a failure trace file
//   dckpt trace-fit  analyze a failure trace, fit exponential/Weibull
//   dckpt hierarchy  two-level (buddy + stable storage) planning
//   dckpt spares     spare-pool sizing and its effect on downtime/waste
//   dckpt chaos      adversarial failure campaigns against the runtime
//   dckpt serve      long-running evaluation service (stdin or TCP)
//
// Every subcommand accepts --help.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "chaos/chaos_api.hpp"
#include "model/model_api.hpp"
#include "net/net_api.hpp"
#include "sim/sim_api.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

namespace {

using namespace dckpt;

void add_platform_options(util::CliParser& cli) {
  cli.add_option("scenario", "base", "base | exa hardware constants");
  cli.add_option("mtbf", "25200", "platform MTBF, seconds");
  cli.add_option("phi-ratio", "0.25", "overhead fraction phi/R in [0,1]");
  cli.add_option("nodes", "0", "override node count (0 = scenario default)");
}

model::Parameters platform_from(const util::CliParser& cli) {
  const auto scenario = cli.get_parsed("scenario", model::scenario_by_name);
  auto params = scenario.at_phi_ratio(cli.get_double("phi-ratio"))
                    .with_mtbf(cli.get_double("mtbf"));
  if (const auto nodes = cli.get_count("nodes"); nodes > 0) {
    params.nodes = nodes;
  }
  params.validate();
  return params;
}

/// The failure-model flags of simulate, sweep and optimize: the Weibull
/// shape plus the silent-error, predictor and dcp axes.
void add_failure_model_options(util::CliParser& cli) {
  cli.add_option("weibull-shape", "0",
                 "use per-node Weibull streams with this shape (0 = exp)");
  cli.add_option("sdc-rate", "0",
                 "platform silent-error rate, strikes/s (0 = off)");
  cli.add_option("verify-cost", "0", "blocking verification time V, seconds");
  cli.add_option("verify-every", "0",
                 "periods between verifications k (0 = verification off)");
  cli.add_option("keep-last", "1", "retained committed checkpoint sets l");
  cli.add_option("pred-recall", "0",
                 "fault-predictor recall r in [0,1] (0 = predictor off)");
  cli.add_option("pred-precision", "1",
                 "fault-predictor precision p in (0,1]");
  cli.add_option("pred-window", "0",
                 "prediction-window width w, seconds (0 = just-in-time)");
  cli.add_option("proactive-cost", "0",
                 "proactive checkpoint cost C_p, seconds");
  cli.add_option("dirty-fraction", "1",
                 "per-page dirty fraction per period d in [0,1]");
  cli.add_option("dcp-block", "4096", "differential block size B, bytes");
  cli.add_option("dcp-stack", "0",
                 "commits per full exchange K (0 = every commit full)");
  cli.add_option("hash-overhead", "0",
                 "content-hash scan cost h, fraction of a full image");
}

/// Reads the flags add_failure_model_options declared: the silent-error,
/// predictor and dcp axes into `config`. Returns the Weibull shape (0 =
/// exponential), which becomes an injector once the node MTBF is known.
double read_failure_model(const util::CliParser& cli, sim::SimConfig& config) {
  config.sdc.rate = cli.get_double("sdc-rate");
  config.sdc.verify_cost = cli.get_double("verify-cost");
  config.sdc.verify_every = cli.get_count("verify-every");
  config.keep_last = cli.get_count("keep-last");
  config.predictor.recall = cli.get_double("pred-recall");
  config.predictor.precision = cli.get_double("pred-precision");
  config.predictor.window = cli.get_double("pred-window");
  config.predictor.proactive_cost = cli.get_double("proactive-cost");
  config.dcp.dirty_fraction = cli.get_double("dirty-fraction");
  config.dcp.block_size = cli.get_count("dcp-block");
  config.dcp.stack_size = cli.get_count("dcp-stack");
  config.dcp.hash_overhead = cli.get_double("hash-overhead");
  return cli.get_double("weibull-shape");
}

/// How the simulate and optimize tables name a failure-model axis.
std::string axis_label(sim::ModelAxis axis, double weibull_shape) {
  switch (axis) {
    case sim::ModelAxis::kWeibull:
      return "weibull k=" + util::format_fixed(weibull_shape, 2);
    case sim::ModelAxis::kSdc:
      return "verified ckpt";
    case sim::ModelAxis::kPredictor:
      return "predictor";
    case sim::ModelAxis::kDcp:
      break;
  }
  return "dcp";
}

// ---------------------------------------------------------------- plan

int cmd_plan(int argc, const char* const* argv) {
  util::CliParser cli("dckpt plan", "rank protocols for a platform");
  add_platform_options(cli);
  cli.add_option("mission-hours", "24", "mission length for risk/restarts");
  if (!cli.parse(argc, argv)) return 0;
  const auto params = platform_from(cli);
  const double mission = cli.get_double("mission-hours") * 3600.0;

  std::printf("Platform: %s\n\n", params.describe().c_str());
  util::TextTable table({"Protocol", "P*", "Waste", "Risk window",
                         "P(success)", "Eff. waste (restarts)"});
  for (auto protocol : model::kAllProtocols) {
    const auto opt = model::optimal_period_closed_form(protocol, params);
    const auto restart =
        model::evaluate_with_restarts(protocol, params, mission);
    table.add_row({std::string(model::protocol_name(protocol)),
                   util::format_duration(opt.period),
                   opt.feasible ? util::format_percent(opt.waste, 2)
                                : "stalled",
                   util::format_duration(model::risk_window(protocol, params)),
                   util::format_fixed(
                       model::success_probability(protocol, params, mission),
                       6),
                   restart.feasible
                       ? util::format_percent(restart.effective_waste, 2)
                       : "stalled"});
  }
  std::printf("%s\n", table.render().c_str());
  const std::vector<model::Protocol> all(model::kAllProtocols.begin(),
                                         model::kAllProtocols.end());
  std::printf("recommended (effective waste): %s\n",
              std::string(model::protocol_name(
                  model::best_protocol_by_effective_waste(all, params,
                                                          mission)))
                  .c_str());
  return 0;
}

// ------------------------------------------------------------ simulate

int cmd_simulate(int argc, const char* const* argv) {
  util::CliParser cli("dckpt simulate", "Monte-Carlo campaign");
  add_platform_options(cli);
  cli.add_option("protocol", "triple", "protocol to simulate");
  cli.add_option("tbase", "100000", "application work, seconds");
  cli.add_option("trials", "500", "Monte-Carlo trials");
  cli.add_option("seed", "42", "master seed");
  cli.add_option("period", "0", "checkpoint period (0 = model optimum)");
  cli.add_option("engine", "batched",
                 "batched | scalar trial engine (bit-identical results)");
  add_failure_model_options(cli);
  cli.add_option("metrics-out", "",
                 "write a JSONL metrics record (with per-trial histograms)");
  cli.add_option("trace-out", "",
                 "write the JSONL event log of one traced execution");
  cli.add_option("metrics-bins", "64", "histogram bins for --metrics-out");
  if (!cli.parse(argc, argv)) return 0;

  sim::SimConfig config;
  config.protocol = cli.get_parsed("protocol", model::parse_protocol_name);
  config.params = platform_from(cli);
  if (config.params.nodes > 100000) {
    // Keep per-node bookkeeping tractable for the default CLI path.
    config.params.nodes = 99996;  // divisible by 2 and 3
    std::printf("note: node count capped at %llu for simulation\n",
                static_cast<unsigned long long>(config.params.nodes));
  }
  config.t_base = cli.get_double("tbase");
  config.stop_on_fatal = false;
  const double shape = read_failure_model(cli, config);
  const double period = cli.get_double("period");
  config.period =
      period > 0.0
          ? period
          : model::optimal_period_closed_form(config.protocol, config.params)
                .period;

  sim::MonteCarloOptions options;
  options.trials = cli.get_count("trials");
  options.seed = cli.get_count("seed");
  options.engine = cli.get_parsed(
      "engine", util::NamedValues<sim::SimEngine>{
                    {"batched", sim::SimEngine::kBatched},
                    {"scalar", sim::SimEngine::kScalar}});
  if (shape > 0.0) {
    options.weibull =
        util::Weibull::from_mean(shape, config.params.node_mtbf());
  }
  // Read even when unused, so a malformed value always exits 2.
  const std::size_t bins =
      cli.get_count("metrics-bins", util::kMaxMetricsBins);
  if (!cli.get("metrics-out").empty()) {
    sim::MetricsSpec spec;
    spec.bins = bins;
    options.metrics = spec;
  }
  const auto mc = sim::run_monte_carlo(config, options);
  if (!cli.get("metrics-out").empty()) {
    sim::save_metrics_jsonl(cli.get("metrics-out"), mc);
    std::printf("[jsonl] wrote %s\n", cli.get("metrics-out").c_str());
  }
  if (!cli.get("trace-out").empty()) {
    // One extra execution with the event log enabled; uses trial 0's
    // stream so (under the default exponential law) the trace matches the
    // first Monte-Carlo trial.
    sim::Trace trace(true);
    sim::simulate_exponential(config, options.seed ^ 0x9e3779b97f4a7c15ULL,
                              &trace);
    sim::save_trace_jsonl(cli.get("trace-out"), trace);
    std::printf("[jsonl] wrote %s (%zu events)\n",
                cli.get("trace-out").c_str(), trace.events().size());
  }

  const double model_waste =
      model::waste(config.protocol, config.params, config.period);
  util::TextTable table({"metric", "value"});
  table.add_row({"period", util::format_duration(config.period)});
  table.add_row({"model waste", util::format_percent(model_waste, 2)});
  for (const auto axis : sim::model_axes(config, shape)) {
    // Each axis alone, at the simulated period (Weibull clustering at the
    // expected-makespan horizon), so its row compares with the sim waste.
    const double axis_waste =
        model::waste(config.protocol, config.params, config.period,
                     sim::axis_extensions(axis, config, shape));
    table.add_row({"model waste (" + axis_label(axis, shape) + ")",
                   util::format_percent(axis_waste, 2)});
  }
  table.add_row({"sim waste",
                 util::format_percent(mc.waste.mean(), 2) + " +/- " +
                     util::format_percent(mc.waste.confidence_halfwidth(), 2)});
  table.add_row({"mean makespan", util::format_duration(mc.makespan.mean())});
  table.add_row({"mean failures/run",
                 util::format_fixed(mc.failures.mean(), 2)});
  if (config.sdc.enabled()) {
    table.add_row({"mean strikes/run",
                   util::format_fixed(mc.sdc_injected.mean(), 2)});
    table.add_row({"mean detections/run",
                   util::format_fixed(mc.sdc_detected.mean(), 2)});
    table.add_row({"mean verify time/run",
                   util::format_duration(mc.verify_time.mean())});
    table.add_row({"mean rollback depth/run",
                   util::format_fixed(mc.rollback_depth.mean(), 2)});
  }
  if (config.predictor.enabled()) {
    table.add_row({"mean alarms/run",
                   util::format_fixed(mc.alarms_raised.mean(), 2)});
    table.add_row({"mean proactive ckpts/run",
                   util::format_fixed(mc.proactive_ckpts.mean(), 2)});
    table.add_row({"mean true predictions/run",
                   util::format_fixed(mc.true_predictions.mean(), 2)});
    table.add_row({"mean missed failures/run",
                   util::format_fixed(mc.missed_failures.mean(), 2)});
  }
  table.add_row({"survival rate",
                 util::format_fixed(mc.success.estimate(), 4)});
  table.add_row({"diverged trials", std::to_string(mc.diverged)});
  std::printf("%s", table.render().c_str());
  return 0;
}

// --------------------------------------------------------------- sweep

/// The --protocols converter: "all", "paper" or a comma list of names
/// (empty items skipped), each read by model::parse_protocol_name.
std::vector<model::Protocol> protocol_list(const std::string& text) {
  if (text == "all") {
    return {model::kAllProtocols.begin(), model::kAllProtocols.end()};
  }
  if (text == "paper") {
    return {model::kPaperProtocols.begin(), model::kPaperProtocols.end()};
  }
  std::vector<model::Protocol> protocols;
  for (const std::string_view item : util::split(text, ',')) {
    if (item.empty()) continue;
    protocols.push_back(model::parse_protocol_name(std::string(item)));
  }
  return protocols;
}

int cmd_sweep(int argc, const char* const* argv) {
  util::CliParser cli("dckpt sweep",
                      "Monte-Carlo campaigns over a (protocol, M, phi) grid");
  cli.add_option("scenario", "base", "base | exa hardware constants");
  cli.add_option("protocols", "all",
                 "comma list of protocol names, or 'all' / 'paper'");
  cli.add_option("mtbfs", "3600,14400,86400", "comma list of MTBFs, seconds");
  cli.add_option("phi-ratios", "0,0.25,0.5,1",
                 "comma list of overhead fractions phi/R");
  cli.add_option("nodes", "0", "override node count (0 = scenario default)");
  cli.add_option("tbase-mtbfs", "25", "t_base as a multiple of each MTBF");
  cli.add_option("trials", "60", "Monte-Carlo trials per grid point");
  cli.add_option("seed", "42", "master seed");
  add_failure_model_options(cli);
  cli.add_option("metrics-out", "", "write one JSONL sweep row per point");
  cli.add_option("metrics-bins", "64", "histogram bins for --metrics-out");
  cli.add_flag("progress", "print per-point progress and throughput");
  if (!cli.parse(argc, argv)) return 0;

  const auto scenario = cli.get_parsed("scenario", model::scenario_by_name);
  sim::SweepSpec spec;
  spec.protocols = cli.get_parsed("protocols", protocol_list);
  spec.mtbfs = cli.get_doubles("mtbfs");
  spec.phi_ratios = cli.get_doubles("phi-ratios");
  spec.config.params = scenario.params;
  if (const auto nodes = cli.get_count("nodes"); nodes > 0) {
    spec.config.params.nodes = nodes;
  } else if (spec.config.params.nodes > 100000) {
    spec.config.params.nodes = 99996;  // keep per-node bookkeeping tractable
  }
  spec.t_base_in_mtbfs = cli.get_double("tbase-mtbfs");
  spec.trials = cli.get_count("trials");
  spec.seed = cli.get_count("seed");
  spec.weibull_shape = read_failure_model(cli, spec.config);
  // Read even when unused, so a malformed value always exits 2.
  const std::size_t bins =
      cli.get_count("metrics-bins", util::kMaxMetricsBins);
  if (!cli.get("metrics-out").empty()) {
    sim::MetricsSpec metrics;
    metrics.bins = bins;
    spec.metrics = metrics;
  }
  if (cli.get_flag("progress")) {
    spec.progress = [](const sim::SweepProgress& p) {
      std::printf("[sweep] %zu done / %zu skipped / %zu total  "
                  "point %.2fs  total %.1fs  %.0f trials/s\n",
                  p.points_done, p.points_skipped, p.points_total,
                  p.point_elapsed, p.elapsed, p.trials_per_sec);
      std::fflush(stdout);
    };
  }

  const auto rows = sim::run_sweep(spec);
  // One model column per enabled axis, after "model waste".
  static constexpr const char* kAxisColumns[] = {"weibull model", "sdc model",
                                                 "pred model", "dcp model"};
  const auto axes = sim::model_axes(spec.config, spec.weibull_shape);
  std::vector<std::string> headers = {"protocol", "M", "phi", "P",
                                      "model waste"};
  for (const auto axis : axes) {
    headers.emplace_back(kAxisColumns[static_cast<int>(axis)]);
  }
  headers.insert(headers.end(), {"sim waste", "mean risk time", "survival"});
  util::TextTable table(std::move(headers));
  for (const auto& row : rows) {
    std::vector<std::string> cells = {
        std::string(model::protocol_name(row.protocol)),
        util::format_duration(row.mtbf), util::format_fixed(row.phi, 1),
        util::format_duration(row.period),
        util::format_percent(row.model_waste, 2)};
    for (const auto axis : axes) {
      cells.push_back(
          util::format_percent(row.*sim::model_waste_field(axis), 2));
    }
    cells.insert(
        cells.end(),
        {util::format_percent(row.result.waste.mean(), 2) + " +/- " +
             util::format_percent(row.result.waste.confidence_halfwidth(), 2),
         util::format_duration(row.result.risk_time.mean()),
         util::format_fixed(row.result.success.estimate(), 4)});
    table.add_row(std::move(cells));
  }
  std::printf("%s", table.render().c_str());
  if (!cli.get("metrics-out").empty()) {
    sim::save_sweep_jsonl(cli.get("metrics-out"), rows);
    std::printf("[jsonl] wrote %s (%zu rows)\n",
                cli.get("metrics-out").c_str(), rows.size());
  }
  return 0;
}

// ------------------------------------------------------------ optimize

int cmd_optimize(int argc, const char* const* argv) {
  util::CliParser cli("dckpt optimize",
                      "find the empirically optimal period by simulation");
  add_platform_options(cli);
  cli.add_option("protocol", "doublenbl", "protocol to optimize");
  cli.add_option("tbase", "50000", "application work per trial, seconds");
  cli.add_option("trials", "40", "trials per candidate period");
  add_failure_model_options(cli);
  if (!cli.parse(argc, argv)) return 0;

  sim::SimConfig config;
  config.protocol = cli.get_parsed("protocol", model::parse_protocol_name);
  config.params = platform_from(cli);
  if (config.params.nodes > 100000) config.params.nodes = 99996;
  config.t_base = cli.get_double("tbase");
  const double shape = read_failure_model(cli, config);

  sim::OptimizeOptions options;
  options.trials_per_eval = cli.get_count("trials");
  if (shape > 0.0) {
    options.weibull =
        util::Weibull::from_mean(shape, config.params.node_mtbf());
  }
  const auto model_opt =
      model::optimal_period_closed_form(config.protocol, config.params);
  const auto empirical = sim::optimize_period_empirically(config, options);

  util::TextTable table({"source", "period", "waste"});
  table.add_row({"closed form (Eq. 9/10/15)",
                 util::format_duration(model_opt.period),
                 util::format_percent(model_opt.waste, 3)});
  // Each enabled axis's own numeric optimum: where its model moves the
  // period (Weibull clustering at the horizon of the closed-form plan).
  auto plan = config;
  plan.period = model_opt.period;
  for (const auto axis : sim::model_axes(plan, shape)) {
    const auto axis_opt = model::optimal_period_numeric(
        config.protocol, config.params,
        sim::axis_extensions(axis, plan, shape));
    table.add_row({"numeric (" + axis_label(axis, shape) + ")",
                   util::format_duration(axis_opt.period),
                   util::format_percent(axis_opt.waste, 3)});
  }
  table.add_row({"empirical (simulation)",
                 util::format_duration(empirical.period),
                 util::format_percent(empirical.waste, 3) + " +/- " +
                     util::format_percent(empirical.waste_halfwidth, 3)});
  std::printf("%s", table.render().c_str());
  return 0;
}

// ------------------------------------------------------------ trace-gen

int cmd_trace_gen(int argc, const char* const* argv) {
  util::CliParser cli("dckpt trace-gen", "synthesize a failure trace file");
  cli.add_option("out", "failures.trace", "output path");
  cli.add_option("nodes", "64", "node count");
  cli.add_option("node-mtbf", "100000", "per-node mean inter-failure, s");
  cli.add_option("horizon", "1000000", "trace length, seconds");
  cli.add_option("weibull-shape", "0", "Weibull shape (0 = exponential)");
  cli.add_option("seed", "1", "random seed");
  if (!cli.parse(argc, argv)) return 0;

  const auto nodes = cli.get_count("nodes");
  const double mean = cli.get_double("node-mtbf");
  const double horizon = cli.get_double("horizon");
  const double shape = cli.get_double("weibull-shape");
  util::Xoshiro256ss rng(cli.get_count("seed"));
  std::vector<sim::FailureEvent> events;
  if (shape > 0.0) {
    events = sim::generate_failure_trace(util::Weibull::from_mean(shape, mean),
                                         nodes, horizon, rng);
  } else {
    events = sim::generate_failure_trace(util::Exponential::from_mean(mean),
                                         nodes, horizon, rng);
  }
  sim::save_failure_trace(cli.get("out"), events);
  std::printf("wrote %zu events to %s\n", events.size(),
              cli.get("out").c_str());
  return 0;
}

// ------------------------------------------------------------ trace-fit

int cmd_trace_fit(int argc, const char* const* argv) {
  util::CliParser cli("dckpt trace-fit",
                      "analyze a failure trace and fit distributions");
  cli.add_option("in", "failures.trace", "trace file to analyze");
  if (!cli.parse(argc, argv)) return 0;

  const auto events = sim::load_failure_trace(cli.get("in"));
  const auto stats = sim::analyze_trace(events);
  const auto exp_fit = sim::fit_exponential(events);
  const auto weib_fit = sim::fit_weibull(events);

  util::TextTable table({"quantity", "value"});
  table.add_row({"events", std::to_string(stats.events)});
  table.add_row({"span", util::format_duration(stats.span)});
  table.add_row({"distinct nodes", std::to_string(stats.distinct_nodes)});
  table.add_row({"platform MTBF", util::format_duration(stats.platform_mtbf)});
  table.add_row({"gap CV", util::format_fixed(stats.gap_cv, 3)});
  table.add_row({"exponential KS", util::format_fixed(exp_fit.ks_statistic,
                                                      4)});
  table.add_row({"Weibull shape", util::format_fixed(weib_fit.shape, 3)});
  table.add_row({"Weibull KS", util::format_fixed(weib_fit.ks_statistic, 4)});
  std::printf("%s\n", table.render().c_str());
  // Weibull only when the KS test rejects the exponential at the 5 % level
  // (D > 1.358 / sqrt(n)) and the Weibull D is smaller: on an exponential
  // log the fitted shape scatters around 1 and often fits a little closer
  // by chance alone.
  const bool exponential_rejected =
      exp_fit.ks_statistic >
      1.358 / std::sqrt(static_cast<double>(stats.events));
  std::printf("model hint: Parameters::mtbf = %.1f s; %s fits better\n",
              stats.platform_mtbf,
              exponential_rejected &&
                      weib_fit.ks_statistic < exp_fit.ks_statistic
                  ? "Weibull (bursty -- expect worse waste than the model)"
                  : "exponential (the paper's assumption holds)");
  return 0;
}

// ------------------------------------------------------------ hierarchy

int cmd_hierarchy(int argc, const char* const* argv) {
  util::CliParser cli("dckpt hierarchy",
                      "plan buddy level 1 + stable-storage level 2");
  add_platform_options(cli);
  cli.add_option("global-ckpt", "900", "global checkpoint cost, seconds");
  cli.add_option("global-recovery", "900", "global recovery cost, seconds");
  if (!cli.parse(argc, argv)) return 0;

  model::HierarchicalParams params;
  params.level1 = platform_from(cli);
  params.global_ckpt = cli.get_double("global-ckpt");
  params.global_recovery = cli.get_double("global-recovery");

  util::TextTable table({"Protocol", "MTBF_fatal", "P1*", "P2*", "w1",
                         "w total"});
  for (auto protocol : model::kAllProtocols) {
    params.protocol = protocol;
    const auto eval = model::optimize_hierarchical(params);
    table.add_row({std::string(model::protocol_name(protocol)),
                   util::format_duration(model::mean_time_between_fatal(
                       protocol, params.level1)),
                   util::format_duration(eval.level1_period),
                   std::isfinite(eval.level2_period)
                       ? util::format_duration(eval.level2_period)
                       : "never",
                   util::format_percent(eval.level1_waste, 2),
                   eval.feasible ? util::format_percent(eval.total_waste, 2)
                                 : "stalled"});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

// -------------------------------------------------------------- overlap

int cmd_overlap(int argc, const char* const* argv) {
  util::CliParser cli("dckpt overlap",
                      "measure the overlap factor alpha for a workload");
  cli.add_option("compute", "0.02", "compute time per step, seconds");
  cli.add_option("halo-mb", "16", "halo bytes per step, MiB");
  cli.add_option("nic-mbps", "128", "NIC bandwidth, MiB/s");
  cli.add_option("image-mb", "512", "checkpoint image, MiB");
  if (!cli.parse(argc, argv)) return 0;

  net::OverlapWorkload workload;
  workload.compute_time = cli.get_double("compute");
  workload.halo_bytes = cli.get_double("halo-mb") * 1024 * 1024;
  workload.nic_bandwidth = cli.get_double("nic-mbps") * 1024 * 1024;
  workload.checkpoint_bytes = cli.get_double("image-mb") * 1024 * 1024;
  workload.validate();

  const double mech = workload.mechanistic_alpha();
  const auto curve = net::measure_overlap_curve(
      workload, net::SharingPolicy::Scavenger, 10,
      std::isfinite(mech) ? 1.2 * (1.0 + mech) : 40.0);
  util::TextTable table({"theta", "phi"});
  for (const auto& point : curve) {
    table.add_row({util::format_duration(point.theta),
                   util::format_duration(point.phi)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("theta_min = %s, fitted alpha = %.2f (mechanistic %.2f)\n",
              util::format_duration(workload.theta_min()).c_str(),
              net::fit_alpha(curve, workload.theta_min()), mech);
  return 0;
}

// --------------------------------------------------------------- spares

int cmd_spares(int argc, const char* const* argv) {
  util::CliParser cli("dckpt spares",
                      "spare-pool sizing and its downtime/waste impact");
  add_platform_options(cli);
  cli.add_option("protocol", "doublenbl", "protocol for the waste column");
  cli.add_option("repair", "3600", "mean spare repair/return time, seconds");
  cli.add_option("detection", "30", "failure detection time, seconds");
  cli.add_option("max-spares", "32", "largest pool size to tabulate");
  if (!cli.parse(argc, argv)) return 0;

  const auto base = platform_from(cli);
  const auto protocol = cli.get_parsed("protocol", model::parse_protocol_name);
  model::SparePoolSpec spec;
  spec.repair_time = cli.get_double("repair");
  spec.detection = cli.get_double("detection");

  // Bounded: `c` doubles past the maximum, which must stay below 2^63 or
  // `c` wraps to 0, and each row's Erlang-C wait costs one step per spare.
  const auto max_spares = cli.get_count("max-spares", model::kMaxSpares);
  util::TextTable table({"spares", "E[wait]", "D_eff", "Waste@P*"});
  for (std::uint64_t c = 1; c <= max_spares; c *= 2) {
    spec.spares = c;
    std::string wait = "unstable", downtime = "-", waste = "-";
    try {
      const double w = model::expected_replacement_wait(spec, base.mtbf);
      const auto params = model::with_spare_pool(base, spec);
      wait = util::format_duration(w);
      downtime = util::format_duration(params.downtime);
      const auto opt = model::optimal_period_closed_form(protocol, params);
      waste = opt.feasible ? util::format_percent(opt.waste, 2) : "stalled";
    } catch (const std::invalid_argument&) {
      // fallthrough: pool unstable at this size
    }
    table.add_row({std::to_string(c), wait, downtime, waste});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

// --------------------------------------------------------------- chaos

/// Parses "RxC", or a bare "N" meaning NxN, for --grid / --block: each
/// dimension a positive count. Throws std::invalid_argument otherwise.
std::pair<std::size_t, std::size_t> parse_geometry(const std::string& text) {
  const auto dims = util::split(text, 'x');
  const auto dim = [&](std::string_view part) {
    const auto parsed = util::parse_number<std::size_t>(part, 1);
    if (!parsed || dims.size() > 2) throw std::invalid_argument(text);
    return parsed.value;
  };
  return {dim(dims.front()), dim(dims.back())};
}

int cmd_chaos(int argc, const char* const* argv) {
  util::CliParser cli("dckpt chaos",
                      "adversarial failure campaigns against the runtime");
  cli.add_option("topology", "pairs", "pairs | triples");
  cli.add_option("nodes", "8", "node count (multiple of the group size)");
  cli.add_option("cells", "64", "cells per node");
  cli.add_option("grid", "",
                 "target the 2-D grid runtime with RxC workers (row-major "
                 "ids; overrides --nodes/--cells/--staging)");
  cli.add_option("block", "8", "grid block size per worker, RxC or N (=NxN)");
  cli.add_option("steps", "96", "total steps");
  cli.add_option("interval", "12", "checkpoint interval, steps");
  cli.add_option("staging", "0", "staging (non-blocking exchange) steps");
  cli.add_option("rerepl-delay", "3",
                 "re-replication delay, steps (the risk window; 0 = instant)");
  cli.add_option("retry-max", "3",
                 "refill delivery attempts before the transfer is abandoned");
  cli.add_option("retry-base", "1",
                 "refill retry backoff base, steps (doubles per retry)");
  cli.add_option("verify-every", "0",
                 "verify checkpoints every N periods (0 = off; required for "
                 "sdc injections)");
  cli.add_option("keep-last", "1",
                 "retained committed checkpoint sets (rollback ladder depth)");
  cli.add_option("dcp-stack", "0",
                 "differential-checkpoint stack size K: commits per full "
                 "exchange (0 = every commit full; requires --staging 0, "
                 "--verify-every 0, --keep-last 1)");
  cli.add_option("dcp-block", "4096", "differential block size, bytes");
  cli.add_option("kernel", "heat", "heat | wave | counter");
  cli.add_option("runs", "100", "randomized schedules after the scripted set");
  cli.add_option("seed", "1", "campaign seed (or schedule seed with "
                 "--schedule, informational)");
  cli.add_option("max-failures", "4", "failures per random schedule");
  cli.add_option("schedule", "",
                 "run one schedule instead of a campaign; entries are "
                 "'step:node' (loss), 'step:corrupt:holder:owner', "
                 "'step:torn:node', 'step:failxfer:node', 'step:sdc:node', "
                 "'step:alarm:node[:window]', 'step:torndelta:node:depth'");
  cli.add_option("spares", "0",
                 "derive --rerepl-delay from an Erlang-C pool of this many "
                 "spares (0 = use --rerepl-delay)");
  cli.add_option("repair", "3600", "spare repair/return time, seconds");
  cli.add_option("detection", "30", "failure detection time, seconds");
  cli.add_option("mtbf", "25200", "platform MTBF for the spare pool, seconds");
  cli.add_option("step-seconds", "60", "wall-clock seconds per runtime step");
  cli.add_option("report-out", "", "write campaign + run records as JSONL");
  cli.add_option("threads", "0", "campaign workers (0 = hardware)");
  cli.add_flag("random-only", "skip the scripted danger cases");
  if (!cli.parse(argc, argv)) return 0;

  // Every flag is read before any work, used or not, so a malformed value
  // exits 2 naming the flag. Every integer flag is a count: a negative
  // value exits 2 instead of wrapping to a huge count.
  chaos::ChaosCampaignConfig config;
  config.runtime.topology = cli.get_parsed("topology", ckpt::parse_topology);
  config.runtime.nodes = cli.get_count("nodes");
  config.runtime.cells_per_node = cli.get_count("cells");
  config.runtime.total_steps = cli.get_count("steps");
  config.runtime.checkpoint_interval = cli.get_count("interval");
  config.runtime.staging_steps = cli.get_count("staging");
  config.runtime.rereplication_delay_steps = cli.get_count("rerepl-delay");
  config.runtime.transfer_retry.max_attempts = cli.get_count("retry-max");
  config.runtime.transfer_retry.base_delay_steps = cli.get_count("retry-base");
  config.runtime.verify_every = cli.get_count("verify-every");
  config.runtime.keep_last = cli.get_count("keep-last");
  config.runtime.dcp_stack_size = cli.get_count("dcp-stack");
  config.runtime.dcp_block_size = cli.get_count("dcp-block");
  config.kernel = cli.get_parsed(
      "kernel", util::NamedValues<std::string>{{"heat", "heat"},
                                               {"wave", "wave"},
                                               {"counter", "counter"}});
  config.random_runs = cli.get_count("runs");
  config.campaign_seed = cli.get_count("seed");
  config.max_failures = cli.get_count("max-failures");
  config.include_scripted = !cli.get_flag("random-only");
  config.threads = cli.get_count("threads", util::kMaxThreads);
  model::SparePoolSpec pool;
  pool.spares = cli.get_count("spares", model::kMaxSpares);
  pool.repair_time = cli.get_double("repair");
  pool.detection = cli.get_double("detection");
  const double pool_mtbf = cli.get_double("mtbf");
  const double step_seconds = cli.get_double("step-seconds");
  const auto [brows, bcols] = cli.get_parsed("block", parse_geometry);

  if (!cli.get("grid").empty()) {
    if (config.runtime.staging_steps > 0) {
      std::fprintf(stderr, "dckpt chaos: --staging is not supported with "
                   "--grid (the grid commits immediately)\n");
      std::exit(2);
    }
    const auto [rows, cols] = cli.get_parsed("grid", parse_geometry);
    runtime::GridConfig gc;
    gc.topology = config.runtime.topology;
    gc.grid_rows = rows;
    gc.grid_cols = cols;
    gc.block_rows = brows;
    gc.block_cols = bcols;
    gc.total_steps = config.runtime.total_steps;
    gc.checkpoint_interval = config.runtime.checkpoint_interval;
    gc.rereplication_delay_steps = config.runtime.rereplication_delay_steps;
    gc.transfer_retry = config.runtime.transfer_retry;
    gc.verify_every = config.runtime.verify_every;
    gc.keep_last = config.runtime.keep_last;
    gc.dcp_stack_size = config.runtime.dcp_stack_size;
    gc.dcp_block_size = config.runtime.dcp_block_size;
    config.grid = gc;
  }

  if (pool.spares > 0) {
    // Bridge from the spare-pool model: expected allocation wait -> steps.
    config.runtime.rereplication_delay_steps =
        chaos::spare_pool_delay_steps(pool, pool_mtbf, step_seconds);
    if (config.grid) {
      config.grid->rereplication_delay_steps =
          config.runtime.rereplication_delay_steps;
    }
    std::printf("spare pool: %lld spares -> re-replication delay %llu "
                "steps\n",
                static_cast<long long>(pool.spares),
                static_cast<unsigned long long>(
                    config.runtime.rereplication_delay_steps));
  }

  const auto print_violation = [](const chaos::ChaosRunResult& run) {
    std::printf("VIOLATED  run %llu (%s): %s\n",
                static_cast<unsigned long long>(run.index),
                run.schedule.name.c_str(), run.detail.c_str());
    std::printf("  repro: %s\n", run.repro.c_str());
  };

  if (!cli.get("schedule").empty()) {
    // Single-schedule mode: the repro path for campaign failures.
    auto schedule = cli.get_parsed("schedule", chaos::ChaosSchedule::parse);
    schedule.seed = config.campaign_seed;
    const std::uint64_t reference =
        chaos::reference_run(config).final_hash;
    const auto run = chaos::run_one(config, std::move(schedule), reference);
    if (!cli.get("report-out").empty()) {
      std::vector<util::JsonValue> lines;
      lines.push_back(chaos::to_json(run));
      sim::save_jsonl(cli.get("report-out"), lines);
      std::printf("[jsonl] wrote %s\n", cli.get("report-out").c_str());
    }
    if (run.outcome == chaos::ChaosOutcome::Violated) {
      print_violation(run);
      return 1;
    }
    std::printf("%s  %s%s%s\n",
                std::string(chaos::outcome_name(run.outcome)).c_str(),
                run.schedule.spec().c_str(),
                run.detail.empty() ? "" : ": ", run.detail.c_str());
    std::printf("steps %llu (replayed %llu), checkpoints %llu, rollbacks "
                "%llu, recoveries %llu, rereplications %llu, risk steps "
                "%llu\n",
                static_cast<unsigned long long>(run.report.steps_executed),
                static_cast<unsigned long long>(run.report.replayed_steps),
                static_cast<unsigned long long>(run.report.checkpoints),
                static_cast<unsigned long long>(run.report.rollbacks),
                static_cast<unsigned long long>(run.report.recoveries),
                static_cast<unsigned long long>(run.report.rereplications),
                static_cast<unsigned long long>(run.report.risk_steps));
    std::printf("failovers %llu, transfer retries %llu, corrupt images "
                "detected %llu, degraded steps %llu, hash-verified "
                "recoveries %llu\n",
                static_cast<unsigned long long>(run.report.failovers),
                static_cast<unsigned long long>(run.report.transfer_retries),
                static_cast<unsigned long long>(
                    run.report.corrupt_images_detected),
                static_cast<unsigned long long>(run.report.degraded_steps),
                static_cast<unsigned long long>(
                    run.report.hash_verified_recoveries));
    std::printf("sdc injected %llu, verifications %llu, sdc detected %llu, "
                "rollback depth %llu\n",
                static_cast<unsigned long long>(run.report.sdc_injected),
                static_cast<unsigned long long>(run.report.verifications_run),
                static_cast<unsigned long long>(run.report.sdc_detected),
                static_cast<unsigned long long>(run.report.rollback_depth));
    std::printf("alarms %llu, proactive ckpts %llu, true predictions %llu, "
                "missed failures %llu\n",
                static_cast<unsigned long long>(run.report.alarms_raised),
                static_cast<unsigned long long>(run.report.proactive_ckpts),
                static_cast<unsigned long long>(run.report.true_predictions),
                static_cast<unsigned long long>(run.report.missed_failures));
    std::printf("delta commits %llu, full commits %llu, chain replays %llu, "
                "chain replay depth %llu, torn-chain failovers %llu\n",
                static_cast<unsigned long long>(run.report.delta_commits),
                static_cast<unsigned long long>(run.report.full_commits),
                static_cast<unsigned long long>(run.report.chain_replays),
                static_cast<unsigned long long>(
                    run.report.chain_replay_depth),
                static_cast<unsigned long long>(
                    run.report.torn_chain_failovers));
    return 0;
  }

  const auto summary = chaos::run_campaign(config);
  util::TextTable table({"outcome", "runs"});
  table.add_row({"survived", std::to_string(summary.survived)});
  table.add_row({"fatal-detected", std::to_string(summary.fatal_detected)});
  table.add_row({"violated", std::to_string(summary.violated)});
  std::printf("%s", table.render().c_str());
  std::printf("campaign: %zu runs, seed %llu\n", summary.runs.size(),
              static_cast<unsigned long long>(config.campaign_seed));
  for (const auto& run : summary.runs) {
    if (run.outcome == chaos::ChaosOutcome::Violated) print_violation(run);
  }
  if (!cli.get("report-out").empty()) {
    chaos::save_campaign_jsonl(cli.get("report-out"), summary);
    std::printf("[jsonl] wrote %s (%zu records)\n",
                cli.get("report-out").c_str(), summary.runs.size() + 1);
  }
  return summary.violated > 0 ? 1 : 0;
}

// --------------------------------------------------------------- serve

/// Appends one serve_stats JSONL record to `path` (no-op when empty).
void serve_append_stats(const sim::EvalService& service,
                        const std::string& path) {
  if (path.empty()) return;
  if (std::FILE* out = std::fopen(path.c_str(), "a")) {
    std::fprintf(out, "%s\n", service.stats_json().dump().c_str());
    std::fclose(out);
  } else {
    std::fprintf(stderr, "serve: cannot append to %s\n", path.c_str());
  }
}

/// Reads newline-terminated requests from stdin and answers on stdout.
int serve_stdin(sim::EvalService& service, std::uint64_t stats_every,
                const std::string& stats_out) {
  std::string line;
  std::uint64_t handled = 0;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    std::printf("%s\n", service.handle_line(line).c_str());
    std::fflush(stdout);
    if (stats_every > 0 && ++handled % stats_every == 0) {
      serve_append_stats(service, stats_out);
    }
    if (line == "QUIT") break;
  }
  serve_append_stats(service, stats_out);
  return 0;
}

/// SIGINT/SIGTERM turn into a graceful drain of the running server. The
/// pointer is only non-null between sigaction install and restore below,
/// and request_stop() is async-signal-safe (one write to a self-pipe).
sim::Server* g_serve_server = nullptr;

void serve_signal_handler(int) {
  if (g_serve_server != nullptr) g_serve_server->request_stop();
}

/// Serves the line protocol over loopback TCP: a poll()-based event loop
/// multiplexing up to --max-conns clients, with per-connection deadlines,
/// bounded reply queues, and busy-shedding of heavy work (sim::Server;
/// concurrency model in docs/SERVE.md). QUIT ends a client's connection;
/// with --once the server drains after the first connection closes.
int serve_tcp(sim::EvalService& service, const sim::ServerOptions& options,
              std::uint64_t stats_every, const std::string& stats_out) {
  sim::Server server(service, options);
  if (!server.start()) return 1;
  std::printf("serving on 127.0.0.1:%d\n", server.port());
  std::fflush(stdout);
  if (stats_every > 0 && !stats_out.empty()) {
    server.set_stats_hook(stats_every, [&service, &stats_out] {
      serve_append_stats(service, stats_out);
    });
  }

  g_serve_server = &server;
  struct sigaction action{};
  action.sa_handler = serve_signal_handler;
  sigemptyset(&action.sa_mask);
  struct sigaction old_int{};
  struct sigaction old_term{};
  ::sigaction(SIGINT, &action, &old_int);
  ::sigaction(SIGTERM, &action, &old_term);

  const int rc = server.run();

  ::sigaction(SIGINT, &old_int, nullptr);
  ::sigaction(SIGTERM, &old_term, nullptr);
  g_serve_server = nullptr;

  // The drain has flushed every connection; this is the final stats
  // record the shutdown contract promises (counters still registered).
  serve_append_stats(service, stats_out);
  return rc;
}

int cmd_serve(int argc, const char* const* argv) {
  util::CliParser cli("dckpt serve",
                      "long-running evaluation service (line protocol; see "
                      "docs/SERVE.md)");
  cli.add_option("port", "-1",
                 "listen on 127.0.0.1:PORT (0 = auto-pick; -1 = stdin mode)");
  cli.add_flag("once", "TCP mode: exit after the first connection closes");
  cli.add_option("trials", "400", "default trials for kind=sim requests");
  cli.add_option("max-trials", "200000", "reject sim requests above this");
  cli.add_option("threads", "1", "worker threads for sim requests");
  cli.add_option("cache-capacity", "1024", "LRU answer-cache entries");
  cli.add_option("stats-out", "",
                 "append serve_stats JSONL records to this file");
  cli.add_option("stats-every", "0",
                 "emit a stats record every N requests (0 = only at exit)");
  cli.add_option("max-conns", "64", "TCP: concurrent connections");
  cli.add_option("max-line", "65536",
                 "TCP: longest request line in bytes (overlong lines answer "
                 "code=overlong)");
  cli.add_option("read-timeout", "30000",
                 "TCP: close a connection idle for this many ms");
  cli.add_option("write-timeout", "10000",
                 "TCP: close a connection whose replies stall this many ms");
  cli.add_option("queue-depth", "4",
                 "TCP: bounded in-flight sim queue (full = code=busy)");
  cli.add_option("high-water", "262144",
                 "TCP: queued reply bytes before a client's reads pause");
  if (!cli.parse(argc, argv)) return 0;

  // Every flag is read up front, the TCP ones in stdin mode too, so a
  // malformed value exits 2 in either mode.
  sim::EvalServiceOptions options;
  options.default_trials = cli.get_count("trials");
  options.max_trials = cli.get_count("max-trials");
  options.threads = cli.get_count("threads", util::kMaxThreads);
  options.cache_capacity = cli.get_count("cache-capacity");
  const auto stats_every = cli.get_count("stats-every");
  sim::ServerOptions server_options;
  server_options.port = cli.get_number<int>("port", -1, 65535);
  server_options.once = cli.get_flag("once");
  server_options.max_conns = cli.get_count("max-conns");
  server_options.max_line = cli.get_count("max-line");
  server_options.read_idle_ms = cli.get_number<int>("read-timeout");
  server_options.write_stall_ms = cli.get_number<int>("write-timeout");
  server_options.queue_depth = cli.get_count("queue-depth");
  server_options.high_water = cli.get_count("high-water");
  sim::EvalService service(options);
  if (server_options.port < 0) {
    return serve_stdin(service, stats_every, cli.get("stats-out"));
  }
  return serve_tcp(service, server_options, stats_every, cli.get("stats-out"));
}

void print_usage() {
  std::fputs(
      "dckpt -- double/triple checkpointing toolkit\n"
      "usage: dckpt <command> [options]\n\n"
      "commands:\n"
      "  plan        rank protocols for a platform\n"
      "  simulate    Monte-Carlo campaign for one configuration\n"
      "  sweep       Monte-Carlo campaigns over a (protocol, M, phi) grid\n"
      "  optimize    empirical period optimization\n"
      "  trace-gen   synthesize a failure trace file\n"
      "  trace-fit   analyze a failure trace, fit distributions\n"
      "  hierarchy   two-level (buddy + stable storage) planning\n"
      "  overlap     measure the overlap factor alpha for a workload\n"
      "  spares      spare-pool sizing\n"
      "  chaos       adversarial failure campaigns against the runtime\n"
      "  serve       long-running evaluation service (stdin or TCP)\n\n"
      "run 'dckpt <command> --help' for the command's options.\n",
      stdout);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 1;
  }
  const std::string command = argv[1];
  const int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  try {
    if (command == "plan") return cmd_plan(sub_argc, sub_argv);
    if (command == "simulate") return cmd_simulate(sub_argc, sub_argv);
    if (command == "sweep") return cmd_sweep(sub_argc, sub_argv);
    if (command == "optimize") return cmd_optimize(sub_argc, sub_argv);
    if (command == "trace-gen") return cmd_trace_gen(sub_argc, sub_argv);
    if (command == "trace-fit") return cmd_trace_fit(sub_argc, sub_argv);
    if (command == "hierarchy") return cmd_hierarchy(sub_argc, sub_argv);
    if (command == "overlap") return cmd_overlap(sub_argc, sub_argv);
    if (command == "spares") return cmd_spares(sub_argc, sub_argv);
    if (command == "chaos") return cmd_chaos(sub_argc, sub_argv);
    if (command == "serve") return cmd_serve(sub_argc, sub_argv);
    if (command == "--help" || command == "-h" || command == "help") {
      print_usage();
      return 0;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "dckpt %s: %s\n", command.c_str(), error.what());
    return 1;
  }
  std::fprintf(stderr, "dckpt: unknown command '%s'\n\n", command.c_str());
  print_usage();
  return 1;
}
