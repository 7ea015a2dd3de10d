// Trace viewer: runs one simulated execution with full event tracing and
// prints the protocol's life -- periods, checkpoint commits, failures,
// rollbacks, recoveries -- the fastest way to understand what the state
// machine actually does.
//
//   ./trace_viewer --protocol triple --mtbf 400 --tbase 1200
#include <cstdio>
#include <string>

#include "model/model_api.hpp"
#include "sim/sim_api.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"

int main(int argc, char** argv) {
  using namespace dckpt;

  util::CliParser cli("trace_viewer",
                      "single-run event trace of a buddy protocol");
  cli.add_option("protocol", "doublenbl", "protocol to trace");
  cli.add_option("nodes", "12", "platform nodes (multiple of 6)");
  cli.add_option("mtbf", "400", "platform MTBF, seconds");
  cli.add_option("phi-ratio", "0.25", "overhead fraction phi/R");
  cli.add_option("tbase", "1200", "application work, seconds");
  cli.add_option("seed", "7", "random seed");
  if (!cli.parse(argc, argv)) return 0;

  sim::SimConfig config;
  config.protocol =
      cli.get_parsed("protocol", dckpt::model::parse_protocol_name);
  config.params = model::base_scenario().params;
  config.params.nodes = cli.get_count("nodes");
  config.params.mtbf = cli.get_double("mtbf");
  config.params.overhead =
      cli.get_double("phi-ratio") * config.params.remote_blocking;
  config.t_base = cli.get_double("tbase");
  config.stop_on_fatal = false;
  config.period =
      model::optimal_period_closed_form(config.protocol, config.params).period;

  std::printf("%s, P = %s, t_base = %s\n\n",
              std::string(model::protocol_name(config.protocol)).c_str(),
              util::format_duration(config.period).c_str(),
              util::format_duration(config.t_base).c_str());

  sim::Trace trace(true);
  const auto result =
      sim::simulate_exponential(config, cli.get_count("seed"), &trace);
  std::printf("%s", trace.render().c_str());

  std::printf("\nmakespan %s, waste %s, %llu failure(s)%s\n",
              util::format_duration(result.makespan).c_str(),
              util::format_percent(result.waste(), 2).c_str(),
              static_cast<unsigned long long>(result.failures),
              result.fatal ? ", FATAL" : "");
  std::printf("loss breakdown: checkpointing %s, downtime %s, recovery %s, "
              "re-execution %s\n",
              util::format_duration(result.time_checkpointing).c_str(),
              util::format_duration(result.time_down).c_str(),
              util::format_duration(result.time_recovering).c_str(),
              util::format_duration(result.time_reexecuting).c_str());
  return 0;
}
