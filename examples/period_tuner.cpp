// Period tuner: shows the full waste-vs-period curve for a protocol on a
// given platform, marking the closed-form optimum (Eq. 9/10/15), the
// numeric optimum, and the sensitivity around them -- useful to judge how
// much a mis-tuned period actually costs.
//
//   ./period_tuner --protocol doublenbl --mtbf 25200 --phi-ratio 0.25
#include <cstdio>
#include <stdexcept>
#include <string>

#include "model/model_api.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/math.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dckpt;

  util::CliParser cli("period_tuner",
                      "waste as a function of the checkpoint period");
  cli.add_option("protocol", "doublenbl", "protocol to tune");
  cli.add_option("scenario", "base", "base | exa hardware");
  cli.add_option("mtbf", "25200", "platform MTBF, seconds (default 7 h)");
  cli.add_option("phi-ratio", "0.25", "overhead fraction phi/R");
  cli.add_option("points", "15", "curve resolution");
  if (!cli.parse(argc, argv)) return 0;

  const auto protocol =
      cli.get_parsed("protocol", dckpt::model::parse_protocol_name);
  const auto scenario = cli.get_parsed("scenario", model::scenario_by_name);
  const auto params = scenario.at_phi_ratio(cli.get_double("phi-ratio"))
                          .with_mtbf(cli.get_double("mtbf"));

  const auto closed = model::optimal_period_closed_form(protocol, params);
  const auto numeric = model::optimal_period_numeric(protocol, params);

  std::printf("%s on %s\n", std::string(model::protocol_name(protocol)).c_str(),
              params.describe().c_str());
  std::printf("closed-form P* = %s (waste %s)%s\n",
              util::format_duration(closed.period).c_str(),
              util::format_percent(closed.waste, 3).c_str(),
              closed.clamped ? " [clamped to min period]" : "");
  std::printf("numeric     P* = %s (waste %s)\n\n",
              util::format_duration(numeric.period).c_str(),
              util::format_percent(numeric.waste, 3).c_str());

  const double lo = model::min_period(protocol, params);
  const double hi = closed.period * 6.0;
  util::TextTable table({"Period", "WASTE_ff", "WASTE_fail", "Total",
                         "vs optimum"});
  const int points = cli.get_number<int>("points", 1);
  for (double period : util::log_space(lo, hi, points)) {
    const double ff = model::waste_fault_free(protocol, params, period);
    const double fail = model::waste_failure(protocol, params, period);
    const double total = model::waste(protocol, params, period);
    table.add_row({util::format_duration(period),
                   util::format_percent(ff, 2),
                   util::format_percent(fail, 2),
                   util::format_percent(total, 2),
                   std::string("+") + util::format_percent(total - numeric.waste, 2)});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}
