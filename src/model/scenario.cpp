#include "model/scenario.hpp"

#include <stdexcept>

#include "util/parse.hpp"

namespace dckpt::model {

namespace {
constexpr double kSecondsPerYear = 365.25 * 86400.0;
constexpr double kSevenHours = 7.0 * 3600.0;
}  // namespace

Parameters Scenario::at_phi_ratio(double ratio) const {
  if (ratio < 0.0 || ratio > 1.0) {
    throw std::invalid_argument("Scenario: phi/R ratio outside [0, 1]");
  }
  return params.with_overhead(ratio * params.remote_blocking);
}

Scenario base_scenario() {
  Scenario s;
  s.name = "Base";
  s.params.downtime = 0.0;
  s.params.local_ckpt = 2.0;
  s.params.remote_blocking = 4.0;
  s.params.alpha = 10.0;
  s.params.overhead = 0.0;
  s.params.nodes = 324ULL * 32ULL;
  s.params.mtbf = kSevenHours;
  s.phi_max = s.params.remote_blocking;
  s.default_mtbf = kSevenHours;
  return s;
}

Scenario exa_scenario() {
  Scenario s;
  s.name = "Exa";
  s.params.downtime = 60.0;
  s.params.local_ckpt = 30.0;
  s.params.remote_blocking = 60.0;
  s.params.alpha = 10.0;
  s.params.overhead = 0.0;
  s.params.nodes = 1000000ULL;
  s.params.mtbf = kSevenHours;
  s.phi_max = s.params.remote_blocking;
  s.default_mtbf = kSevenHours;
  return s;
}

std::vector<Scenario> paper_scenarios() {
  return {base_scenario(), exa_scenario()};
}

Scenario scenario_by_name(std::string_view name) {
  using MakeScenario = Scenario (*)();
  return util::NamedValues<MakeScenario>{{"base", base_scenario},
                                         {"exa", exa_scenario}}(name)();
}

Parameters HardwareSpec::derive() const {
  if (checkpoint_bytes <= 0.0 || local_bandwidth <= 0.0 ||
      network_bandwidth <= 0.0 || node_mtbf_years <= 0.0 || nodes < 2) {
    throw std::invalid_argument("HardwareSpec: out of domain");
  }
  Parameters p;
  p.downtime = downtime;
  p.local_ckpt = checkpoint_bytes / local_bandwidth;
  p.remote_blocking = checkpoint_bytes / network_bandwidth;
  p.alpha = alpha;
  p.overhead = 0.0;
  p.nodes = nodes;
  p.mtbf = node_mtbf_years * kSecondsPerYear / static_cast<double>(nodes);
  p.validate();
  return p;
}

}  // namespace dckpt::model
