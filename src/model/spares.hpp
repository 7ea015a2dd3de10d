// Spare-node provisioning model (extension, after the paper's related work
// [14][15] on keeping backup resources).
//
// The model's downtime D bundles failure detection with *replacement-node
// allocation*. With a pool of c warm spares that are repaired and returned
// at rate mu each, node replacement is an M/M/c queue fed by the platform
// failure process (rate lambda_p = 1/M): the expected allocation delay is
// the Erlang-C waiting time
//
//   W = C(c, a) / (c mu - lambda_p),  a = lambda_p / mu,
//
// where C(c, a) is the Erlang-C probability of queueing. This turns the
// abstract D into (detection + W) and lets operators size the spare pool
// against the waste it buys.
#pragma once

#include <cstdint>

#include "model/parameters.hpp"
#include "model/protocol.hpp"

namespace dckpt::model {

/// Largest pool the model evaluates: erlang_c costs one step per spare.
inline constexpr std::uint64_t kMaxSpares = 1000000;

struct SparePoolSpec {
  std::uint64_t spares = 4;      ///< c: warm spare nodes
  double repair_time = 3600.0;   ///< 1/mu: mean time to repair & return one
  double detection = 30.0;       ///< failure-detection part of D [s]

  void validate() const;
};

/// Erlang-C probability that an arrival must wait (all c servers busy).
/// `offered_load` a = lambda / mu must satisfy a < c (stability).
double erlang_c(std::uint64_t servers, double offered_load);

/// Expected waiting time for a replacement node, W. Throws when the pool is
/// unstable (a >= c: failures arrive faster than spares return).
double expected_replacement_wait(const SparePoolSpec& spec,
                                 double platform_mtbf);

/// Effective downtime D = detection + W for the given platform.
double effective_downtime(const SparePoolSpec& spec, double platform_mtbf);

/// Copy of `params` with downtime derived from the spare pool.
Parameters with_spare_pool(const Parameters& params,
                           const SparePoolSpec& spec);

}  // namespace dckpt::model
