// Umbrella header for the discrete-event checkpoint-protocol simulator.
#pragma once

#include "sim/export.hpp"            // IWYU pragma: export
#include "sim/failure_injector.hpp"  // IWYU pragma: export
#include "sim/failure_log.hpp"       // IWYU pragma: export
#include "sim/independent.hpp"       // IWYU pragma: export
#include "sim/log_stats.hpp"         // IWYU pragma: export
#include "sim/metrics.hpp"           // IWYU pragma: export
#include "sim/optimize.hpp"          // IWYU pragma: export
#include "sim/protocol_sim.hpp"      // IWYU pragma: export
#include "sim/risk_tracker.hpp"      // IWYU pragma: export
#include "sim/runner.hpp"            // IWYU pragma: export
#include "sim/server.hpp"            // IWYU pragma: export
#include "sim/service.hpp"           // IWYU pragma: export
#include "sim/sweep.hpp"             // IWYU pragma: export
#include "sim/trace.hpp"             // IWYU pragma: export
