// Umbrella header: the full analytical model of
// "Revisiting the double checkpointing algorithm" (Dongarra, Herault,
// Robert, APDCM 2013). Include this to get parameters, the overlap law,
// waste/period/risk models, baselines and the paper's scenarios.
#pragma once

#include "model/dcp.hpp"          // IWYU pragma: export
#include "model/efficiency.hpp"   // IWYU pragma: export
#include "model/hierarchical.hpp" // IWYU pragma: export
#include "model/nonexponential.hpp"  // IWYU pragma: export
#include "model/overlap.hpp"      // IWYU pragma: export
#include "model/parameters.hpp"   // IWYU pragma: export
#include "model/period.hpp"       // IWYU pragma: export
#include "model/predictor.hpp"    // IWYU pragma: export
#include "model/protocol.hpp"     // IWYU pragma: export
#include "model/restart.hpp"      // IWYU pragma: export
#include "model/risk.hpp"         // IWYU pragma: export
#include "model/scenario.hpp"     // IWYU pragma: export
#include "model/sdc.hpp"          // IWYU pragma: export
#include "model/spares.hpp"       // IWYU pragma: export
#include "model/waste.hpp"        // IWYU pragma: export
#include "model/young_daly.hpp"   // IWYU pragma: export
