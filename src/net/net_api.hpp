// Umbrella header for the flow-level network substrate and the overlap-law
// measurement experiment.
#pragma once

#include "net/network.hpp"             // IWYU pragma: export
#include "net/overlap_experiment.hpp"  // IWYU pragma: export
