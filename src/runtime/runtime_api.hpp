// Umbrella header for the mini fault-tolerant runtime built on the buddy
// checkpointing substrate.
#pragma once

#include "runtime/checkpoint_driver.hpp"  // IWYU pragma: export
#include "runtime/coordinator.hpp"        // IWYU pragma: export
#include "runtime/grid.hpp"               // IWYU pragma: export
#include "runtime/kernel.hpp"             // IWYU pragma: export
