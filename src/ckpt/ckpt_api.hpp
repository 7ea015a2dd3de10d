// Umbrella header for the in-memory buddy checkpoint storage substrate.
#pragma once

#include "ckpt/buddy_store.hpp"  // IWYU pragma: export
#include "ckpt/dcp.hpp"          // IWYU pragma: export
#include "ckpt/page_store.hpp"   // IWYU pragma: export
#include "ckpt/recovery.hpp"     // IWYU pragma: export
#include "ckpt/ring.hpp"         // IWYU pragma: export
#include "ckpt/transfer.hpp"     // IWYU pragma: export
