// JSONL export of chaos campaign results, routed through the generic
// writers in sim/export.
//
// Schemas (documented in docs/CHAOS.md):
//   campaign record  {"record":"chaos_campaign", "runs":..., "survived":...,
//                     "fatal_detected":..., "violated":...,
//                     "reference_hash":"<hex>", "target":"chain|grid",
//                     "grid":"RxC"?, "block":"RxC"?}
//   run record       {"record":"chaos_run", "index":..., "name":...,
//                     "seed":..., "schedule":"step:node,...",
//                     "outcome":"survived|fatal-detected|violated",
//                     "detail":...?, "repro":..., "predicted":{...},
//                     "report":{..., "final_hash":"<hex>"},
//                     "target":"chain|grid"}
//
// Schema evolution is append-only: new stable ids ("target", "grid",
// "block") are added after the existing keys and existing keys are never
// renumbered, renamed, or reordered -- downstream JSONL consumers written
// against an older schema keep working.
//
// 64-bit state hashes are serialized as fixed-width hex *strings*: JSON
// numbers are doubles here and would silently round them.
#pragma once

#include <iosfwd>
#include <string>

#include "chaos/campaign.hpp"
#include "util/json.hpp"

namespace dckpt::chaos {

util::JsonValue to_json(const ChaosRunResult& run);
util::JsonValue to_json(const ChaosCampaignSummary& summary);

/// One campaign record line, then one run record line per run.
void write_campaign_jsonl(std::ostream& out,
                          const ChaosCampaignSummary& summary);

/// File writer; throws std::runtime_error when `path` cannot be opened.
void save_campaign_jsonl(const std::string& path,
                         const ChaosCampaignSummary& summary);

}  // namespace dckpt::chaos
