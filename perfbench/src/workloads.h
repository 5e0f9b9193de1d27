// The benchmark's workloads. Each runs for Args::seconds, checks its own
// outputs and fills a Result with either the end-to-end metrics (untraced)
// or the per-layer metrics (traced).
#ifndef ETA2_PERFBENCH_WORKLOADS_H
#define ETA2_PERFBENCH_WORKLOADS_H

#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

// campaign_known, campaign_described, campaign_defended. `spans` (traced
// runs only, else null) receives the recorded spans.
[[nodiscard]] Result run_campaign(const Args& args, SpanLog* spans);
// serve_ingest.
[[nodiscard]] Result run_serve(const Args& args, SpanLog* spans);

[[nodiscard]] const std::vector<std::string>& workload_names();

// Names and units of the two metric sets, in report order. Every workload
// reports every metric of the set its mode selects.
struct MetricName {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<MetricName>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricName>& per_layer_metrics();

}  // namespace perfbench

#endif  // ETA2_PERFBENCH_WORKLOADS_H
