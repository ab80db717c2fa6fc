// Per-layer measurement from outside the library. A traced run replays a
// workload pass through the layers' public entry points — text loading,
// Workload::extract_dfgs, dfg_fingerprint, SelectionScheme::select with a
// TimingExecutor, find_best_cut with a timing ThreadPool — and reads the
// report sections (cache, timings, emission) of the real pipeline runs.
// LayerTotals accumulates one traced pass; to_metrics() names the result.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "api/explorer.hpp"
#include "harness.hpp"

namespace perfbench {

struct LayerTotals {
  double text_ms = 0.0;
  double text_bytes = 0.0;
  double extract_ms = 0.0;
  double blocks = 0.0;
  double nodes = 0.0;
  double fingerprint_ms = 0.0;
  isex::CacheCounters cache;
  double single_ms = 0.0;
  double single_calls = 0.0;
  double single_cuts = 0.0;
  std::vector<double> task_ms;
  double busiest_thread_ms = 0.0;
  double mean_thread_ms = 0.0;
  double multi_ms = 0.0;
  double multi_calls = 0.0;
  double multi_cuts = 0.0;
  double multi_exhausted = 0.0;
  std::map<std::string, double> select_ms;  // by scheme name
  double emit_ms = 0.0;
  double emit_verify_ms = 0.0;
  double artifacts = 0.0;
  double emit_bytes = 0.0;
  double explorer_overhead_ms = 0.0;

  /// Adds one pipeline report's cache deltas and its unattributed Explorer
  /// time (total minus the extract/identify/emit phases).
  void add_report(const isex::CacheReport& cache, const isex::ReportTimings& timings);
  /// Names every field as a per-layer metric (select.* for the schemes seen).
  void to_metrics(Metrics& m) const;
};

/// Parses one `.isex` document, timing it into the text layer.
isex::Workload probe_text(const std::string& text, LayerTotals& totals);

/// Extracted blocks of one workload, timed into the extract layer, with
/// their fingerprints timed into the cache layer.
struct ProbedBlocks {
  std::vector<isex::Dfg> blocks;
  double base_cycles = 0.0;
};
ProbedBlocks probe_extract(isex::Workload& workload, LayerTotals& totals);

/// Runs `scheme` over `bundles` twice through SelectionScheme::select: cold
/// on a fresh ResultCache behind a TimingExecutor (its level-0 wall time is
/// the identification cost, attributed to single_cut or multi_cut by the
/// scheme's engine; clubbing and maxmiso enumerate their own candidates and
/// are attributed to neither), then warm on the same cache, where every
/// identification is a memo hit — the scheme's selection cost. Returns the
/// cold result. Adds the warm call's memo misses to `*warm_misses`.
isex::PortfolioSelectionResult probe_select(const std::string& scheme,
                                            std::span<const isex::WorkloadBundle> bundles,
                                            const isex::Constraints& constraints,
                                            int num_instructions, isex::Executor& executor,
                                            int split_depth, LayerTotals& totals,
                                            std::uint64_t* warm_misses);

/// Subtree task balance: find_best_cut on every block with a TimingExecutor
/// around `pool` passed through CutSearchOptions (split at `split_depth`).
void probe_subtree_tasks(std::span<const isex::Dfg> blocks, const isex::Constraints& constraints,
                         isex::ThreadPool& pool, int split_depth, LayerTotals& totals);

/// Per-metric median over several traced passes.
Metrics median_metrics(const std::vector<Metrics>& passes);

}  // namespace perfbench
