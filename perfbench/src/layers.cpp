#include "layers.hpp"

#include <algorithm>

#include "cache/fingerprint.hpp"
#include "cache/result_cache.hpp"
#include "text/workload_file.hpp"

namespace perfbench {

namespace {

const isex::LatencyModel& latency_model() {
  static const isex::LatencyModel model = isex::LatencyModel::standard_018um();
  return model;
}

enum class Engine { single_cut, multi_cut, own };

Engine engine_of(const std::string& scheme) {
  if (scheme == "optimal" || scheme == "optimal-dp") return Engine::multi_cut;
  if (scheme == "clubbing" || scheme == "maxmiso") return Engine::own;
  return Engine::single_cut;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void LayerTotals::add_report(const isex::CacheReport& c, const isex::ReportTimings& t) {
  cache += c.counters;
  explorer_overhead_ms += t.total_ms - t.extract_ms - t.identify_ms - t.emit_ms;
}

void LayerTotals::to_metrics(Metrics& m) const {
  m.set("text.load_ms", text_ms, "ms");
  m.set("text.bytes", text_bytes, "bytes");
  m.set("text.mb_per_s", text_ms > 0 ? text_bytes / 1e6 / (text_ms / 1e3) : 0.0, "MB/s");
  m.set("extract.ms", extract_ms, "ms");
  m.set("extract.blocks", blocks, "count");
  m.set("extract.nodes", nodes, "count");
  m.set("cache.hits", static_cast<double>(cache.hits), "count");
  m.set("cache.misses", static_cast<double>(cache.misses), "count");
  m.set("cache.hit_ratio",
        ratio(static_cast<double>(cache.hits), static_cast<double>(cache.hits + cache.misses)),
        "ratio");
  m.set("cache.dfg_hit_ratio",
        ratio(static_cast<double>(cache.dfg_hits),
              static_cast<double>(cache.dfg_hits + cache.dfg_misses)),
        "ratio");
  m.set("cache.evictions", static_cast<double>(cache.evictions), "count");
  m.set("cache.fingerprint_ms", fingerprint_ms, "ms");
  m.set("single_cut.ms", single_ms, "ms");
  m.set("single_cut.calls", single_calls, "count");
  m.set("single_cut.cuts", single_cuts, "count");
  m.set("single_cut.mcuts_per_s", single_ms > 0 ? single_cuts / 1e3 / single_ms : 0.0,
        "Mcuts/s");
  m.set("single_cut.tasks", static_cast<double>(task_ms.size()), "count");
  m.set("single_cut.task_ms_max",
        task_ms.empty() ? 0.0 : *std::max_element(task_ms.begin(), task_ms.end()), "ms");
  m.set("single_cut.task_ms_mean", mean(task_ms), "ms");
  m.set("single_cut.task_imbalance", ratio(busiest_thread_ms, mean_thread_ms), "ratio");
  m.set("multi_cut.ms", multi_ms, "ms");
  m.set("multi_cut.calls", multi_calls, "count");
  m.set("multi_cut.cuts", multi_cuts, "count");
  m.set("multi_cut.mcuts_per_s", multi_ms > 0 ? multi_cuts / 1e3 / multi_ms : 0.0, "Mcuts/s");
  m.set("multi_cut.budget_exhausted", multi_exhausted, "count");
  for (const auto& [scheme, ms] : select_ms) {
    std::string name = scheme;
    std::replace(name.begin(), name.end(), '-', '_');
    m.set("select." + name + "_ms", ms, "ms");
  }
  m.set("emit.ms", emit_ms, "ms");
  m.set("emit.verify_ms", emit_verify_ms, "ms");
  m.set("emit.artifacts", artifacts, "count");
  m.set("emit.bytes", emit_bytes, "bytes");
  m.set("explorer.overhead_ms", explorer_overhead_ms, "ms");
}

isex::Workload probe_text(const std::string& text, LayerTotals& totals) {
  const auto t0 = Clock::now();
  isex::Workload w = isex::load_workload_string(text);
  totals.text_ms += ms_since(t0);
  totals.text_bytes += static_cast<double>(text.size());
  return w;
}

ProbedBlocks probe_extract(isex::Workload& workload, LayerTotals& totals) {
  ProbedBlocks out;
  const auto t0 = Clock::now();
  workload.preprocess();
  out.blocks = workload.extract_dfgs({}, &out.base_cycles);
  totals.extract_ms += ms_since(t0);
  totals.blocks += static_cast<double>(out.blocks.size());
  for (const isex::Dfg& g : out.blocks) totals.nodes += static_cast<double>(g.num_nodes());
  const auto t1 = Clock::now();
  for (const isex::Dfg& g : out.blocks) (void)isex::dfg_fingerprint(g);
  totals.fingerprint_ms += ms_since(t1);
  return out;
}

isex::PortfolioSelectionResult probe_select(const std::string& scheme_name,
                                            std::span<const isex::WorkloadBundle> bundles,
                                            const isex::Constraints& constraints,
                                            int num_instructions, isex::Executor& executor,
                                            int split_depth, LayerTotals& totals,
                                            std::uint64_t* warm_misses) {
  const isex::SelectionScheme& scheme = isex::SchemeRegistry::global().get(scheme_name);
  isex::ResultCache cache;
  const auto inputs = [&](isex::Executor* exec, isex::CacheCounters* counters) {
    return isex::SchemeInputs{bundles,          latency_model(), constraints,
                              num_instructions, {},              exec,
                              &cache,           counters,        split_depth};
  };

  TimingExecutor timing(executor);
  isex::CacheCounters cold_counters;
  isex::PortfolioSelectionResult cold = scheme.select(inputs(&timing, &cold_counters));
  const double ident_ms = timing.level0_wall_ms();
  switch (engine_of(scheme_name)) {
    case Engine::single_cut:
      totals.single_ms += ident_ms;
      totals.single_calls += static_cast<double>(cold.identification_calls);
      totals.single_cuts += static_cast<double>(cold.stats.cuts_considered);
      break;
    case Engine::multi_cut:
      totals.multi_ms += ident_ms;
      totals.multi_calls += static_cast<double>(cold.identification_calls);
      totals.multi_cuts += static_cast<double>(cold.stats.cuts_considered);
      if (cold.stats.budget_exhausted) totals.multi_exhausted += 1;
      break;
    case Engine::own:
      break;
  }

  isex::CacheCounters warm_counters;
  const auto t0 = Clock::now();
  (void)scheme.select(inputs(&executor, &warm_counters));
  totals.select_ms[scheme_name] += ms_since(t0);
  if (warm_misses != nullptr) *warm_misses += warm_counters.misses;
  return cold;
}

void probe_subtree_tasks(std::span<const isex::Dfg> blocks, const isex::Constraints& constraints,
                         isex::ThreadPool& pool, int split_depth, LayerTotals& totals) {
  TimingExecutor timing(pool);
  isex::CutSearchOptions options;
  options.executor = &timing;
  options.split_depth = split_depth;
  for (const isex::Dfg& g : blocks) {
    (void)isex::find_best_cut(g, latency_model(), constraints, options);
  }
  for (const TimingExecutor::Call& call : timing.calls()) {
    if (call.level != 0) continue;
    totals.task_ms.insert(totals.task_ms.end(), call.item_ms.begin(), call.item_ms.end());
    totals.busiest_thread_ms += call.busiest_ms;
    totals.mean_thread_ms += call.mean_thread_ms;
  }
}

Metrics median_metrics(const std::vector<Metrics>& passes) {
  Metrics out;
  if (passes.empty()) return out;
  for (const auto& [name, unit] : layer_metric_units()) {
    std::vector<double> values;
    for (const Metrics& p : passes) {
      if (p.has(name)) values.push_back(p.get(name));
    }
    if (!values.empty()) out.set(name, median(values), unit);
  }
  return out;
}

}  // namespace perfbench
