#include "core/serialize.hpp"

namespace isex {

Json to_json(const Constraints& c) {
  Json j = Json::object();
  j.set("max_inputs", c.max_inputs);
  j.set("max_outputs", c.max_outputs);
  j.set("enable_pruning", c.enable_pruning);
  j.set("prune_permanent_inputs", c.prune_permanent_inputs);
  j.set("branch_and_bound", c.branch_and_bound);
  j.set("search_budget", c.search_budget);
  return j;
}

Constraints constraints_from_json(const Json& j) {
  Constraints c;
  c.max_inputs = static_cast<int>(j.at("max_inputs").as_int());
  c.max_outputs = static_cast<int>(j.at("max_outputs").as_int());
  c.enable_pruning = j.at("enable_pruning").as_bool();
  c.prune_permanent_inputs = j.at("prune_permanent_inputs").as_bool();
  c.branch_and_bound = j.at("branch_and_bound").as_bool();
  c.search_budget = j.at("search_budget").as_uint();
  return c;
}

Json to_json(const EnumerationStats& s) {
  Json j = Json::object();
  j.set("cuts_considered", s.cuts_considered);
  j.set("passed_checks", s.passed_checks);
  j.set("failed_output", s.failed_output);
  j.set("failed_convex", s.failed_convex);
  j.set("pruned_inputs", s.pruned_inputs);
  j.set("pruned_bound", s.pruned_bound);
  j.set("best_updates", s.best_updates);
  j.set("budget_exhausted", s.budget_exhausted);
  // Emitted only when set: complete results keep their historical byte
  // layout (and cancelled results never reach the persisted memo anyway —
  // the store-refusal discipline).
  if (s.cancelled) j.set("cancelled", s.cancelled);
  return j;
}

EnumerationStats stats_from_json(const Json& j) {
  EnumerationStats s;
  s.cuts_considered = j.at("cuts_considered").as_uint();
  s.passed_checks = j.at("passed_checks").as_uint();
  s.failed_output = j.at("failed_output").as_uint();
  s.failed_convex = j.at("failed_convex").as_uint();
  s.pruned_inputs = j.at("pruned_inputs").as_uint();
  s.pruned_bound = j.at("pruned_bound").as_uint();
  s.best_updates = j.at("best_updates").as_uint();
  s.budget_exhausted = j.at("budget_exhausted").as_bool();
  if (const Json* c = j.find("cancelled")) s.cancelled = c->as_bool();
  return s;
}

Json to_json(const CutMetrics& m) {
  Json j = Json::object();
  j.set("num_ops", m.num_ops);
  j.set("inputs", m.inputs);
  j.set("outputs", m.outputs);
  j.set("convex", m.convex);
  j.set("sw_cycles", m.sw_cycles);
  j.set("hw_critical", m.hw_critical);
  j.set("hw_cycles", m.hw_cycles);
  j.set("area_macs", m.area_macs);
  return j;
}

CutMetrics metrics_from_json(const Json& j) {
  CutMetrics m;
  m.num_ops = static_cast<int>(j.at("num_ops").as_int());
  m.inputs = static_cast<int>(j.at("inputs").as_int());
  m.outputs = static_cast<int>(j.at("outputs").as_int());
  m.convex = j.at("convex").as_bool();
  m.sw_cycles = static_cast<int>(j.at("sw_cycles").as_int());
  m.hw_critical = j.at("hw_critical").as_double();
  m.hw_cycles = static_cast<int>(j.at("hw_cycles").as_int());
  m.area_macs = j.at("area_macs").as_double();
  return m;
}

Json to_json(const BitVector& v) {
  Json j = Json::object();
  j.set("size", static_cast<std::int64_t>(v.size()));
  Json bits = Json::array();
  v.for_each([&](std::size_t i) { bits.push_back(static_cast<std::int64_t>(i)); });
  j.set("bits", std::move(bits));
  return j;
}

BitVector bitvector_from_json(const Json& j) {
  const std::int64_t size = j.at("size").as_int();
  ISEX_CHECK(size >= 0 && size <= kMaxJsonBitVectorSize,
             "bit vector size " + std::to_string(size) + " out of range");
  BitVector v(static_cast<std::size_t>(size));
  for (const Json& bit : j.at("bits").as_array()) {
    const std::int64_t i = bit.as_int();
    ISEX_CHECK(i >= 0 && i < size, "bit index " + std::to_string(i) +
                                       " outside a bit vector of size " +
                                       std::to_string(size));
    v.set(static_cast<std::size_t>(i));
  }
  return v;
}

Json to_json(const SingleCutResult& r) {
  Json j = Json::object();
  j.set("cut", to_json(r.cut));
  j.set("merit", r.merit);
  j.set("metrics", to_json(r.metrics));
  j.set("stats", to_json(r.stats));
  return j;
}

SingleCutResult single_cut_from_json(const Json& j) {
  SingleCutResult r;
  r.cut = bitvector_from_json(j.at("cut"));
  r.merit = j.at("merit").as_double();
  r.metrics = metrics_from_json(j.at("metrics"));
  r.stats = stats_from_json(j.at("stats"));
  return r;
}

Json to_json(const MultiCutResult& r) {
  Json j = Json::object();
  Json cuts = Json::array();
  for (const BitVector& cut : r.cuts) cuts.push_back(to_json(cut));
  j.set("cuts", std::move(cuts));
  j.set("total_merit", r.total_merit);
  j.set("stats", to_json(r.stats));
  return j;
}

MultiCutResult multi_cut_from_json(const Json& j) {
  MultiCutResult r;
  for (const Json& cut : j.at("cuts").as_array()) r.cuts.push_back(bitvector_from_json(cut));
  r.total_merit = j.at("total_merit").as_double();
  r.stats = stats_from_json(j.at("stats"));
  return r;
}

}  // namespace isex
