// JSON (de)serialization of the core result types, shared by the structured
// ExplorationReport and the ResultCache persistence file so the two never
// drift apart. Every from_* function throws isex::Error on missing or
// mistyped fields (the parsers are strict, like the Json accessors).
#pragma once

#include <cstdint>

#include "core/constraints.hpp"
#include "core/multi_cut.hpp"
#include "core/single_cut.hpp"
#include "support/json.hpp"

namespace isex {

Json to_json(const Constraints& c);
Constraints constraints_from_json(const Json& j);

Json to_json(const EnumerationStats& s);
EnumerationStats stats_from_json(const Json& j);

Json to_json(const CutMetrics& m);
CutMetrics metrics_from_json(const Json& j);

/// Largest bit vector bitvector_from_json accepts: far above any data-flow
/// graph the pipeline builds, far below a size whose allocation could hurt.
inline constexpr std::int64_t kMaxJsonBitVectorSize = std::int64_t{1} << 20;

/// {"size": n, "bits": [ascending set indices]}.
Json to_json(const BitVector& v);
/// Throws isex::Error on a size outside [0, kMaxJsonBitVectorSize] or a bit
/// outside [0, size): the input may be a corrupted cache snapshot.
BitVector bitvector_from_json(const Json& j);

Json to_json(const SingleCutResult& r);
SingleCutResult single_cut_from_json(const Json& j);

Json to_json(const MultiCutResult& r);
MultiCutResult multi_cut_from_json(const Json& j);

}  // namespace isex
