// The daemon's process-wide result store: one shared ResultCache for every
// request the service runs, plus the persistence policy around it (warm
// start on boot, atomic snapshot on idle and on shutdown).
//
// This is deliberately a thin seam. All memoization semantics live in
// ResultCache; ResultStore only decides *when* the in-memory state touches
// disk and exposes the lifetime totals the daemon stamps onto report events.
// A distributed deployment would swap this class for one backed by a shared
// cache service without touching the pipeline or the wire protocol (see
// ROADMAP: distribution).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "cache/result_cache.hpp"
#include "support/json.hpp"

namespace isex {

class ResultStore {
 public:
  /// Builds the shared cache and, when `snapshot_path` names an existing
  /// file, warm-starts the memo from it. Empty `snapshot_path` = in-memory
  /// only (no warm start, snapshot() is a no-op); snapshot writes are atomic
  /// (temp-file + rename), so a killed daemon never leaves a torn file. A
  /// snapshot that exists but fails to load (a torn write from a crashed
  /// process, version/algorithm drift, out-of-range values) is quarantined
  /// to `<snapshot_path>.corrupt` with a stderr warning and the store boots
  /// cold — a bad snapshot must not wedge the daemon in a boot loop, and the
  /// quarantined file keeps the evidence for the operator.
  explicit ResultStore(std::string snapshot_path = {});

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  /// The shared cache, in the form Explorer's shared-cache constructor
  /// wants. Every request-serving Explorer of the daemon wraps this one
  /// handle.
  const std::shared_ptr<ResultCache>& cache() const { return cache_; }

  /// Whether construction warm-started from an existing snapshot file.
  bool warm_started() const { return warm_started_; }

  /// Whether construction found an unloadable snapshot and quarantined it
  /// (test/operator introspection).
  bool quarantined() const { return quarantined_; }

  /// Marks the store dirty: some request may have added memo entries since
  /// the last snapshot. The daemon calls this once per completed request —
  /// cheaper and simpler than asking the cache whether anything changed.
  void note_activity();

  /// Writes the memo snapshot if the store is dirty and persistence is
  /// configured; returns whether a file was written. Safe to call from any
  /// thread and concurrently with in-flight requests (ResultCache::to_json
  /// snapshots under the cache lock; the write itself is atomic). The daemon
  /// calls this on idle and during shutdown drain.
  bool snapshot();

  /// Lifetime totals and persistence state, stamped into every `report`
  /// event next to the per-request deltas:
  ///   {entries, dfg_entries, hits, misses, cross_workload_hits,
  ///    requests_served, snapshots_written, warm_started}
  Json status() const;

 private:
  const std::string snapshot_path_;
  std::shared_ptr<ResultCache> cache_;
  bool warm_started_ = false;
  bool quarantined_ = false;

  mutable std::mutex mu_;  // guards dirty_/counters below (cache_ self-locks)
  bool dirty_ = false;
  std::uint64_t requests_served_ = 0;
  std::uint64_t snapshots_written_ = 0;
};

}  // namespace isex
