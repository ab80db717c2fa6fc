#include "service/result_store.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "support/assert.hpp"
#include "support/fault_injection.hpp"

namespace isex {

ResultStore::ResultStore(std::string snapshot_path)
    : snapshot_path_(std::move(snapshot_path)), cache_(std::make_shared<ResultCache>()) {
  if (!snapshot_path_.empty()) {
    try {
      warm_started_ = cache_->load_file(snapshot_path_);
    } catch (const std::exception& e) {
      // An existing-but-unloadable snapshot (torn write from a killed
      // process that bypassed save_file's atomic rename, version/algorithm
      // drift) must not wedge the daemon in a boot loop. Quarantine it so
      // the operator keeps the evidence, warn, and boot cold.
      const std::string quarantine = snapshot_path_ + ".corrupt";
      std::error_code ec;
      std::filesystem::rename(snapshot_path_, quarantine, ec);
      if (ec) {
        std::fprintf(stderr,
                     "isexd: warning: cache snapshot '%s' failed to load (%s) and could "
                     "not be quarantined (%s); starting cold\n",
                     snapshot_path_.c_str(), e.what(), ec.message().c_str());
      } else {
        std::fprintf(stderr,
                     "isexd: warning: cache snapshot '%s' failed to load (%s); "
                     "quarantined to '%s', starting cold\n",
                     snapshot_path_.c_str(), e.what(), quarantine.c_str());
      }
      quarantined_ = true;
      warm_started_ = false;
    }
  }
}

void ResultStore::note_activity() {
  std::lock_guard<std::mutex> lock(mu_);
  dirty_ = true;
  ++requests_served_;
}

bool ResultStore::snapshot() {
  if (snapshot_path_.empty()) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!dirty_) return false;
    // Clear before writing: a request that lands mid-save re-dirties the
    // store and the *next* snapshot picks it up. (The alternative — clear
    // after — would drop that request's entries from persistence until an
    // unrelated later request re-dirties.)
    dirty_ = false;
  }
  if (FaultInjector::instance().should_fail("snapshot-write")) {
    // Simulate the one failure save_file's temp-then-rename cannot produce
    // on its own: a torn file at the final path, as left by a process killed
    // mid-write on a filesystem without atomic rename. The quarantine path
    // in the constructor is the regression target.
    std::lock_guard<std::mutex> lock(mu_);
    dirty_ = true;  // nothing was persisted; a later snapshot must retry
    std::ofstream torn(snapshot_path_, std::ios::trunc);
    torn << "{\"isex_cache\":";  // truncated mid-document, unparseable
    torn.flush();
    throw Error("injected fault: snapshot-write (torn snapshot left at '" +
                snapshot_path_ + "')");
  }
  try {
    cache_->save_file(snapshot_path_);
  } catch (...) {
    // Disk trouble: keep the dirty flag so the next idle tick retries
    // instead of silently dropping this interval's entries.
    std::lock_guard<std::mutex> lock(mu_);
    dirty_ = true;
    throw;
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++snapshots_written_;
  return true;
}

Json ResultStore::status() const {
  const CacheCounters totals = cache_->counters();
  Json j = Json::object();
  j.set("entries", static_cast<std::uint64_t>(cache_->num_entries()));
  j.set("dfg_entries", static_cast<std::uint64_t>(cache_->num_dfg_entries()));
  j.set("hits", totals.hits);
  j.set("misses", totals.misses);
  j.set("dfg_hits", totals.dfg_hits);
  j.set("dfg_misses", totals.dfg_misses);
  j.set("cross_workload_hits", totals.cross_workload_hits);
  std::lock_guard<std::mutex> lock(mu_);
  j.set("requests_served", requests_served_);
  j.set("snapshots_written", snapshots_written_);
  j.set("warm_started", warm_started_);
  return j;
}

}  // namespace isex
