#include "harness.hpp"

#include <sched.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <numeric>
#include <thread>
#include <unordered_map>

namespace perfbench {

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
}

double peak_rss_mb() {
  // VmHWM belongs to this process image; getrusage's ru_maxrss would also
  // carry the high-water mark of the process that forked and exec'd us.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

// --- Tracer ------------------------------------------------------------------

std::uint64_t Tracer::push_locked(Span s) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return 0;
  }
  s.id = spans_.size() + 1;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::uint64_t Tracer::open(const std::string& name, std::uint64_t parent,
                           const std::string& request) {
  if (!enabled_) return 0;
  Span s;
  s.parent = parent;
  s.name = name;
  s.request = request;
  s.start_us = us(Clock::now());
  std::lock_guard lock(mu_);
  return push_locked(std::move(s));
}

void Tracer::close(std::uint64_t id) {
  if (!enabled_ || id == 0) return;
  const double now = us(Clock::now());
  std::lock_guard lock(mu_);
  spans_[id - 1].end_us = now;
}

std::uint64_t Tracer::record(const std::string& name, Clock::time_point start,
                             Clock::time_point end, std::uint64_t parent,
                             const std::string& request) {
  if (!enabled_) return 0;
  Span s;
  s.parent = parent;
  s.name = name;
  s.request = request;
  s.start_us = us(start);
  s.end_us = us(end);
  std::lock_guard lock(mu_);
  return push_locked(std::move(s));
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard lock(mu_);
  return dropped_;
}

isex::Json Tracer::self_times_json() const {
  std::lock_guard lock(mu_);
  // Child intervals per parent, merged so overlapping children (parallel
  // work) are not subtracted twice.
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans_) {
    if (s.parent != 0 && s.end_us >= 0) children[s.parent].emplace_back(s.start_us, s.end_us);
  }
  std::map<std::string, double> self_ms;
  for (const Span& s : spans_) {
    if (s.end_us < 0) continue;
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur_lo = iv.front().first, cur_hi = iv.front().second;
      for (std::size_t i = 1; i < iv.size(); ++i) {
        if (iv[i].first > cur_hi) {
          covered += cur_hi - cur_lo;
          cur_lo = iv[i].first;
          cur_hi = iv[i].second;
        } else {
          cur_hi = std::max(cur_hi, iv[i].second);
        }
      }
      covered += cur_hi - cur_lo;
    }
    self_ms[s.name] += std::max(0.0, s.end_us - s.start_us - covered) / 1000.0;
  }
  isex::Json out = isex::Json::object();
  for (const auto& [name, ms] : self_ms) out.set(name, ms);
  return out;
}

isex::Json Tracer::to_json() const {
  std::lock_guard lock(mu_);
  isex::Json out = isex::Json::array();
  for (const Span& s : spans_) {
    isex::Json j = isex::Json::object();
    j.set("id", s.id);
    j.set("parent", s.parent);
    j.set("name", s.name);
    if (!s.request.empty()) j.set("request", s.request);
    j.set("start_us", s.start_us);
    j.set("end_us", s.end_us);
    out.push_back(std::move(j));
  }
  return out;
}

// --- TimingExecutor ----------------------------------------------------------

namespace {
thread_local int t_level = 0;

/// Marks the current thread as running an item of a level-`level` call.
class LevelGuard {
 public:
  explicit LevelGuard(int level) : saved_(t_level) { t_level = level + 1; }
  ~LevelGuard() { t_level = saved_; }
  LevelGuard(const LevelGuard&) = delete;
  LevelGuard& operator=(const LevelGuard&) = delete;

 private:
  int saved_;
};
}  // namespace

void TimingExecutor::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  const int level = t_level;
  std::mutex items_mu;
  std::vector<double> item_ms(n, 0.0);
  std::unordered_map<std::thread::id, double> busy;
  const auto start = Clock::now();
  inner_.parallel_for(n, [&](std::size_t i) {
    LevelGuard guard(level);
    const auto t0 = Clock::now();
    fn(i);
    const double ms = ms_since(t0);
    std::lock_guard lock(items_mu);
    item_ms[i] = ms;
    busy[std::this_thread::get_id()] += ms;
  });
  Call call;
  call.level = level;
  call.wall_ms = ms_since(start);
  call.item_ms = std::move(item_ms);
  double total = 0.0;
  for (const auto& [id, ms] : busy) {
    call.busiest_ms = std::max(call.busiest_ms, ms);
    total += ms;
  }
  call.mean_thread_ms = total / std::max(1, inner_.num_threads());
  std::lock_guard lock(mu_);
  calls_.push_back(std::move(call));
}

std::vector<TimingExecutor::Call> TimingExecutor::calls() const {
  std::lock_guard lock(mu_);
  return calls_;
}

double TimingExecutor::level0_wall_ms() const {
  std::lock_guard lock(mu_);
  double ms = 0.0;
  for (const Call& c : calls_) {
    if (c.level == 0) ms += c.wall_ms;
  }
  return ms;
}

// --- CpuRotation -------------------------------------------------------------

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
    const auto* bytes = reinterpret_cast<const unsigned char*>(&set);
    original_.assign(bytes, bytes + sizeof set);
  }
}

CpuRotation::~CpuRotation() { restore(); }

void CpuRotation::restore() {
  if (original_.empty()) return;
  cpu_set_t set;
  std::memcpy(&set, original_.data(), sizeof set);
  sched_setaffinity(0, sizeof set, &set);
}

void CpuRotation::pin(std::size_t slot) {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[slot % cpus_.size()], &set);
  sched_setaffinity(0, sizeof set, &set);
}

std::vector<double> rotated_setup_s(CpuRotation& cpus, int rounds,
                                    const std::function<void()>& setup) {
  const std::size_t n = std::max<std::size_t>(1, cpus.size());
  std::vector<double> samples;
  for (std::size_t c = 0; c < n; ++c) {
    cpus.pin(c);
    for (int r = 0; r < rounds; ++r) {
      const auto t0 = Clock::now();
      setup();
      samples.push_back(ms_since(t0) / 1e3);
    }
  }
  cpus.restore();
  return samples;
}

// --- Metrics / Outcome -------------------------------------------------------

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

bool Metrics::has(const std::string& name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.name == name; });
}

double Metrics::get(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.value;
  }
  return 0.0;
}

isex::Json Metrics::to_json() const {
  isex::Json out = isex::Json::object();
  for (const Entry& e : entries_) {
    isex::Json m = isex::Json::object();
    m.set("value", e.value);
    m.set("unit", e.unit);
    out.set(e.name, std::move(m));
  }
  return out;
}

void Outcome::fail(const std::string& what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

void check_warm_select(Outcome& out, std::uint64_t warm_misses) {
  ++out.attempted;
  if (warm_misses != 0) {
    out.fail("warm select missed the memo " + std::to_string(warm_misses) + " times");
  }
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"text.load_ms", "ms"},
      {"text.bytes", "bytes"},
      {"text.mb_per_s", "MB/s"},
      {"extract.ms", "ms"},
      {"extract.blocks", "count"},
      {"extract.nodes", "count"},
      {"cache.hits", "count"},
      {"cache.misses", "count"},
      {"cache.hit_ratio", "ratio"},
      {"cache.dfg_hit_ratio", "ratio"},
      {"cache.evictions", "count"},
      {"cache.fingerprint_ms", "ms"},
      {"single_cut.ms", "ms"},
      {"single_cut.calls", "count"},
      {"single_cut.cuts", "count"},
      {"single_cut.mcuts_per_s", "Mcuts/s"},
      {"single_cut.tasks", "count"},
      {"single_cut.task_ms_max", "ms"},
      {"single_cut.task_ms_mean", "ms"},
      {"single_cut.task_imbalance", "ratio"},
      {"multi_cut.ms", "ms"},
      {"multi_cut.calls", "count"},
      {"multi_cut.cuts", "count"},
      {"multi_cut.mcuts_per_s", "Mcuts/s"},
      {"multi_cut.budget_exhausted", "count"},
      {"select.iterative_ms", "ms"},
      {"select.optimal_ms", "ms"},
      {"select.clubbing_ms", "ms"},
      {"select.maxmiso_ms", "ms"},
      {"select.joint_iterative_ms", "ms"},
      {"emit.ms", "ms"},
      {"emit.verify_ms", "ms"},
      {"emit.artifacts", "count"},
      {"emit.bytes", "bytes"},
      {"explorer.overhead_ms", "ms"},
      {"protocol.encode_us", "us"},
      {"protocol.decode_us", "us"},
      {"protocol.report_bytes", "bytes"},
      {"service.ingress_ms", "ms"},
      {"service.queue_ms", "ms"},
      {"service.run_ms", "ms"},
      {"service.egress_ms", "ms"},
      {"admission.dedup_ratio", "ratio"},
      {"admission.batch_size_mean", "count"},
      {"admission.queue_depth_mean", "count"},
      {"service.store_hit_ratio", "ratio"},
      {"trace.untraced_pass_s", "s"},
      {"trace.traced_pass_s", "s"},
  };
  return units;
}

void complete_layer_metrics(Metrics& m) {
  for (const auto& [name, unit] : layer_metric_units()) {
    if (!m.has(name)) m.set(name, 0.0, unit);
  }
}

void set_end_to_end(Outcome& out, const std::vector<double>& setup_s, double sweep_s,
                    double warm_sweep_s, std::size_t requests_per_pass,
                    const std::vector<double>& latency_ms, double rss_mb) {
  out.metrics.set("setup_s", median(setup_s), "s");
  out.metrics.set("sweep_s", sweep_s, "s");
  out.metrics.set("warm_sweep_s", warm_sweep_s, "s");
  out.metrics.set("rps", sweep_s > 0 ? static_cast<double>(requests_per_pass) / sweep_s : 0.0,
                  "1/s");
  out.metrics.set("latency_p50_ms", quantile(latency_ms, 0.50), "ms");
  out.metrics.set("latency_p99_ms", quantile(latency_ms, 0.99), "ms");
  out.metrics.set("peak_rss_mb", rss_mb, "MB");
  isex::Json setup = isex::Json::array();
  for (const double x : setup_s) setup.push_back(x);
  out.notes.set("setup_s_samples", std::move(setup));
  out.notes.set("latency_samples", static_cast<std::uint64_t>(latency_ms.size()));
}

}  // namespace perfbench
