#include "core/multi_cut.hpp"

#include <algorithm>
#include <cmath>

#include "core/search_tables.hpp"
#include "support/cancellation.hpp"

namespace isex {

namespace {

constexpr std::int8_t kUndecided = -2;
constexpr std::int8_t kExcluded = -1;
// labels 0..M-1 denote cut membership.

// The (M+1)-ary walk needs per-label state (which cut does this successor
// belong to?), so unlike the single-cut engine it keeps a label array and
// per-node label reach masks rather than pure cut bitsets — but it runs on
// the same SearchTables flattening: CSR adjacency with pre-resolved data
// flags and input classification, per-node latency arrays, integer Cycles
// sums/suffix bounds, and the shared exact BudgetGate.
class MultiCutSearch {
 public:
  MultiCutSearch(const Dfg& g, const SearchTables& t, const Constraints& cons, int m,
                 const CutSearchOptions& options)
      : t_(t),
        cons_(cons),
        m_(m),
        // An externally shared gate overrides the per-search one, exactly as
        // in the single-cut runner.
        owned_gate_(options.budget != nullptr ? 0 : cons.search_budget),
        gate_(options.budget != nullptr ? *options.budget : owned_gate_),
        cancel_(options.cancel) {
    const std::size_t n = g.num_nodes();
    state_.assign(n, kUndecided);
    reach_mask_.assign(n, 0);
    cp_.assign(n, 0.0);
    feeds_.assign(static_cast<std::size_t>(m_) * n, 0);
    out_count_.assign(m_, 0);
    in_perm_.assign(m_, 0);
    in_tent_.assign(m_, 0);
    sw_sum_.assign(m_, 0);
    crit_.assign(m_, 0.0);
    cut_size_.assign(m_, 0);
    cuts_.assign(m_, BitVector(n));
  }

  MultiCutResult run() {
    walk(0);
    best_.stats = stats_;
    best_.stats.budget_exhausted = gate_.exhausted();
    best_.stats.cancelled = cancel_ != nullptr && cancel_->cancelled();
    return best_;
  }

 private:
  std::uint32_t succ_reach_mask(std::uint32_t n) const {
    std::uint32_t mask = 0;
    for (std::uint32_t j = t_.succ_off[n]; j < t_.succ_off[n + 1]; ++j) {
      const std::uint32_t s = t_.succ_node[j];
      mask |= reach_mask_[s];
      if (state_[s] >= 0) mask |= 1u << state_[s];
    }
    return mask;
  }

  static std::uint64_t close(std::uint64_t r, int m) {
    // Floyd–Warshall over the m×m boolean matrix packed row-major in r.
    for (int k = 0; k < m; ++k) {
      for (int i = 0; i < m; ++i) {
        if (!(r >> (i * kMaxCuts + k) & 1)) continue;
        for (int j = 0; j < m; ++j) {
          if (r >> (k * kMaxCuts + j) & 1) r |= std::uint64_t{1} << (i * kMaxCuts + j);
        }
      }
    }
    return r;
  }

  static bool cyclic(std::uint64_t r, int m) {
    for (int i = 0; i < m; ++i) {
      if (r >> (i * kMaxCuts + i) & 1) return true;
    }
    return false;
  }

  void walk(std::size_t k) {
    if (gate_.exhausted()) return;
    if (cancel_ != nullptr && cancel_->poll()) return;

    std::size_t auto_end = k;
    while (auto_end < t_.order.size() && !t_.candidate[auto_end]) ++auto_end;
    for (std::size_t j = k; j < auto_end; ++j) {
      const std::uint32_t n = t_.order[j];
      state_[n] = kExcluded;
      reach_mask_[n] = succ_reach_mask(n);
    }
    if (auto_end == t_.order.size()) {
      undo_autos(k, auto_end);
      return;
    }

    const std::uint32_t u = t_.order[auto_end];

    // Symmetry breaking: only open one new cut label at a time.
    int open = 0;
    while (open < m_ && cut_size_[open] > 0) ++open;
    const int max_label = std::min(m_ - 1, open);

    for (int c = 0; c <= max_label && !gate_.exhausted() &&
                    !(cancel_ != nullptr && cancel_->cancelled());
         ++c) {
      if (!gate_.consume()) break;
      ++stats_.cuts_considered;
      const Frame f = include(u, c);
      const bool out_ok = out_count_[c] <= cons_.max_outputs;
      const bool convex_ok = !quotient_cyclic_;
      if (out_ok && convex_ok) {
        ++stats_.passed_checks;
        bool inputs_ok = true;
        for (int d = 0; d < m_; ++d) {
          if (in_perm_[d] + in_tent_[d] > cons_.max_inputs) inputs_ok = false;
        }
        if (inputs_ok) {
          const double total = total_merit();
          if (total > best_.total_merit) record_best(total);
        }
      } else if (!out_ok) {
        ++stats_.failed_output;
      } else {
        ++stats_.failed_convex;
      }

      bool descend = true;
      if (cons_.enable_pruning && (!out_ok || !convex_ok)) descend = false;
      if (descend && cons_.prune_permanent_inputs) {
        for (int d = 0; d < m_; ++d) {
          if (in_perm_[d] > cons_.max_inputs) {
            ++stats_.pruned_inputs;
            descend = false;
            break;
          }
        }
      }
      if (descend && cons_.branch_and_bound) {
        double bound = t_.exec_freq * static_cast<double>(t_.sw_suffix[auto_end + 1]);
        for (int d = 0; d < m_; ++d) {
          bound += t_.exec_freq * static_cast<double>(sw_sum_[d] - hw_cycles(d));
        }
        if (bound <= best_.total_merit) {
          ++stats_.pruned_bound;
          descend = false;
        }
      }
      if (descend) walk(auto_end + 1);
      undo_include(u, c, f);
    }

    // 0-branch: exclude u.
    if (!gate_.exhausted() && !(cancel_ != nullptr && cancel_->cancelled())) {
      state_[u] = kExcluded;
      reach_mask_[u] = succ_reach_mask(u);
      walk(auto_end + 1);
      state_[u] = kUndecided;
    }

    undo_autos(k, auto_end);
  }

  void undo_autos(std::size_t from, std::size_t to) {
    for (std::size_t j = to; j-- > from;) state_[t_.order[j]] = kUndecided;
  }

  struct Frame {
    std::uint64_t old_reach = 0;
    double old_crit = 0.0;
    bool old_cyclic = false;
    bool is_output = false;
    int tent_removed = 0;
  };

  Frame include(const std::uint32_t u, const int c) {
    Frame f;
    state_[u] = static_cast<std::int8_t>(c);
    cuts_[c].set(u);
    ++cut_size_[c];
    sw_sum_[c] += t_.sw[u];

    // Quotient edges introduced by u's outgoing paths.
    f.old_reach = quotient_reach_;
    f.old_cyclic = quotient_cyclic_;
    std::uint64_t r = quotient_reach_;
    std::uint32_t mask = 0;
    for (std::uint32_t j = t_.succ_off[u]; j < t_.succ_off[u + 1]; ++j) {
      const std::uint32_t s = t_.succ_node[j];
      if (state_[s] >= 0 && state_[s] != c) {
        mask |= 1u << state_[s];
      } else if (state_[s] == kExcluded) {
        mask |= reach_mask_[s];  // paths through plain nodes
      }
    }
    for (int d = 0; d < m_; ++d) {
      if (mask >> d & 1) r |= std::uint64_t{1} << (c * kMaxCuts + d);
    }
    if (r != quotient_reach_) {
      r = close(r, m_);
      quotient_reach_ = r;
      quotient_cyclic_ = quotient_cyclic_ || cyclic(r, m_);
    }
    reach_mask_[u] = (1u << c) | succ_reach_mask(u);

    for (std::uint32_t j = t_.succ_off[u]; j < t_.succ_off[u + 1]; ++j) {
      if (!t_.succ_data[j]) continue;
      if (state_[t_.succ_node[j]] != c) {
        f.is_output = true;
        break;
      }
    }
    if (f.is_output) ++out_count_[c];

    for (std::uint32_t j = t_.in_off[u]; j < t_.in_off[u + 1]; ++j) {
      if (++feeds_[feed_index(c, t_.in_node[j])] == 1) {
        t_.in_perm[j] ? ++in_perm_[c] : ++in_tent_[c];
      }
    }
    if (feeds_[feed_index(c, u)] > 0) {
      --in_tent_[c];
      f.tent_removed = 1;
    }

    double longest = 0.0;
    for (std::uint32_t j = t_.succ_off[u]; j < t_.succ_off[u + 1]; ++j) {
      const std::uint32_t s = t_.succ_node[j];
      if (t_.succ_data[j] && state_[s] == c) {
        longest = std::max(longest, cp_[s]);
      }
    }
    cp_[u] = longest + t_.hw[u];
    f.old_crit = crit_[c];
    crit_[c] = std::max(crit_[c], cp_[u]);
    return f;
  }

  void undo_include(const std::uint32_t u, const int c, const Frame& f) {
    crit_[c] = f.old_crit;
    if (f.tent_removed) ++in_tent_[c];
    for (std::uint32_t j = t_.in_off[u]; j < t_.in_off[u + 1]; ++j) {
      if (--feeds_[feed_index(c, t_.in_node[j])] == 0) {
        t_.in_perm[j] ? --in_perm_[c] : --in_tent_[c];
      }
    }
    if (f.is_output) --out_count_[c];
    quotient_reach_ = f.old_reach;
    quotient_cyclic_ = f.old_cyclic;
    reach_mask_[u] = 0;
    sw_sum_[c] -= t_.sw[u];
    --cut_size_[c];
    cuts_[c].reset(u);
    state_[u] = kUndecided;
  }

  /// Rounded-up hardware cycles of label c, 0 for an empty cut — one Cycles
  /// value, so the bound and merit arithmetic below cannot diverge.
  Cycles hw_cycles(int c) const {
    if (cut_size_[c] == 0) return 0;
    return static_cast<Cycles>(std::max(1.0, std::ceil(crit_[c] - 1e-9)));
  }

  double total_merit() const {
    double total = 0.0;
    for (int c = 0; c < m_; ++c) {
      if (cut_size_[c] == 0) continue;
      total += t_.exec_freq * static_cast<double>(sw_sum_[c] - hw_cycles(c));
    }
    return total;
  }

  void record_best(double total) {
    best_.total_merit = total;
    best_.cuts.clear();
    std::vector<std::pair<double, int>> ranked;
    for (int c = 0; c < m_; ++c) {
      if (cut_size_[c] == 0) continue;
      ranked.emplace_back(t_.exec_freq * static_cast<double>(sw_sum_[c] - hw_cycles(c)), c);
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (const auto& [merit, c] : ranked) best_.cuts.push_back(cuts_[c]);
    ++stats_.best_updates;
  }

  std::size_t feed_index(int c, std::uint32_t p) const {
    return static_cast<std::size_t>(c) * t_.num_nodes + p;
  }

  const SearchTables& t_;
  const Constraints cons_;
  const int m_;
  BudgetGate owned_gate_;
  BudgetGate& gate_;
  CancelToken* cancel_;

  std::vector<std::int8_t> state_;
  std::vector<std::uint32_t> reach_mask_;
  std::vector<double> cp_;
  std::vector<std::int32_t> feeds_;
  std::vector<int> out_count_, in_perm_, in_tent_, cut_size_;
  std::vector<Cycles> sw_sum_;
  std::vector<double> crit_;
  std::vector<BitVector> cuts_;

  std::uint64_t quotient_reach_ = 0;
  bool quotient_cyclic_ = false;

  EnumerationStats stats_;
  MultiCutResult best_;
};

}  // namespace

MultiCutResult find_best_cuts(const Dfg& g, const LatencyModel& latency,
                              const Constraints& constraints, int num_cuts,
                              const CutSearchOptions& options) {
  ISEX_CHECK(g.finalized(), "find_best_cuts: graph not finalized");
  ISEX_CHECK(num_cuts >= 1 && num_cuts <= kMaxCuts, "num_cuts must be in [1, 8]");
  const SearchTables tables = SearchTables::build(g, latency);
  MultiCutSearch search(g, tables, constraints, num_cuts, options);
  return search.run();
}

MultiCutResult find_best_cuts(const Dfg& g, const LatencyModel& latency,
                              const Constraints& constraints, int num_cuts) {
  return find_best_cuts(g, latency, constraints, num_cuts, CutSearchOptions{});
}

}  // namespace isex
