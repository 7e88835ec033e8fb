#include "core/matching_mpc.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/central.h"
#include "fault/checkpoint.h"
#include "fault/fault_plan.h"
#include "graph/active_arcs.h"
#include "graph/active_set.h"
#include "graph/residual.h"
#include "mpc/primitives.h"
#include "util/memory.h"
#include "util/rng.h"

namespace mpcg {

namespace {

using mpc::Word;

constexpr std::uint32_t kActive = MatchingMpcResult::kActive;

// Residual-proportional driver: every per-phase loop runs over the active
// frontier (ActiveSet) instead of 0..n, per-phase scratch is sized to the
// phase's active count via the dense remap and reused across phases, and
// the home-side load sums (y_old, load_of) are cached with dirty-bit
// bookkeeping. Per-phase *edge* work rides ActiveArcs, the second-level
// compaction that squeezes frozen neighbors out of the arc lists: the
// distribute loop iterates only frontier-internal arcs, the y_old rescan
// iterates only the frozen complement, and the departure walks (the
// announce batches) touch only still-active neighbors. Thresholds are
// drawn through ThresholdBatch's cached per-vertex first-level mix — and
// only for floor-clearing candidates — instead of scattered two-level
// hashes. Every recomputation keeps the ascending neighbor order of the
// pre-port alive-arc scan (the frozen scan performs exactly the additions
// the old `if (frozen)` filter performed), so all floating-point sums keep
// their summation order and outputs/freeze times/Metrics are bit-identical
// (see DESIGN.md, "ActiveArcs & batched thresholds"; pinned by
// tests/matching_regression_test.cpp).
class MatchingMpcRun {
 public:
  MatchingMpcRun(const Graph& g, const MatchingMpcOptions& options)
      : g_(g), o_(options), n_(g.num_vertices()), residual_(g), active_(n_),
        active_arcs_(residual_, active_),
        thresholds_(options.threshold_seed, options.eps,
                    options.use_random_thresholds, n_) {
    if (!(o_.eps > 0.0) || o_.eps > 0.5) {
      throw std::invalid_argument("matching_mpc: eps must be in (0, 1/2]");
    }
    words_ = o_.words_per_machine != 0 ? o_.words_per_machine
                                       : 8 * std::max<std::size_t>(n_, 64);
    // The cluster hosts both the per-vertex home shards and the per-phase
    // simulation machines (up to sqrt(n) of them).
    const std::size_t for_shards =
        (4 * g.num_edges() + words_ - 1) / words_;
    machines_ = std::max<std::size_t>(
        {2, for_shards,
         static_cast<std::size_t>(std::ceil(std::sqrt(
             static_cast<double>(std::max<std::size_t>(n_, 4))))) });

    // Grow the cluster until the hash-balanced adjacency shards fit (see
    // mis_mpc.cpp for the same auto-sizing rule).
    const std::size_t fixed_words = n_ / 16 + 1;
    std::vector<std::size_t> shard_words;
    for (;;) {
      shard_words.assign(machines_, 0);
      home_.resize(n_);
      for (VertexId v = 0; v < n_; ++v) {
        home_[v] = static_cast<std::uint32_t>(mix64(o_.seed, v, 0x70e) %
                                              machines_);
        shard_words[home_[v]] += 1 + g.degree(v);
      }
      const std::size_t max_shard =
          shard_words.empty()
              ? 0
              : *std::max_element(shard_words.begin(), shard_words.end());
      if (o_.words_per_machine != 0 || max_shard + fixed_words <= words_ ||
          machines_ >= 2 * g.num_edges() + 2) {
        break;
      }
      machines_ *= 2;
    }
    mpc::Config cfg{machines_, words_, o_.strict};
    cfg.threads = o_.threads;
    cfg.integrity = o_.integrity;
    cfg.audit = o_.audit;
    cfg.scrub_interval = o_.scrub_interval;
    engine_.emplace(cfg);
    const bool durable = o_.durable.enabled();
    // The scope is the configuration signature (see mis_mpc.cpp): a
    // checkpoint written by any differently-shaped run reads as "no
    // checkpoint" and resume starts fresh. The real-valued knobs enter
    // bit-exactly — any drift in eps or beta changes every weight.
    engine_->set_durability(
        o_.durable,
        "matching:" + std::to_string(n_) + ":" +
            std::to_string(g.num_edges()) + ":" + std::to_string(machines_) +
            ":" + std::to_string(words_) + ":" + std::to_string(o_.seed) +
            ":" + std::to_string(o_.threshold_seed) + ":" +
            std::to_string(std::bit_cast<std::uint64_t>(o_.eps)) + ":" +
            std::to_string(std::bit_cast<std::uint64_t>(o_.beta)) + ":" +
            std::to_string(o_.tail_degree_switch) + ":" +
            std::to_string(static_cast<int>(o_.paper_iteration_schedule)) +
            ":" + std::to_string(static_cast<int>(o_.use_random_thresholds)));
    for (std::size_t i = 0; i < machines_; ++i) {
      engine_->note_storage(i, shard_words[i] + fixed_words);
    }
    const bool plan_active =
        o_.fault_plan != nullptr && !o_.fault_plan->empty();
    if (plan_active || durable) {
      if (o_.durable.generations != 0) {
        registry_.emplace(o_.durable.generations);
      } else {
        registry_.emplace();
      }
      register_checkpoint_state();
      // The loop provider exists only for durability: keeping it out of
      // plan-only runs keeps their in-memory checkpoint accounting
      // (Metrics::checkpoint_bytes) exactly as the fault tests pinned it.
      if (durable) register_loop_state();
      engine_->set_fault_plan(plan_active ? o_.fault_plan : nullptr,
                              &*registry_, o_.fault_recovery);
    }

    w0_ = (1.0 - 2.0 * o_.eps) / static_cast<double>(std::max<std::size_t>(n_, 1));
    weight_cache_.push_back(w0_);
    phase_rng_ = Rng(mix64(o_.seed, 0x9a5e, 2));
    freeze_at_.assign(n_, kActive);
    freeze16_.assign(n_, kFrozen16Max);
    freeze8_.assign(n_, kFrozen8Max);
    removed_.assign(n_, 0);

    // Dirty-load bookkeeping state. With nobody frozen yet, every y_old is
    // the empty sum (exactly 0.0), so the y_old caches start clean; the
    // load caches start dirty (never computed). The alive-active-neighbor
    // counts live in ActiveArcs (active_degree).
    y_old_cache_.assign(n_, 0.0);
    load_cache_.assign(n_, 0.0);
    load_stamp_.assign(n_, 0);
    dirty_.assign(n_, kLoadDirty);
    local_adj_.emplace(n_);
    announce_parts_.resize(machines_);
    phase_machine_.resize(n_);
    phase_machine8_.resize(n_);

    // Flat neighbor-id CSR: the load rescans and the departure walks only
    // ever read neighbor ids, so give them a 4-byte stream instead of the
    // 8-byte Arc stream (half the memory traffic on the hottest scans).
    // Valid as the alive view of any vertex that has not lost a neighbor
    // — the overwhelmingly common case, since only heavy removals kill.
    nbr_off_.resize(n_ + 1);
    std::size_t cursor = 0;
    for (VertexId v = 0; v < n_; ++v) {
      nbr_off_[v] = cursor;
      cursor += g.degree(v);
    }
    nbr_off_[n_] = cursor;
    nbr_ids_ = std::make_unique_for_overwrite<VertexId[]>(cursor);
    advise_huge_pages(nbr_ids_.get(), cursor * sizeof(VertexId));
    for (VertexId v = 0; v < n_; ++v) {
      std::size_t write = nbr_off_[v];
      for (const Arc& a : g.arcs(v)) nbr_ids_[write++] = a.to;
    }
  }

  MatchingMpcResult run() {
    result_.freeze_iteration.assign(n_, kActive);
    result_.removed_heavy.assign(n_, 0);
    result_.x.assign(g_.num_edges(), 0.0);
    if (g_.num_edges() == 0) {
      if (engine_) result_.metrics = engine_->metrics();
      return std::move(result_);
    }

    // Resume reinstates every provider (progress, freeze times, removals,
    // y_old, frontier, loop cursor) plus the engine state, then rebuilds
    // the derived frontier bookkeeping; a fresh run starts the schedule.
    if (engine_->try_resume()) {
      rebuild_after_resume();
    } else {
      d_ = static_cast<double>(n_);
    }

    while (d_ > static_cast<double>(o_.tail_degree_switch)) {
      // Safe point: provider state is self-consistent and the message
      // plane is quiescent at the phase boundary, so this is where
      // durable generations persist (and where a resumed process
      // re-enters).
      engine_->checkpoint_boundary();
      run_phase(d_, phase_rng_, result_);
      d_ *= std::pow(1.0 - o_.eps,
                     static_cast<double>(last_phase_iterations_));
      ++result_.phases;
    }

    run_tail(result_);

    // Outputs: weights from freeze times; cover = frozen + removed. The
    // 16-bit freeze mirror halves the scattered endpoint gathers (exact:
    // saturated entries min() to t_ just as their 32-bit values would).
    (void)weight_at(t_);
    // The same sweep that derives x can collect its support (weights are
    // strictly positive, so support == the alive-edge set, whose size the
    // residual graph maintains). Opt-in: the store per surviving edge is
    // measurable at bench scale, so only rounding callers pay it.
    const bool collect = o_.collect_support;
    if (collect) result_.support.reserve(residual_.alive_edge_count());
    const std::span<const Edge> edges = g_.edges();
    if (t_ < kFrozen16Max) {
      const std::uint16_t* f16 = freeze16_.data();
      const auto t16 = static_cast<std::uint16_t>(t_);
      for (EdgeId e = 0; e < edges.size(); ++e) {
        if (e + 16 < edges.size()) {
          __builtin_prefetch(&f16[edges[e + 16].v]);
        }
        const Edge ed = edges[e];
        if (removed_[ed.u] || removed_[ed.v]) continue;  // x stays 0
        const std::uint16_t tf = std::min<std::uint16_t>(
            {f16[ed.u], f16[ed.v], t16});
        result_.x[e] = weight_cache_[tf];
        if (collect) result_.support.push_back(e);
      }
    } else {
      for (EdgeId e = 0; e < edges.size(); ++e) {
        const Edge ed = edges[e];
        if (removed_[ed.u] || removed_[ed.v]) continue;  // x stays 0
        const std::uint64_t tf = std::min<std::uint64_t>(
            {freeze_at_[ed.u], freeze_at_[ed.v], t_});
        result_.x[e] = weight_at(tf);
        if (collect) result_.support.push_back(e);
      }
    }
    for (VertexId v = 0; v < n_; ++v) {
      if (removed_[v]) {
        result_.cover.push_back(v);
        result_.removed_heavy[v] = 1;
      } else if (freeze_at_[v] != kActive) {
        result_.cover.push_back(v);
      }
      result_.freeze_iteration[v] = freeze_at_[v];
    }
    result_.total_iterations = t_;
    result_.metrics = engine_->metrics();
    return std::move(result_);
  }

 private:
  /// Dirty bits per vertex: set both when a neighbor's freeze/removal state
  /// changes, cleared individually by the corresponding refresh.
  static constexpr std::uint8_t kYOldDirty = 1;
  static constexpr std::uint8_t kLoadDirty = 2;
  static constexpr std::uint8_t kBothDirty = kYOldDirty | kLoadDirty;
  /// Saturation values of the narrow freeze-time mirrors (see freeze16_).
  static constexpr std::uint16_t kFrozen16Max = 0xffff;
  static constexpr std::uint8_t kFrozen8Max = 0xff;
  /// Relative inflation applied to every provable-skip bound. The bounds
  /// compare against sums of up to max-degree non-negative terms, whose
  /// floating-point evaluations drift from the exact values by at most
  /// ~(terms * 2^-52) relatively on either side; 1e-5 dominates several
  /// times that for any degree a 32-bit vertex id permits, while costing
  /// nothing against the ~0.1-wide gaps the bounds are compared across.
  static constexpr double kBoundSlack = 1e-5;

  /// Single point of truth for freeze-time updates: keeps the narrow
  /// mirrors in sync (saturating — kActive and any iteration at or above
  /// the mirror's cap both store the cap, which min()s correctly against
  /// any fvn below it).
  void set_freeze(VertexId v, std::uint32_t tf) noexcept {
    freeze_at_[v] = tf;
    freeze16_[v] = static_cast<std::uint16_t>(
        std::min<std::uint32_t>(tf, kFrozen16Max));
    freeze8_[v] =
        static_cast<std::uint8_t>(std::min<std::uint32_t>(tf, kFrozen8Max));
  }

  /// Registers the driver's durable per-round state with the checkpoint
  /// registry the engine captures/restores around injected faults. Capture
  /// and restore happen inside one Engine::exchange() call, so everything
  /// serialized here is quiescent; derived state (freeze16_/freeze8_
  /// mirrors, ActiveArcs partitions, dirty-load caches) is either rebuilt
  /// on restore (set_freeze) or stays valid because its inputs round-trip
  /// bit-exactly.
  void register_checkpoint_state() {
    auto& reg = *registry_;
    // Global iteration counter — doubles as the ThresholdBatch cursor
    // (threshold draws are a stateless function of (threshold_seed, v, t)).
    reg.register_state(
        "progress",
        [this](std::vector<Word>& out) { out.push_back(t_); },
        [this](fault::SectionReader& in) { t_ = in.take(); });
    // Freeze iterations; restore routes through set_freeze so the narrow
    // mirrors stay in sync.
    reg.register_state(
        "freeze",
        [this](std::vector<Word>& out) {
          const std::size_t base = out.size();
          out.resize(base + n_);
          for (VertexId v = 0; v < n_; ++v) out[base + v] = freeze_at_[v];
        },
        [this](fault::SectionReader& in) {
          const auto w = in.take_span(n_);
          for (VertexId v = 0; v < n_; ++v) {
            set_freeze(v, static_cast<std::uint32_t>(w[v]));
          }
        });
    // Heavy-removal flags, bit-packed.
    reg.register_state(
        "removed",
        [this](std::vector<Word>& out) {
          const std::size_t base = out.size();
          out.resize(base + (n_ + 63) / 64, 0);
          for (VertexId v = 0; v < n_; ++v) {
            if (removed_[v]) out[base + v / 64] |= Word{1} << (v % 64);
          }
        },
        [this](fault::SectionReader& in) {
          const auto w = in.take_span((n_ + 63) / 64);
          std::vector<VertexId> to_kill;
          for (VertexId v = 0; v < n_; ++v) {
            removed_[v] =
                static_cast<char>((w[v / 64] >> (v % 64)) & Word{1});
            if (removed_[v] && residual_.alive(v)) to_kill.push_back(v);
          }
          // Same-round in-process restores find the kills already applied
          // (aliveness only shrinks, and the capture happened this round);
          // a fresh-process resume replays them here.
          if (!to_kill.empty()) residual_.kill_batch(to_kill);
        });
    // Home-side frozen-contribution sums (the y_old dirty-load cache's
    // authoritative values), bit-cast so the round-trip is exact.
    reg.register_state(
        "y-old",
        [this](std::vector<Word>& out) {
          static_assert(sizeof(double) == sizeof(Word));
          const std::size_t base = out.size();
          out.resize(base + n_);
          std::memcpy(out.data() + base, y_old_cache_.data(),
                      n_ * sizeof(Word));
        },
        [this](fault::SectionReader& in) {
          const auto w = in.take_span(n_);
          for (VertexId v = 0; v < n_; ++v) {
            y_old_cache_[v] = std::bit_cast<double>(w[v]);
          }
        });
    // Active-frontier membership, bit-packed. ActiveSet only shrinks, so
    // restore reconciles by deactivating any vertex active now but not in
    // the checkpoint (the reverse cannot happen at a same-round restore).
    reg.register_state(
        "active-frontier",
        [this](std::vector<Word>& out) {
          const std::size_t base = out.size();
          out.resize(base + (n_ + 63) / 64, 0);
          for (VertexId v = 0; v < n_; ++v) {
            if (active_.active(v)) out[base + v / 64] |= Word{1} << (v % 64);
          }
        },
        [this](fault::SectionReader& in) {
          const auto w = in.take_span((n_ + 63) / 64);
          for (VertexId v = 0; v < n_; ++v) {
            const bool want = ((w[v / 64] >> (v % 64)) & Word{1}) != 0;
            if (!want && active_.active(v)) active_.deactivate(v);
          }
        });
    // Previous phase-boundary freezes (still eligible for heavy removal).
    reg.register_state(
        "boundary",
        [this](std::vector<Word>& out) {
          out.push_back(boundary_frozen_.size());
          for (const VertexId v : boundary_frozen_) out.push_back(v);
        },
        [this](fault::SectionReader& in) {
          const auto w = in.take_counted();
          boundary_frozen_.assign(w.begin(), w.end());
        });
  }

  /// The run-loop cursor (registered only for durability — see ctor): the
  /// phase driver's degree bound, the phase RNG, and the result counters
  /// accumulated so far, so a resumed process re-enters the phase (or
  /// tail) loop exactly where the persisted safe point left it. The
  /// y_tilde trace is deliberately not persisted: record_trace is a
  /// debugging aid and a resumed trace restarts at the resume point.
  void register_loop_state() {
    registry_->register_state(
        "loop",
        [this](std::vector<Word>& out) {
          out.push_back(std::bit_cast<Word>(d_));
          for (const std::uint64_t s : phase_rng_.state()) out.push_back(s);
          out.push_back(result_.phases);
          out.push_back(result_.tail_iterations);
          out.push_back(last_phase_iterations_);
          const auto put = [&out](const std::vector<std::size_t>& v) {
            out.push_back(v.size());
            for (const std::size_t e : v) out.push_back(e);
          };
          put(result_.machines_per_phase);
          put(result_.max_local_edges_per_phase);
          put(result_.active_per_phase);
          put(result_.frontier_edges_per_phase);
        },
        [this](fault::SectionReader& in) {
          d_ = std::bit_cast<double>(in.take());
          std::array<std::uint64_t, 4> s;
          for (auto& w : s) w = in.take();
          phase_rng_.set_state(s);
          result_.phases = static_cast<std::size_t>(in.take());
          result_.tail_iterations = static_cast<std::size_t>(in.take());
          last_phase_iterations_ = static_cast<std::size_t>(in.take());
          const auto take = [&in](std::vector<std::size_t>& v) {
            const auto w = in.take_counted();
            v.assign(w.begin(), w.end());
          };
          take(result_.machines_per_phase);
          take(result_.max_local_edges_per_phase);
          take(result_.active_per_phase);
          take(result_.frontier_edges_per_phase);
        });
  }

  /// Reconciles derived state a fresh process cannot restore directly.
  /// The providers reinstate the flags (freeze times, removals, frontier
  /// membership) and replay the residual kills, but ActiveArcs was
  /// constructed against an all-active, all-alive frontier. Every list is
  /// still lazy (nothing has been queried yet), so the partitions
  /// self-heal from the restored flags on first touch; only the O(1)
  /// active-degree counters need the departure notifications replayed —
  /// one per (inactive vertex, still-active neighbor) pair, exactly the
  /// mark_frozen/mark_removed walks the interrupted process performed.
  /// Caches cannot trust the restored values blindly: the checkpoint
  /// stores y_old_cache_ verbatim, but the interrupted process's dirty_
  /// bits are deliberately not persisted — entries whose owner had
  /// kYOldDirty set there are *stale* snapshots awaiting the next
  /// refresh_y_old rescan. A fresh process therefore marks every vertex
  /// fully dirty: each refresh/load then recomputes from the restored
  /// flags, which the dirty-cache invariants (reuse equals recomputation
  /// bit for bit) make identical to what the interrupted process would
  /// have produced — for clean entries the rescan reproduces the cached
  /// value, for stale ones it produces the refresh that was pending.
  void rebuild_after_resume() {
    for (VertexId x = 0; x < n_; ++x) {
      if (active_.active(x)) continue;
      const VertexId* ids = nbr_ids_.get() + nbr_off_[x];
      const std::size_t len = nbr_off_[x + 1] - nbr_off_[x];
      for (std::size_t i = 0; i < len; ++i) {
        const VertexId u = ids[i];
        if (active_.active(u)) active_arcs_.neighbor_left_frontier(u);
      }
    }
    dirty_.assign(n_, kBothDirty);
  }

  [[nodiscard]] double weight_at(std::uint64_t iteration) const {
    while (weight_cache_.size() <= iteration) {
      weight_cache_.push_back(weight_cache_.back() / (1.0 - o_.eps));
    }
    return weight_cache_[iteration];
  }

  [[nodiscard]] bool in_graph(VertexId v) const noexcept {
    return removed_[v] == 0;
  }

  /// Takes v off the active frontier: O(1). (The distribute loop iterates
  /// ActiveArcs lists, whose entries are active by construction, so no
  /// per-vertex machine sentinel is needed.)
  void leave_frontier(VertexId v) { active_.deactivate(v); }

  /// Records that v froze (left the frontier but stays alive): its
  /// *still-active* neighbors' cached sums are stale, each has one fewer
  /// active neighbor, and their ActiveArcs lists must squeeze v out —
  /// the batch freeze notification the announce batches carry. The walk
  /// streams the flat neighbor-id row with an active-flag filter (active
  /// implies alive, so dead entries drop out for free) instead of
  /// compacting v's own ActiveArcs lists, which nothing will read again.
  /// Frozen neighbors need no marks: a frozen vertex's y_old is never
  /// queried again, and its cached load cannot change under a later
  /// freeze (every affected term is already pinned at its own earlier
  /// freeze iteration), so reuse equals recomputation bit for bit.
  void mark_frozen(VertexId v) {
    const VertexId* ids = nbr_ids_.get() + nbr_off_[v];
    const std::size_t len = nbr_off_[v + 1] - nbr_off_[v];
    for (std::size_t i = 0; i < len; ++i) {
      const VertexId u = ids[i];
      if (!active_.active(u)) continue;
      dirty_[u] = kBothDirty;
      active_arcs_.neighbor_left_frontier(u);
    }
    dirty_[v] = kBothDirty;
  }

  /// Records that v is being removed (killed in the residual): unlike a
  /// freeze this changes *every* alive neighbor's load sum (the edge
  /// disappears), so all of them go dirty; active ones additionally lose
  /// an active neighbor, frozen ones must drop v from their frozen lists.
  /// O(residual degree of v), paid at most once per vertex.
  void mark_removed(VertexId v, bool was_active) {
    for (const Arc& a : residual_.alive_arcs(v)) {
      dirty_[a.to] = kBothDirty;
      if (was_active) {
        active_arcs_.neighbor_left_frontier(a.to);
      } else {
        active_arcs_.frozen_neighbor_removed(a.to);
      }
    }
    dirty_[v] = kBothDirty;
  }

  /// y_old of v — the frozen-neighbor contribution, recomputed only when a
  /// neighbor changed state, by scanning exactly the frozen complement of
  /// v's arc list (ActiveArcs). The old full alive-arc scan only ever
  /// *added* on frozen entries, ascending by neighbor id — which is
  /// precisely the frozen list's order — so the sum is bit-identical while
  /// the scan skips the (typically much longer) active part entirely.
  void refresh_y_old(VertexId v) {
    if ((dirty_[v] & kYOldDirty) == 0) return;
    if (active_arcs_.active_degree(v) == residual_.residual_degree(v)) {
      // No alive neighbor is frozen: the scan would add nothing.
      y_old_cache_[v] = 0.0;
      dirty_[v] &= static_cast<std::uint8_t>(~kYOldDirty);
      return;
    }
    double y = 0.0;
    const auto frozen = active_arcs_.frozen_neighbors(v);
    (void)weight_at(t_);  // pre-extends the cache: every freeze time is <= t_
    const double* w = weight_cache_.data();
    if (t_ < kFrozen16Max) {
      // Every freeze time so far is below the mirror's saturation point.
      const std::uint16_t* f16 = freeze16_.data();
      for (std::size_t idx = 0; idx < frozen.size(); ++idx) {
        if (idx + 8 < frozen.size()) {
          __builtin_prefetch(&f16[frozen[idx + 8]]);
        }
        y += w[f16[frozen[idx]]];
      }
    } else {
      for (std::size_t idx = 0; idx < frozen.size(); ++idx) {
        if (idx + 8 < frozen.size()) {
          __builtin_prefetch(&freeze_at_[frozen[idx + 8]]);
        }
        y += w[freeze_at_[frozen[idx]]];
      }
    }
    y_old_cache_[v] = y;
    dirty_[v] &= static_cast<std::uint8_t>(~kYOldDirty);
  }

  /// The value a load scan produces when all `count` terms are the same
  /// weight `w`: w added to 0.0 `count` times, left to right — computed
  /// once per (w, count) prefix via a running table, so uniform
  /// neighborhoods (nothing frozen nearby — the common case while the
  /// frontier is still wide) cost O(1) instead of O(degree). Bit-identical
  /// to the scan by construction: the table entries ARE the sequential
  /// partial sums.
  [[nodiscard]] double repeated_sum(double w, std::size_t count) {
    if (repsum_.empty() || repsum_w_ != w) {
      repsum_.assign(1, 0.0);
      repsum_w_ = w;
    }
    while (repsum_.size() <= count) {
      repsum_.push_back(repsum_.back() + w);
    }
    return repsum_[count];
  }

  /// Load of v in G[V'] at global iteration `now` (derived state; homes can
  /// compute this locally because freeze times are common knowledge).
  /// Cached: a clean value is reused when it cannot depend on `now` — v is
  /// frozen (every term min(freeze_v, freeze_u, now) is already pinned
  /// below now), v has no alive active neighbor (same), or `now` is the
  /// stamp it was computed at. Recomputation is the ascending alive-arc
  /// scan (served from graph storage while nothing near v has died — no
  /// per-freeze list maintenance, which is why this deliberately does NOT
  /// walk the ActiveArcs partition), so reused and recomputed values are
  /// bit-identical.
  [[nodiscard]] double load_of(VertexId v, std::uint64_t now) {
    if ((dirty_[v] & kLoadDirty) == 0 &&
        (load_stamp_[v] == now || freeze_at_[v] != kActive ||
         active_arcs_.active_degree(v) == 0)) {
      return load_cache_[v];
    }
    double y;
    const std::size_t deg = residual_.residual_degree(v);
    if (freeze_at_[v] == kActive && active_arcs_.active_degree(v) == deg) {
      // Uniform neighborhood: v and every alive neighbor are active, so
      // each of the `deg` scan terms is exactly weight_at(now).
      y = repeated_sum(weight_at(now), deg);
    } else {
      (void)weight_at(now);  // pre-extends the cache for direct indexing
      const double* w = weight_cache_.data();
      const std::uint64_t fvn =
          std::min<std::uint64_t>(freeze_at_[v], now);
      if (deg == g_.degree(v)) {
        // No neighbor of v ever died: the alive view is the full row, so
        // stream the 4-byte neighbor ids instead of the 8-byte arcs.
        y = capped_sum(nbr_ids_.get() + nbr_off_[v], deg, fvn, w);
      } else {
        const auto arcs = residual_.alive_arcs(v);
        y = capped_sum(arcs.data(), arcs.size(), fvn, w);
      }
    }
    load_cache_[v] = y;
    load_stamp_[v] = now;
    dirty_[v] &= static_cast<std::uint8_t>(~kLoadDirty);
    return y;
  }

  static VertexId to_of(VertexId v) noexcept { return v; }
  static VertexId to_of(const Arc& a) noexcept { return a.to; }

  /// The capped load scan: sum of w[min(freeze(u), fvn)] over the given
  /// neighbor entries, in order. Dispatches to the narrowest exact freeze
  /// mirror (a saturated entry min()s to fvn exactly as the full-width
  /// value would whenever fvn is below the mirror's cap), which keeps the
  /// gather table L2-sized on the hot path.
  template <typename Entry>
  [[nodiscard]] double capped_sum(const Entry* entries, std::size_t len,
                                  std::uint64_t fvn, const double* w) const {
    double y = 0.0;
    if (fvn < kFrozen8Max) {
      const std::uint8_t* f8 = freeze8_.data();
      const auto fvn8 = static_cast<std::uint8_t>(fvn);
      for (std::size_t i = 0; i < len; ++i) {
        y += w[std::min<std::uint8_t>(f8[to_of(entries[i])], fvn8)];
      }
    } else if (fvn < kFrozen16Max) {
      const std::uint16_t* f16 = freeze16_.data();
      const auto fvn16 = static_cast<std::uint16_t>(fvn);
      for (std::size_t i = 0; i < len; ++i) {
        if (i + 8 < len) __builtin_prefetch(&f16[to_of(entries[i + 8])]);
        y += w[std::min<std::uint16_t>(f16[to_of(entries[i])], fvn16)];
      }
    } else {
      for (std::size_t i = 0; i < len; ++i) {
        if (i + 8 < len) __builtin_prefetch(&freeze_at_[to_of(entries[i + 8])]);
        y += w[std::min<std::uint64_t>(freeze_at_[to_of(entries[i])], fvn)];
      }
    }
    return y;
  }

  /// load_of for a vertex known active and uniform, without touching the
  /// cache: the value is an O(1) table read and re-deriving it later is as
  /// cheap as reusing it, so skipping the cache write (and the dirty-bit
  /// clear) saves three scattered stores per query. Leaving the entry
  /// dirty only means a later query recomputes — bit-identically.
  [[nodiscard]] double uniform_load(std::size_t deg, std::uint64_t now) {
    return repeated_sum(weight_at(now), deg);
  }

  /// Announces freshly decided vertices (frozen with their iteration, or
  /// removed) to the whole cluster: gather at the leader, broadcast the
  /// concatenation. Keeps freeze times common knowledge. ~3 rounds; skipped
  /// when there is nothing to announce. The per-home staging vectors are
  /// persistent; only the homes actually touched are cleared afterwards.
  void announce(const std::vector<std::pair<VertexId, std::uint64_t>>& frozen,
                const std::vector<VertexId>& removed) {
    if (frozen.empty() && removed.empty()) return;
    mpc::ExecutionBackend& backend = engine_->backend();
    // Chunked over the concatenated (frozen, removed) announcement list;
    // per-home record order is the global list order (slot-ascending drain
    // over a contiguous partition).
    const std::size_t nf = frozen.size();
    const std::size_t total = nf + removed.size();
    announce_shards_.reset(backend.threads(), machines_);
    backend.run_chunks(
        0, total, [&](std::size_t slot, std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            if (i < nf) {
              const auto& [v, tf] = frozen[i];
              announce_shards_.add(slot, home_[v], 0,
                                   (static_cast<Word>(v) << 32) | tf);
            } else {
              const VertexId v = removed[i - nf];
              announce_shards_.add(
                  slot, home_[v], 0,
                  (static_cast<Word>(v) << 32) | 0xffffffffULL);
            }
          }
        });
    announce_shards_.drain(
        backend, [&](std::uint32_t sender,
                     std::span<const mpc::StageRecord> records) {
          auto& part = announce_parts_[sender];
          for (const mpc::StageRecord& rec : records) {
            part.push_back(rec.word);
          }
        });
    const auto gathered = mpc::gather_to(*engine_, 0, announce_parts_);
    mpc::broadcast_view(*engine_, 0, gathered);
    for (const std::uint32_t h : announce_shards_.drained_senders()) {
      announce_parts_[h].clear();
    }
  }

  void run_phase(double d, Rng& phase_rng, MatchingMpcResult& result) {
    const auto m = std::max<std::size_t>(
        2, static_cast<std::size_t>(std::floor(std::sqrt(d))));
    const std::size_t iters = phase_iterations(d, m);
    last_phase_iterations_ = iters;
    result.machines_per_phase.push_back(m);

    // Line (d): fresh uniform partition. The leader draws a seed and
    // broadcasts it; machine assignment is then common knowledge.
    const std::uint64_t part_seed = phase_rng();
    {
      const Word payload[] = {part_seed};
      mpc::broadcast_view(*engine_, 0, payload);
    }

    // Phase-start frontier: dense remap, so every per-phase scratch below
    // is sized to k = |active| and reused across phases. The snapshot (and
    // the dense ids) stay valid across mid-phase freezes.
    const auto snapshot = active_.remap();
    const std::size_t k = snapshot.size();
    result.active_per_phase.push_back(k);
    machine_of_.resize(k);
    for (std::size_t i = 0; i < k; ++i) {
      machine_of_[i] =
          static_cast<std::uint32_t>(mix64(part_seed, snapshot[i]) % m);
      // Neighbor-side view of the same assignment (ActiveArcs entries are
      // active by construction, so no activity check is left to do). The
      // distribute filter reads the byte table — cache-resident at any n
      // where this loop matters, and exact whenever m <= 256; the word
      // table breaks the rare byte collisions of the few large-m phases.
      phase_machine_[snapshot[i]] = machine_of_[i];
      phase_machine8_[snapshot[i]] =
          static_cast<std::uint8_t>(machine_of_[i]);
    }

    // Line (b): y_old — the frozen contribution, constant over the phase.
    // Computed at each vertex's home from common knowledge; only vertices
    // whose neighborhood changed state since their last refresh rescan —
    // and only their frozen complement, via ActiveArcs.
    for (const VertexId v : snapshot) refresh_y_old(v);

    // Phase-level freeze bound: every estimate the phase can produce is,
    // in exact arithmetic, at most m * (d_res * w_last) + max_yold (local
    // degrees are bounded by residual degrees, weights peak at the last
    // iteration, frozen sums start at zero). When even that — inflated by
    // kBoundSlack against the floating-point drift — stays below the
    // threshold stream's floor, no iteration of this phase can freeze
    // anything: the local simulation state and every sweep are provably
    // no-ops and are skipped wholesale, leaving exactly the engine
    // traffic (which the model charges for regardless). Tracing runs
    // evaluate everything, as ever.
    const double floor_t = thresholds_.lower_bound();
    double max_yold = 0.0;
    for (const VertexId v : snapshot) {
      max_yold = std::max(max_yold, y_old_cache_[v]);
    }
    const double w_last = weight_at(t_ + iters - 1);
    const bool phase_can_freeze =
        o_.record_trace ||
        (static_cast<double>(m) *
             (static_cast<double>(residual_.max_alive_degree()) * w_last) +
         max_yold) *
                (1.0 + kBoundSlack) >=
            floor_t;

    // Distribute the induced active subgraphs: each active edge with both
    // endpoints on the same simulation machine moves from its (lower
    // endpoint's) home shard to that machine; each active vertex's
    // (id, y_old) record moves from its home. Real traffic, one round.
    // Iterating the frontier in id order and each vertex's *active* upper
    // neighbors (ActiveArcs) visits the frontier-internal edges in edge-id
    // (lexicographic) order, exactly as the old alive-arc scan with its
    // activity filter did — but without ever touching frozen arcs, so this
    // loop's cost is proportional to the frontier-internal edge count.
    //
    // The scan is chunked over [0, k) (one chunk at one thread). A
    // sequential pre-pass collects every frontier vertex's active-upper
    // span first: the lazy accessors (materialize/compact) mutate
    // ActiveArcs' shared scratch and may not run concurrently, but the
    // spans they return for *distinct* vertices stay valid simultaneously
    // (per-vertex segments of the arc buffer). The chunks then read only
    // cached spans and plain arrays and write slot-private scratch: the
    // matched edges and the per-vertex (id -> machine) records go to
    // sender-bucketed StageShards, the counters to per-slot rows. Merges
    // run in ascending slot order over a contiguous partition of [0, k),
    // so local_pairs_, machine_edges_ and frontier_edges are the
    // sequential scan's; draining the edges before the records gives every
    // sender (home) exactly the sequential stream — its matched edges in
    // scan order, then its records in snapshot order — so every inbox and
    // every Metrics field is independent of the thread count. (remap()
    // assigns dense ids in ascending snapshot order, so the dense index of
    // snapshot[i] is i — no lookup needed.)
    machine_edges_.assign(m, 0);
    local_pairs_.clear();
    std::size_t frontier_edges = 0;
    const bool byte_exact = m <= 256;
    mpc::ExecutionBackend& backend = engine_->backend();
    upper_spans_.resize(k);
    for (std::size_t i = 0; i < k; ++i) {
      upper_spans_[i] = active_arcs_.active_upper_neighbors(snapshot[i]);
    }
    const std::size_t slots = backend.threads();
    slot_pairs_.resize(slots);
    for (auto& pairs : slot_pairs_) pairs.clear();  // empty chunks never run
    slot_counts_.assign(slots * m, 0);
    slot_frontier_.assign(slots, 0);
    edge_shards_.reset(slots, machines_);
    record_shards_.reset(slots, machines_);
    backend.run_chunks(
        0, k, [&](std::size_t slot, std::size_t lo, std::size_t hi) {
          auto& pairs = slot_pairs_[slot];
          std::size_t* medges = slot_counts_.data() + slot * m;
          std::size_t fe = 0;
          for (std::size_t i = lo; i < hi; ++i) {
            const VertexId v = snapshot[i];
            const std::uint32_t mv = machine_of_[i];
            const auto mv8 = static_cast<std::uint8_t>(mv);
            const auto uppers = upper_spans_[i];
            fe += uppers.size();
            for (std::size_t idx = 0; idx < uppers.size(); ++idx) {
              const VertexId u = uppers[idx];
              if (phase_machine8_[u] != mv8) continue;
              if (!byte_exact && phase_machine_[u] != mv) continue;
              edge_shards_.add(slot, home_[v], mv,
                               (static_cast<Word>(v) << 32) | u);
              if (phase_can_freeze) {
                pairs.emplace_back(
                    static_cast<VertexId>(i),
                    static_cast<VertexId>(active_.dense_index(u)));
              }
              ++medges[mv];
            }
            record_shards_.add(slot, home_[v], mv, v);
          }
          slot_frontier_[slot] = fe;
        });
    for (std::size_t s = 0; s < slots; ++s) {
      frontier_edges += slot_frontier_[s];
      const std::size_t* medges = slot_counts_.data() + s * m;
      for (std::size_t j = 0; j < m; ++j) machine_edges_[j] += medges[j];
      local_pairs_.insert(local_pairs_.end(), slot_pairs_[s].begin(),
                          slot_pairs_[s].end());
    }
    result.frontier_edges_per_phase.push_back(frontier_edges);
    const auto to_outbox = [&](std::uint32_t sender,
                               std::span<const mpc::StageRecord> records) {
      mpc::Outbox ob = engine_->outbox(sender);
      for (const mpc::StageRecord& rec : records) ob.append(rec.to, rec.word);
    };
    edge_shards_.drain(backend, to_outbox);
    record_shards_.drain(backend, to_outbox);
    engine_->exchange();

    std::size_t max_local_edges = 0;
    for (std::size_t i = 0; i < m; ++i) {
      max_local_edges = std::max(max_local_edges, machine_edges_[i]);
    }
    result.max_local_edges_per_phase.push_back(max_local_edges);

    // Line (e): local simulation of I iterations on every machine.
    // Per-vertex local state — dense-indexed, so it costs O(k) to set up
    // and the adjacency build costs O(local edges) (CsrScratch): an
    // iteration is O(still-active vertices) plus O(degree) per freeze.
    // All of it skipped when the phase bound proved no freeze possible.
    frozen_this_phase_.clear();
    const std::uint64_t t_start = t_;
    std::uint32_t max_ld = 0;
    if (phase_can_freeze) {
      local_adj_->clear();
      local_adj_->build(local_pairs_);
      local_deg_.resize(k);
      for (std::size_t i = 0; i < k; ++i) {
        local_deg_[i] = local_adj_->degree(static_cast<VertexId>(i));
        max_ld = std::max(max_ld, local_deg_[i]);
      }
      local_frozen_sum_.assign(k, 0.0);
    }
    for (std::size_t it = 0; phase_can_freeze && it < iters; ++it) {
      const std::uint64_t tau = t_start + it;
      const double w_tau = weight_at(tau);
      // Per-iteration refinement of the phase bound, valid while nothing
      // froze this phase (then every local_frozen_sum_ is exactly 0 and
      // local_deg_ is pristine): each y~ = m*(0 + ld*w) + y_old is, in
      // exact arithmetic, at most m*max_ld*w + max_yold, and the same
      // kBoundSlack inflation covers the floating-point drift.
      // Below the floor, the whole iteration's sweep (and draws) is
      // skipped in O(1) — bit-identical, since it provably produces no
      // freeze. record_trace needs every estimate reported, so tracing
      // runs disable the skip.
      if (!o_.record_trace && frozen_this_phase_.empty()) {
        const double ub =
            (static_cast<double>(m) *
                 (static_cast<double>(max_ld) * w_tau) +
             max_yold) *
            (1.0 + kBoundSlack);
        if (ub < floor_t) {
          ++t_;
          continue;
        }
      }
      std::optional<std::vector<double>> trace_row;
      if (o_.record_trace) {
        trace_row.emplace(n_, std::numeric_limits<double>::quiet_NaN());
      }
      // (A) freeze against the shared thresholds, simultaneously. The
      // active list self-compacts, so vertices frozen in earlier
      // iterations are paid for once, not rescanned every iteration.
      // Two passes: first one vectorized sweep computes every frontier
      // vertex's estimate into a dense-indexed scratch, then thresholds
      // are drawn — through the batch's cached per-vertex first-level mix,
      // one second-level hash each — only for the vertices at or above the
      // stream's floor. A draw for anything below the floor loses the
      // comparison no matter what it samples, and the stream is stateless,
      // so skipping it is bit-identical (see ThresholdBatch::lower_bound).
      newly_frozen_.clear();
      const auto frontier = active_.actives();
      y_scratch_.resize(frontier.size());
      for (std::size_t fi = 0; fi < frontier.size(); ++fi) {
        const VertexId v = frontier[fi];
        const std::uint32_t i = active_.dense_index(v);
        y_scratch_[fi] =
            static_cast<double>(m) *
                (local_frozen_sum_[i] +
                 static_cast<double>(local_deg_[i]) * w_tau) +
            y_old_cache_[v];
        if (trace_row) (*trace_row)[v] = y_scratch_[fi];
      }
      for (std::size_t fi = 0; fi < frontier.size(); ++fi) {
        if (y_scratch_[fi] < floor_t) continue;
        const VertexId v = frontier[fi];
        if (y_scratch_[fi] >= thresholds_.threshold(v, tau)) {
          newly_frozen_.push_back(v);
        }
      }
      for (const VertexId v : newly_frozen_) {
        set_freeze(v, static_cast<std::uint32_t>(tau));
        frozen_this_phase_.emplace_back(v, tau);
        leave_frontier(v);
      }
      // (B) is implicit (weights are derived); update local views of the
      // newly frozen vertices' edges.
      for (const VertexId v : newly_frozen_) {
        const std::uint32_t vi = active_.dense_index(v);
        for (const VertexId ui : local_adj_->neighbors(vi)) {
          const VertexId u = active_.vertex_at(ui);
          if (freeze_at_[u] != kActive &&
              freeze_at_[u] < tau) {
            continue;  // edge already froze earlier
          }
          if (freeze_at_[u] == static_cast<std::uint32_t>(tau) && u < v) {
            continue;  // both froze now; handled from the lower id
          }
          // Edge (v,u) freezes at w_tau for the still-active (or
          // simultaneously frozen) partner's bookkeeping.
          if (local_deg_[ui] > 0) --local_deg_[ui];
          local_frozen_sum_[ui] += w_tau;
          if (local_deg_[vi] > 0) --local_deg_[vi];
          local_frozen_sum_[vi] += w_tau;
        }
      }
      if (trace_row) result.y_tilde_trace.push_back(std::move(*trace_row));
      ++t_;
    }

    if (!phase_can_freeze) t_ += iters;

    // Machines report the freeze decisions; they become common knowledge.
    // Each report stages from its simulation machine through the record
    // shards, chunked like the distribute records, so every sender's
    // stream is the iteration order a direct push loop would stage.
    record_shards_.reset(backend.threads(), machines_);
    backend.run_chunks(
        0, frozen_this_phase_.size(),
        [&](std::size_t slot, std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            const auto& [v, tf] = frozen_this_phase_[i];
            record_shards_.add(slot, machine_of_[active_.dense_index(v)],
                               home_[v], (static_cast<Word>(v) << 32) | tf);
          }
        });
    record_shards_.drain(backend, to_outbox);
    engine_->exchange();

    // The phase's freezes become visible to the home-side load sums below:
    // the batch the machines just announced is walked once, marking each
    // leaver's still-active neighbors (same-batch leavers were already
    // deactivated, so the walks skip them — their own self-marks suffice).
    for (const auto& [v, tf] : frozen_this_phase_) {
      mark_frozen(v);
    }

    // Lines (g)-(h): loads on G[V'] from reconciled weights (local at
    // homes). Lines (i)-(j): heavy removal, then end-of-phase freezing.
    // Candidates are exactly the vertices the old 0..n scan would visit:
    // still-active, frozen this phase, or frozen at the previous phase
    // boundary (their freeze iteration equals this phase's t_start, so the
    // old `freeze_at < t_start` skip did not exclude them). load_of is
    // pure until the batch below, so visiting order does not matter.
    removed_now_.clear();
    frozen_now_.clear();
    // Every load term w[min(tf, fvn)] is at most w[t_] (weights grow, the
    // caps only shrink), so every load is at most max_alive_degree * w[t_]
    // in exact arithmetic; with the same kBoundSlack inflation as the
    // iteration bound, a value below the freeze bar proves the whole
    // phase-end sweep changes nothing and it is skipped in O(1).
    const std::size_t dmax = residual_.max_alive_degree();
    const bool sweep_can_fire =
        static_cast<double>(dmax) * weight_at(t_) * (1.0 + kBoundSlack) >
        1.0 - 2.0 * o_.eps;
    if (sweep_can_fire) {
      // A uniform-active vertex's load is repeated_sum(w_now, deg) — a
      // function of its degree alone, and non-decreasing in it (w > 0). So
      // the load comparisons collapse to degree comparisons against the
      // smallest degrees whose table value clears each bar, computed once
      // per phase end; the sweep then classifies uniform vertices with two
      // integer compares and no load evaluation at all (bit-identical by
      // monotonicity of the sequential partial sums).
      std::size_t d_frz = dmax + 1;
      std::size_t d_rem = dmax + 1;
      {
        const double w_now = weight_at(t_);
        for (std::size_t dd = 0; dd <= dmax; ++dd) {
          const double y = repeated_sum(w_now, dd);
          if (d_frz > dmax && y > 1.0 - 2.0 * o_.eps) d_frz = dd;
          if (y > 1.0) {
            d_rem = dd;
            break;
          }
        }
      }
      const auto consider = [&](VertexId v) {
        const std::size_t deg = residual_.residual_degree(v);
        if (freeze_at_[v] == kActive && active_arcs_.active_degree(v) == deg) {
          if (deg >= d_rem) {
            removed_now_.push_back(v);
          } else if (deg >= d_frz) {
            frozen_now_.push_back({v, t_});
          }
          return;
        }
        const double y = load_of(v, t_);
        if (y > 1.0) {
          removed_now_.push_back(v);
        } else if (y > 1.0 - 2.0 * o_.eps && freeze_at_[v] == kActive) {
          frozen_now_.push_back({v, t_});
        }
      };
      for (const VertexId v : active_.actives()) consider(v);
      for (const auto& [v, tf] : frozen_this_phase_) consider(v);
      for (const VertexId v : boundary_frozen_) {
        if (in_graph(v)) consider(v);
      }
    }  // sweep_can_fire
    for (const VertexId v : removed_now_) {
      mark_removed(v, /*was_active=*/freeze_at_[v] == kActive);
      removed_[v] = 1;
      set_freeze(v, kActive);  // removed, not frozen
      leave_frontier(v);
      residual_.kill(v);
    }
    for (const auto& [v, tf] : frozen_now_) {
      set_freeze(v, static_cast<std::uint32_t>(tf));
      leave_frontier(v);
      mark_frozen(v);
    }
    boundary_frozen_.clear();
    for (const auto& [v, tf] : frozen_now_) boundary_frozen_.push_back(v);
    announce(frozen_now_, removed_now_);
    announce(frozen_this_phase_, kNoRemovals);
  }

  /// Line (4): direct simulation of Central-Rand until every edge of
  /// G[V'] is frozen. Homes compute loads locally (common knowledge) and
  /// newly frozen vertices are announced each iteration.
  ///
  /// The per-iteration sweep runs over a worklist seeded with the frontier
  /// and compacted as vertices freeze. The tail never removes a vertex, so
  /// a worklist member with no active neighbor has a load that is pinned
  /// for the rest of the tail; once that load is below the threshold
  /// stream's floor the vertex can never freeze again and drops out of the
  /// sweep for good (it simply stays active when the tail ends, exactly as
  /// before — nothing downstream reads it). Vertices that can still freeze
  /// draw their threshold through the batch cache, and only when their
  /// load reaches the floor. With record_trace every active vertex's load
  /// must be reported each iteration, so the trace path keeps the full
  /// frontier sweep.
  void run_tail(MatchingMpcResult& result) {
    const std::size_t guard =
        2 + static_cast<std::size_t>(
                std::ceil(std::log(1.0 / w0_) / -std::log1p(-o_.eps)));
    const double floor_t = thresholds_.lower_bound();
    const auto frontier = active_.actives();
    tail_work_.assign(frontier.begin(), frontier.end());
    while (true) {
      // Safe point: the tail's own loop boundary (see run()). A resumed
      // process re-seeds the worklist from the restored frontier — a
      // superset of the interrupted worklist whose re-added members all
      // fail the floor check without drawing thresholds, so the replay
      // stays bit-identical.
      engine_->checkpoint_boundary();
      if (result.tail_iterations > guard) {
        throw std::logic_error("matching_mpc tail: did not terminate (bug)");
      }
      // Any active-active edge left? ActiveArcs counts exactly the alive
      // active neighbors; dropped worklist members all had count 0, so the
      // early-exit scan over the worklist answers for the whole frontier.
      bool any_active_edge = false;
      for (const VertexId v : tail_work_) {
        if (active_.active(v) && active_arcs_.active_degree(v) > 0) {
          any_active_edge = true;
          break;
        }
      }
      if (!any_active_edge) break;

      std::optional<std::vector<double>> trace_row;
      if (o_.record_trace) {
        trace_row.emplace(n_, std::numeric_limits<double>::quiet_NaN());
      }
      frozen_now_.clear();
      // Degree bar for uniform vertices this iteration: the smallest
      // degree whose all-active load reaches the threshold floor (exact —
      // every smaller degree's table value was checked below the floor).
      const std::size_t dmax = residual_.max_alive_degree();
      std::size_t d_floor = dmax + 1;
      const double w_now = weight_at(t_);
      for (std::size_t dd = 0; dd <= dmax; ++dd) {
        if (repeated_sum(w_now, dd) >= floor_t) {
          d_floor = dd;
          break;
        }
      }
      std::size_t write = 0;
      for (std::size_t i = 0; i < tail_work_.size(); ++i) {
        const VertexId v = tail_work_[i];
        if (!active_.active(v)) continue;  // froze in an earlier iteration
        const std::size_t deg = residual_.residual_degree(v);
        const std::size_t adeg = active_arcs_.active_degree(v);
        const bool uniform = adeg == deg;
        if (uniform && deg < d_floor && !trace_row) {
          // Below the floor for sure; with no active neighbor the load is
          // pinned below it forever — drop from the sweep for good.
          if (adeg > 0) tail_work_[write++] = v;
          continue;
        }
        const double y = uniform ? uniform_load(deg, t_) : load_of(v, t_);
        if (trace_row) (*trace_row)[v] = y;
        if (y < floor_t) {
          // (kept for the trace path, which reports every active load)
          if (adeg > 0 || trace_row) tail_work_[write++] = v;
          continue;
        }
        tail_work_[write++] = v;
        if (y >= thresholds_.threshold(v, t_)) {
          frozen_now_.push_back({v, t_});
        }
      }
      tail_work_.resize(write);
      for (const auto& [v, tf] : frozen_now_) {
        set_freeze(v, static_cast<std::uint32_t>(tf));
        leave_frontier(v);
        mark_frozen(v);
      }
      announce(frozen_now_, kNoRemovals);
      if (trace_row) result.y_tilde_trace.push_back(std::move(*trace_row));
      ++t_;
      ++result.tail_iterations;
    }
  }

  [[nodiscard]] std::size_t phase_iterations(double d, std::size_t m) const {
    if (o_.paper_iteration_schedule) {
      const double raw = std::log(static_cast<double>(m)) /
                         (10.0 * std::log(5.0));
      return std::max<std::size_t>(1, static_cast<std::size_t>(raw));
    }
    // Section 4.2 pacing: enough iterations that d (1-eps)^I <= d^beta.
    const double needed = (1.0 - o_.beta) * std::log(d) /
                          -std::log1p(-o_.eps);
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(needed)));
  }

  const Graph& g_;
  const MatchingMpcOptions& o_;
  std::size_t n_;
  /// Alive == still in G[V'] (not removed as heavy). Frozen vertices stay
  /// alive; only heavy removals kill.
  ResidualGraph residual_;
  /// Active == alive and unfrozen — the simulation frontier. Kept in sync
  /// at every freeze/removal.
  ActiveSet active_;
  /// Second-level compaction: per-vertex active/frozen neighbor partition
  /// over residual_, updated by the freeze/removal batch walks.
  ActiveArcs active_arcs_;
  /// Batched T_{v,t} draws (per-vertex first-level mix cached once).
  ThresholdBatch thresholds_;
  std::size_t machines_ = 0;
  std::size_t words_ = 0;
  std::optional<mpc::Engine> engine_;
  /// Round-level checkpoint providers for the engine's fault recovery;
  /// engaged only when a FaultPlan is attached (see constructor).
  std::optional<fault::CheckpointRegistry> registry_;

  std::vector<std::uint32_t> home_;
  double w0_ = 0.0;
  mutable std::vector<double> weight_cache_;
  std::uint64_t t_ = 0;
  std::size_t last_phase_iterations_ = 0;
  /// Phase-loop cursor state, promoted to members so the "loop" durable
  /// provider can serialize them at safe points (see register_loop_state).
  double d_ = 0.0;
  Rng phase_rng_;
  MatchingMpcResult result_;
  std::vector<std::uint32_t> freeze_at_;
  /// Saturating 16-bit mirror of freeze_at_ — the gather target of the hot
  /// load/output scans (see set_freeze; exact wherever the capping
  /// iteration is below 0xffff, which the scans check).
  std::vector<std::uint16_t> freeze16_;
  std::vector<std::uint8_t> freeze8_;
  std::vector<char> removed_;

  // Dirty-load bookkeeping (see DESIGN.md). The alive-active-neighbor
  // counts live in active_arcs_.
  std::vector<double> y_old_cache_;
  std::vector<double> load_cache_;
  std::vector<std::uint64_t> load_stamp_;
  std::vector<std::uint8_t> dirty_;

  // Per-phase scratch, dense-indexed and reused across phases (no O(n)
  // allocation after warm-up).
  std::vector<std::uint32_t> machine_of_;
  /// Per-vertex machine of the current phase — the neighbor-side lookup of
  /// the distribute loop (only read for currently active vertices, which
  /// were necessarily in the phase snapshot). The byte table is the
  /// primary filter (cache-resident); the word table confirms matches in
  /// the rare phases with more than 256 machines.
  std::vector<std::uint32_t> phase_machine_;
  std::vector<std::uint8_t> phase_machine8_;
  /// Per-iteration load estimates, frontier-indexed (the vectorized first
  /// pass of the freeze loop).
  std::vector<double> y_scratch_;
  /// Tail sweep worklist (see run_tail).
  std::vector<VertexId> tail_work_;
  /// Sequential partial sums of repsum_w_ (see repeated_sum).
  std::vector<double> repsum_;
  double repsum_w_ = 0.0;
  std::vector<std::uint32_t> local_deg_;
  std::vector<double> local_frozen_sum_;
  std::optional<CsrScratch> local_adj_;
  std::vector<std::pair<VertexId, VertexId>> local_pairs_;
  std::vector<std::size_t> machine_edges_;
  std::vector<std::pair<VertexId, std::uint64_t>> frozen_this_phase_;
  std::vector<VertexId> newly_frozen_;
  std::vector<VertexId> removed_now_;
  std::vector<std::pair<VertexId, std::uint64_t>> frozen_now_;
  /// Vertices frozen at the previous phase's boundary (freeze iteration ==
  /// the next phase's t_start): the old full scan still considered them
  /// for heavy removal one more time.
  std::vector<VertexId> boundary_frozen_;
  const std::vector<VertexId> kNoRemovals;

  // Persistent announce staging (one vector per home machine).
  std::vector<std::vector<Word>> announce_parts_;
  // Chunked distribute scratch: cached active-upper spans from the
  // sequential pre-pass, slot-private collections (merged slot-ascending),
  // and the sharded staging of the distribute edges and records (the
  // freeze reports reuse the record shards once the distribute round has
  // drained them); the announce records shard the same way.
  std::vector<std::span<const VertexId>> upper_spans_;
  std::vector<std::vector<std::pair<VertexId, VertexId>>> slot_pairs_;
  std::vector<std::size_t> slot_counts_;
  std::vector<std::size_t> slot_frontier_;
  mpc::StageShards edge_shards_;
  mpc::StageShards record_shards_;
  mpc::StageShards announce_shards_;

  /// Flat neighbor-id CSR over the full graph (see constructor): the
  /// 4-byte stream behind the load rescans and departure walks.
  std::vector<std::size_t> nbr_off_;
  std::unique_ptr<VertexId[]> nbr_ids_;
};

}  // namespace

MatchingMpcResult matching_mpc(const Graph& g,
                               const MatchingMpcOptions& options) {
  MatchingMpcRun run(g, options);
  return run.run();
}

}  // namespace mpcg
