// The randomized-greedy MIS process of Theorem 1.1, written once for both
// models (internal; not exported from mpcg.h).
//
// The paper's MIS result is one process in two models: draw a uniform
// random order, gather each rank window n / Delta^{alpha^i} at a leader
// that plays sequential greedy through it, switch to the sparsified
// local-MIS dynamics once the residual degree is small, and gather the
// O(n)-edge leftover at the leader. MisGreedy owns everything about that
// process that does not depend on the model: the permutation, the residual
// graph, the members and the loop cursor, the checkpoint providers, the
// alpha-schedule loop, the upper-arc span pre-pass, the death-set sweep and
// the leader's greedy. A driver (core/mis_mpc.cpp, core/mis_cclique.cpp)
// supplies only its transport, as a template argument of run():
//
//   bool try_resume();                  // the engine's resume attempt
//   void checkpoint_boundary();         // the engine's durable safe point
//   std::size_t round() const;          // engine rounds so far
//   void announce_permutation();        // the order becomes common knowledge
//   std::uint64_t count_alive_edges();  // alive-alive edges, reduced
//   std::uint64_t max_alive_degree();   // max residual degree, reduced
//   // Runs stage(sink, i) for i in [0, items) over the engine's backend,
//   // where sink(v, word) stages one word from vertex v's side to the
//   // leader; delivers everything, passes the gather's edge count to
//   // record(std::size_t) and hands each stretch the leader received to
//   // take(std::span<const Word>).
//   void gather(std::size_t items, Stage stage, Record record, Take take);
//   // Makes `members` (from the leader's greedy when from_leader) and the
//   // `deaths` they cause common knowledge.
//   void announce(const std::vector<VertexId>& members,
//                 const std::vector<VertexId>& deaths, bool from_leader);
//   void sparsified_exchange();         // one round of the local dynamics
//
// Both models therefore make exactly the same decisions for the same
// schedule — the golden tests compare them output for output.
#ifndef MPCG_CORE_MIS_GREEDY_H
#define MPCG_CORE_MIS_GREEDY_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "baselines/local_mis.h"
#include "fault/checkpoint.h"
#include "fault/durable.h"
#include "fault/fault_plan.h"
#include "graph/graph.h"
#include "graph/residual.h"
#include "util/permutation.h"
#include "util/rng.h"

namespace mpcg {

/// One gathered edge (a, b) as one word: a in the high half.
inline std::uint64_t encode_pair(VertexId a, VertexId b) noexcept {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

/// The model-independent knobs of the process (the drivers' Options
/// fields of the same names, gather_budget already resolved).
struct MisSchedule {
  std::uint64_t seed = 1;
  double alpha = 0.75;
  std::size_t degree_switch = 16;
  bool use_sparsified_stage = true;
  std::size_t gather_budget = 0;
};

class MisGreedy {
 public:
  using Word = std::uint64_t;

  /// `driver` names the caller in error messages.
  MisGreedy(const Graph& g, const char* driver, const MisSchedule& schedule);

  /// Hands `engine` the fault plan (when non-empty) and a checkpoint
  /// registry of the process's providers, if a plan or durability needs
  /// one (either engine's set_fault_plan).
  template <typename Engine>
  void attach_faults(Engine& engine, const fault::FaultPlan* plan,
                     bool recover, const fault::DurableOptions& durable) {
    const bool plan_active = plan != nullptr && !plan->empty();
    if (!plan_active && !durable.enabled()) return;
    engine.set_fault_plan(plan_active ? plan : nullptr,
                          &make_registry(durable), recover);
  }

  /// The residual graph the transports read aliveness and degrees from
  /// (non-const: its accessors compact lazily).
  [[nodiscard]] ResidualGraph& residual() noexcept { return residual_; }
  [[nodiscard]] const std::vector<std::uint32_t>& perm() const noexcept {
    return perm_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& rank_of() const noexcept {
    return rank_of_;
  }

  /// Upper-arc spans of `vertices` (empty for dead ones), in order: the
  /// sequential pre-pass chunked staging loops read (the lazy
  /// alive_upper_arcs accessor mutates shared segment state, so it may not
  /// run inside a chunk; spans of distinct vertices stay valid together).
  std::span<const std::span<const Arc>> upper_spans(
      std::span<const VertexId> vertices);

  /// Runs the process to completion over `transport`.
  template <typename Transport>
  void run(Transport& t);

  /// Moves the members and the counters into a driver's result.
  template <typename Result>
  void finish(Result& r) {
    r.mis = std::move(mis_);
    r.rank_phases = rank_phases_;
    r.sparsified_iterations = sparsified_iterations_;
    r.final_gather_edges = final_gather_edges_;
    r.window_edges_per_phase = std::move(window_edges_per_phase_);
  }

 private:
  /// The "permutation", "mis-members" and "aliveness" providers and, for
  /// durability only, the "loop" cursor (kept out of plan-only runs so
  /// their checkpoint_bytes stay as pinned).
  fault::CheckpointRegistry& make_registry(
      const fault::DurableOptions& durable);
  /// Decodes delivered words into leader-side edges. A flipped bit that
  /// escaped the wire checks can push an endpoint past n; that throws
  /// fault::IntegrityError instead of indexing out of bounds.
  void take_gathered(std::span<const Word> words, std::size_t round);
  /// Sequential greedy through ranks [lo, hi) over the taken edges.
  std::vector<VertexId> leader_greedy(std::size_t lo, std::size_t hi);
  /// The members plus their alive neighbors, ascending by vertex id.
  const std::vector<VertexId>& death_set(const std::vector<VertexId>& members);

  template <typename Transport>
  void commit(Transport& t, const std::vector<VertexId>& members,
              bool from_leader);
  template <typename Transport>
  void rank_phase(Transport& t, std::size_t lo, std::size_t hi);
  template <typename Transport>
  void sparsified_stage(Transport& t);
  template <typename Transport>
  void final_gather(Transport& t);

  const Graph& g_;
  const char* driver_;
  MisSchedule schedule_;
  std::size_t n_;
  std::optional<fault::CheckpointRegistry> registry_;

  std::vector<std::uint32_t> perm_;
  std::vector<std::uint32_t> rank_of_;
  ResidualGraph residual_;
  std::vector<VertexId> mis_;
  /// Loop cursor and result counters (the "loop" provider's state).
  std::size_t next_rank_ = 0;
  std::size_t rank_phases_ = 0;
  std::size_t sparsified_iterations_ = 0;
  std::size_t final_gather_edges_ = 0;
  std::vector<std::size_t> window_edges_per_phase_;

  /// Scratch: cached arc spans, the leader's decoded edges and adjacency,
  /// greedy kill flags and the death sweep (flags zeroed after each use).
  std::vector<std::span<const Arc>> arc_spans_;
  std::vector<std::pair<VertexId, VertexId>> pairs_;
  CsrScratch csr_;
  std::vector<char> killed_;
  std::vector<char> dying_;
  std::vector<VertexId> died_;
};

template <typename Transport>
void MisGreedy::run(Transport& t) {
  if (n_ == 0) return;
  // Resume reinstates every provider and the engine's metrics; the
  // preamble already happened in the interrupted process.
  if (!t.try_resume()) {
    Rng rng(schedule_.seed);
    perm_ = random_permutation(n_, rng);
    rank_of_ = invert_permutation(perm_);
    t.announce_permutation();
  }
  const double log_delta = std::log2(
      std::max<double>(2.0, static_cast<double>(g_.max_degree())));
  while (true) {
    // Safe point: provider state is self-consistent and the message plane
    // quiescent, so durable generations persist (and a resumed process
    // re-enters) here.
    t.checkpoint_boundary();
    if (t.count_alive_edges() <= schedule_.gather_budget) {
      final_gather(t);
      return;
    }
    if (schedule_.use_sparsified_stage &&
        t.max_alive_degree() <= schedule_.degree_switch) {
      sparsified_stage(t);
      final_gather(t);
      return;
    }
    // Next rank phase: ranks [next_rank, n / Delta^{alpha^i}).
    ++rank_phases_;
    const double exponent =
        std::pow(schedule_.alpha, static_cast<double>(rank_phases_));
    auto upper = static_cast<std::size_t>(std::llround(
        static_cast<double>(n_) * std::pow(2.0, -exponent * log_delta)));
    upper = std::clamp(upper, next_rank_ + 1, n_);
    rank_phase(t, next_rank_, upper);
    next_rank_ = upper;
  }
}

template <typename Transport>
void MisGreedy::commit(Transport& t, const std::vector<VertexId>& members,
                       bool from_leader) {
  if (members.empty()) return;
  // No provider state changes until the announcement rounds are over, so
  // a fault inside them checkpoints the same images either way.
  const std::vector<VertexId>& deaths = death_set(members);
  t.announce(members, deaths, from_leader);
  residual_.kill_batch(deaths);
  for (const VertexId v : deaths) dying_[v] = 0;
  mis_.insert(mis_.end(), members.begin(), members.end());
}

template <typename Transport>
void MisGreedy::rank_phase(Transport& t, std::size_t lo, std::size_t hi) {
  // Every alive window vertex ships its window-induced upper arcs (each
  // edge once, from its lower endpoint) to the leader.
  upper_spans(std::span<const VertexId>(perm_).subspan(lo, hi - lo));
  t.gather(
      hi - lo,
      [this, lo, hi](const auto& sink, std::size_t i) {
        const VertexId v = perm_[lo + i];
        for (const Arc& a : arc_spans_[i]) {
          if (rank_of_[a.to] >= lo && rank_of_[a.to] < hi) {
            sink(v, encode_pair(v, a.to));
          }
        }
      },
      [this](std::size_t edges) { window_edges_per_phase_.push_back(edges); },
      [this, &t](std::span<const Word> w) { take_gathered(w, t.round()); });
  commit(t, leader_greedy(lo, hi), true);
}

template <typename Transport>
void MisGreedy::sparsified_stage(Transport& t) {
  // The dynamics evolve their own aliveness on a snapshot of the residual
  // view; the process mirrors it through the announced commits.
  LocalMisState state(residual_, mix64(schedule_.seed, 0x5fa1, 1));
  while (t.count_alive_edges() > schedule_.gather_budget) {
    t.sparsified_exchange();
    const auto joined = state.step();
    ++sparsified_iterations_;
    commit(t, joined, false);
    if (state.alive_count() == 0) break;
  }
}

template <typename Transport>
void MisGreedy::final_gather(Transport& t) {
  // Every remaining alive-alive edge, from its lower endpoint in
  // ascending order; the leader finishes the greedy in rank order.
  const std::span<const VertexId> alive = residual_.alive_vertices();
  upper_spans(alive);
  t.gather(
      alive.size(),
      [this, alive](const auto& sink, std::size_t i) {
        const VertexId v = alive[i];
        for (const Arc& a : arc_spans_[i]) sink(v, encode_pair(v, a.to));
      },
      [this](std::size_t edges) { final_gather_edges_ = edges; },
      [this, &t](std::span<const Word> w) { take_gathered(w, t.round()); });
  commit(t, leader_greedy(0, n_), true);
}

}  // namespace mpcg

#endif  // MPCG_CORE_MIS_GREEDY_H
