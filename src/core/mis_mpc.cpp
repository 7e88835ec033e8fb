#include "core/mis_mpc.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>

#include "baselines/local_mis.h"
#include "fault/checkpoint.h"
#include "fault/fault_plan.h"
#include "graph/residual.h"
#include "mpc/primitives.h"
#include "util/permutation.h"
#include "util/rng.h"

namespace mpcg {

namespace {

using mpc::Word;

Word encode_pair(VertexId a, VertexId b) noexcept {
  return (static_cast<Word>(a) << 32) | b;
}

std::pair<VertexId, VertexId> decode_pair(Word w) noexcept {
  return {static_cast<VertexId>(w >> 32),
          static_cast<VertexId>(w & 0xffffffffULL)};
}

/// Shared driver state. The aliveness in `residual_` is common knowledge
/// across machines (every update is announced through charged
/// gather+broadcast steps), so it is stored once; adjacency is owned by
/// each vertex's home machine and only leaves it through engine pushes.
///
/// All per-phase work is residual-proportional: aliveness, residual
/// degrees, and the alive-edge count (globally and per home) are maintained
/// incrementally by ResidualGraph and the kill hooks in
/// commit_mis_members — nothing here rescans the full edge list after
/// construction.
class MisMpcRun {
 public:
  MisMpcRun(const Graph& g, const MisMpcOptions& options)
      : g_(g), options_(options), n_(g.num_vertices()), residual_(g),
        window_csr_(n_), killed_(n_, 0), dying_(n_, 0) {
    const std::size_t min_words = 64;
    words_ = options.words_per_machine != 0
                 ? options.words_per_machine
                 : 8 * std::max(n_, min_words);
    const std::size_t m_edges = g.num_edges();
    machines_ = options.num_machines != 0
                    ? options.num_machines
                    : std::max<std::size_t>(2, (4 * m_edges + words_ - 1) /
                                                   words_);
    gather_budget_ = options.gather_budget != 0 ? options.gather_budget
                                                : words_ / 2;

    // Resident state per machine: adjacency shard + the permutation (rank
    // table) + the shared alive bitset. In auto-sizing mode, grow the
    // cluster until the (hash-balanced) shards actually fit — dense or
    // skewed graphs need more machines than the average-load estimate.
    const std::size_t fixed_words = n_ + n_ / 64 + 1;
    std::vector<std::size_t> shard_words;
    for (;;) {
      shard_words.assign(machines_, 0);
      home_.resize(n_);
      for (VertexId v = 0; v < n_; ++v) {
        home_[v] = static_cast<std::uint32_t>(
            mix64(options.seed, v, 0x401e) % machines_);
        shard_words[home_[v]] += 1 + g.degree(v);
      }
      const std::size_t max_shard =
          shard_words.empty()
              ? 0
              : *std::max_element(shard_words.begin(), shard_words.end());
      if (options.num_machines != 0 || max_shard + fixed_words <= words_ ||
          machines_ >= 2 * m_edges + 2) {
        break;
      }
      machines_ *= 2;
    }
    mpc::Config cfg{machines_, words_, options.strict};
    cfg.threads = options.threads;
    cfg.integrity = options.integrity;
    cfg.audit = options.audit;
    cfg.scrub_interval = options.scrub_interval;
    engine_.emplace(cfg);
    const bool durable = options.durable.enabled();
    // The scope is the configuration signature: a checkpoint written by
    // any differently-shaped run (including a reprovisioned rescale) reads
    // as "no checkpoint" and resume starts fresh.
    engine_->set_durability(
        options.durable, "mis:" + std::to_string(n_) + ":" +
                             std::to_string(g.num_edges()) + ":" +
                             std::to_string(machines_) + ":" +
                             std::to_string(words_) + ":" +
                             std::to_string(options.seed));
    for (std::size_t i = 0; i < machines_; ++i) {
      engine_->note_storage(i, shard_words[i] + fixed_words);
    }
    const bool plan_active =
        options.fault_plan != nullptr && !options.fault_plan->empty();
    if (plan_active || durable) {
      if (options.durable.generations != 0) {
        registry_.emplace(options.durable.generations);
      } else {
        registry_.emplace();
      }
      register_checkpoint_state();
      // The loop provider exists only for durability: keeping it out of
      // plan-only runs keeps their in-memory checkpoint accounting
      // (Metrics::checkpoint_bytes) exactly as PR 6-8 pinned it.
      if (durable) register_loop_state();
      engine_->set_fault_plan(plan_active ? options.fault_plan : nullptr,
                              &*registry_, options.fault_recovery);
    }
  }

  MisMpcResult run() {
    result_.machines_used = machines_;
    result_.words_per_machine_used = words_;
    if (n_ == 0) return std::move(result_);

    // Resume reinstates every provider (permutation, MIS members,
    // aliveness, loop cursor) and the engine's metrics; the preamble
    // below already happened in the interrupted process.
    const bool resumed = engine_->try_resume();
    if (!resumed) {
      // The leader draws the permutation and broadcasts it (paper: "all
      // vertices agree on a uniform random order").
      Rng rng(options_.seed);
      perm_ = random_permutation(n_, rng);
      {
        std::vector<Word> payload(perm_.begin(), perm_.end());
        mpc::broadcast_view(*engine_, 0, payload);
      }
      rank_of_ = invert_permutation(perm_);
    }

    const double delta0 = std::max<double>(2.0, static_cast<double>(
                                                    g_.max_degree()));
    const double log_delta = std::log2(delta0);

    while (true) {
      // Safe point: provider state is self-consistent and the message
      // plane is quiescent here, so this loop boundary is where durable
      // generations persist (and where a resumed process re-enters).
      engine_->checkpoint_boundary();
      const std::uint64_t alive_edges = count_alive_edges();
      if (alive_edges <= gather_budget_) {
        final_gather(result_);
        break;
      }
      if (options_.use_sparsified_stage &&
          max_alive_degree() <= options_.degree_switch) {
        sparsified_stage(result_);
        final_gather(result_);
        break;
      }
      // Next rank phase: process ranks [next_rank, n / Delta^{alpha^i}).
      ++result_.rank_phases;
      const double exponent =
          std::pow(options_.alpha, static_cast<double>(result_.rank_phases));
      auto upper = static_cast<std::size_t>(
          std::llround(static_cast<double>(n_) *
                       std::pow(2.0, -exponent * log_delta)));
      upper = std::clamp(upper, next_rank_ + 1, n_);
      rank_phase(next_rank_, upper, result_);
      next_rank_ = upper;
    }

    result_.metrics = engine_->metrics();
    result_.mis = std::move(mis_);
    return std::move(result_);
  }

 private:
  /// Registers the driver's durable per-round state with the checkpoint
  /// registry the engine captures/restores around injected faults (see
  /// matching_mpc.cpp for the shared contract: capture and restore happen
  /// at the same quiescent point inside one exchange, so derived state is
  /// rebuilt on restore or stays valid because its inputs round-trip).
  void register_checkpoint_state() {
    auto& reg = *registry_;
    // The shared random order; rank_of_ is derived, recomputed on restore.
    // Empty until run() draws it — the first exchange (its own broadcast)
    // captures it already assigned.
    reg.register_state(
        "permutation",
        [this](std::vector<Word>& out) {
          out.push_back(perm_.size());
          for (const std::uint32_t r : perm_) out.push_back(r);
        },
        [this](fault::SectionReader& in) {
          const auto w = in.take_counted();
          perm_.assign(w.begin(), w.end());
          rank_of_ = perm_.empty() ? std::vector<std::uint32_t>{}
                                   : invert_permutation(perm_);
        });
    // MIS members committed so far (append-only).
    reg.register_state(
        "mis-members",
        [this](std::vector<Word>& out) {
          out.push_back(mis_.size());
          for (const VertexId v : mis_) out.push_back(v);
        },
        [this](fault::SectionReader& in) {
          const auto w = in.take_counted();
          mis_.assign(w.begin(), w.end());
        });
    // Residual aliveness, bit-packed. Aliveness only shrinks, so restore
    // reconciles by killing any vertex alive now but dead in the
    // checkpoint (the reverse cannot happen at a same-round restore).
    reg.register_state(
        "aliveness",
        [this](std::vector<Word>& out) {
          const std::size_t base = out.size();
          out.resize(base + (n_ + 63) / 64, 0);
          for (VertexId v = 0; v < n_; ++v) {
            if (residual_.alive(v)) out[base + v / 64] |= Word{1} << (v % 64);
          }
        },
        [this](fault::SectionReader& in) {
          const auto w = in.take_span((n_ + 63) / 64);
          std::vector<VertexId> to_kill;
          for (VertexId v = 0; v < n_; ++v) {
            const bool want = ((w[v / 64] >> (v % 64)) & Word{1}) != 0;
            if (!want && residual_.alive(v)) to_kill.push_back(v);
          }
          if (!to_kill.empty()) residual_.kill_batch(to_kill);
        });
  }

  /// The run-loop cursor (registered only for durability — see ctor): the
  /// next rank to process plus the result counters accumulated so far, so
  /// a resumed process re-enters the phase loop exactly where the
  /// persisted safe point left it.
  void register_loop_state() {
    registry_->register_state(
        "loop",
        [this](std::vector<Word>& out) {
          out.push_back(next_rank_);
          out.push_back(result_.rank_phases);
          out.push_back(result_.sparsified_iterations);
          out.push_back(result_.final_gather_edges);
          out.push_back(result_.window_edges_per_phase.size());
          for (const std::size_t e : result_.window_edges_per_phase) {
            out.push_back(e);
          }
        },
        [this](fault::SectionReader& in) {
          next_rank_ = static_cast<std::size_t>(in.take());
          result_.rank_phases = static_cast<std::size_t>(in.take());
          result_.sparsified_iterations = static_cast<std::size_t>(in.take());
          result_.final_gather_edges = static_cast<std::size_t>(in.take());
          const auto w = in.take_counted();
          result_.window_edges_per_phase.assign(w.begin(), w.end());
        });
  }

  /// Alive-alive edge count: every home contributes its local shard's
  /// count and the values are all-reduced (3 charged rounds — the engine
  /// sees one word per machine either way). The simulator reads the total
  /// from the residual graph's maintained counter instead of materializing
  /// the per-home splits, so no edge rescan happens.
  std::uint64_t count_alive_edges() {
    std::vector<Word> per(machines_, 0);
    per[0] = residual_.alive_edge_count();
    return mpc::all_reduce_sum(*engine_, per);
  }

  /// Maximum alive degree, computed per home and all-reduced. O(alive
  /// vertices) via the maintained residual degrees.
  std::uint64_t max_alive_degree() {
    std::vector<Word> per(machines_, 0);
    for (const VertexId v : residual_.alive_vertices()) {
      per[home_[v]] = std::max<Word>(per[home_[v]],
                                     residual_.residual_degree(v));
    }
    return mpc::all_reduce_max(*engine_, per);
  }

  /// Broadcasts the new MIS members, lets every home decide which of its
  /// vertices die (member or neighbor of one), and announces the deaths via
  /// gather + broadcast so the alive bitset stays common knowledge.
  void commit_mis_members(const std::vector<VertexId>& mis_new) {
    if (mis_new.empty()) return;
    std::vector<Word> payload(mis_new.begin(), mis_new.end());
    mpc::broadcast_view(*engine_, 0, payload);

    // Deaths: the members and their alive neighborhoods, announced in
    // ascending vertex order.
    for (const VertexId v : mis_new) dying_[v] = 1;
    for (const VertexId v : mis_new) {
      for (const Arc& a : residual_.alive_arcs(v)) dying_[a.to] = 1;
    }
    std::vector<std::vector<Word>> dead_parts(machines_);
    std::vector<VertexId> died;
    for (const VertexId v : residual_.alive_vertices()) {
      if (dying_[v]) {
        dead_parts[home_[v]].push_back(v);
        died.push_back(v);
      }
    }
    const auto gathered = mpc::gather_to(*engine_, 0, dead_parts);
    mpc::broadcast_view(*engine_, 0, gathered);
    residual_.kill_batch(died);
    for (const VertexId v : died) dying_[v] = 0;
    mis_.insert(mis_.end(), mis_new.begin(), mis_new.end());
  }

  /// Plays sequential greedy over the gathered window edges (leader-side):
  /// builds the window adjacency in the reusable CSR scratch, walks ranks
  /// [lo, hi), and returns the joiners. Reads the leader's inbox through
  /// the zero-copy view; the only materialization is the decoded pair list.
  std::vector<VertexId> leader_greedy(const mpc::InboxView& inbox,
                                      std::size_t lo, std::size_t hi) {
    pairs_scratch_.clear();
    pairs_scratch_.reserve(inbox.size());
    for (const Word w : inbox) pairs_scratch_.push_back(decode_pair(w));
    window_csr_.build(pairs_scratch_);
    std::vector<VertexId> mis_new;
    for (std::size_t r = lo; r < hi; ++r) {
      const VertexId v = perm_[r];
      if (!residual_.alive(v) || killed_[v]) continue;
      mis_new.push_back(v);
      for (const VertexId u : window_csr_.neighbors(v)) killed_[u] = 1;
    }
    for (const VertexId t : window_csr_.touched()) killed_[t] = 0;
    window_csr_.clear();
    return mis_new;
  }

  /// Replays the collected staging records through the engine outboxes,
  /// distinct senders in parallel (per-sender engine staging is disjoint;
  /// per-sender record order is the iteration order).
  void drain_stage_shards(mpc::ExecutionBackend& backend) {
    stage_shards_.drain(
        backend,
        [&](std::uint32_t snd, std::span<const mpc::StageRecord> recs) {
          mpc::Outbox ob = engine_->outbox(snd);
          for (const mpc::StageRecord& rec : recs) {
            ob.append(rec.to, rec.word);
          }
        });
  }

  /// One rank phase: gather the window-induced residual subgraph at the
  /// leader, play greedy through the window ranks, commit the members.
  void rank_phase(std::size_t lo, std::size_t hi, MisMpcResult& result) {
    // Homes stream alive window-induced edges (deduped at the lower vertex
    // id) to the leader: one outbox per vertex burst — every word flows
    // home_[v] -> 0, so a burst stages as a single run.
    mpc::ExecutionBackend& backend = engine_->backend();
    // Sequential pre-pass: the lazy alive_upper_arcs accessor mutates
    // shared per-vertex segment state, so materialize every window span
    // first (spans for distinct vertices stay valid simultaneously); dead
    // vertices leave empty spans.
    arc_spans_.assign(hi - lo, {});
    for (std::size_t r = lo; r < hi; ++r) {
      const VertexId v = perm_[r];
      if (residual_.alive(v)) {
        arc_spans_[r - lo] = residual_.alive_upper_arcs(v);
      }
    }
    stage_shards_.reset(backend.threads(), machines_);
    backend.run_chunks(
        lo, hi, [&](std::size_t slot, std::size_t clo, std::size_t chi) {
          for (std::size_t r = clo; r < chi; ++r) {
            const VertexId v = perm_[r];
            for (const Arc& a : arc_spans_[r - lo]) {
              if (rank_of_[a.to] >= lo && rank_of_[a.to] < hi) {
                stage_shards_.add(slot, home_[v], 0, encode_pair(v, a.to));
              }
            }
          }
        });
    drain_stage_shards(backend);
    engine_->exchange();
    const mpc::InboxView inbox = engine_->inbox_view(0);
    result.window_edges_per_phase.push_back(inbox.size());

    // Leader: window adjacency + greedy through ranks lo..hi-1. (The
    // leader knows ranks and aliveness — both common knowledge.)
    commit_mis_members(leader_greedy(inbox, lo, hi));
  }

  /// Sparsified stage: Ghaffari-style local dynamics on the low-degree
  /// residual graph. Each iteration exchanges (mark, desire) words along
  /// alive edges and announces the joins/deaths.
  void sparsified_stage(MisMpcResult& result) {
    // Snapshot the driver's residual view (bulk copy): the dynamics evolve
    // their own aliveness, which the driver mirrors through the announced
    // commits.
    LocalMisState state(residual_, mix64(options_.seed, 0x5fa1, 1));
    while (count_alive_edges() > gather_budget_) {
      // Neighbors exchange their mark bit and desire level: one word each
      // way per alive edge. The forward words all leave home_[v], so they
      // ride one outbox per vertex; the replies come from the neighbor's
      // home and stay on the per-word wrapper.
      mpc::ExecutionBackend& backend = engine_->backend();
      // Both stagings per arc shard by sender, in arc order, so every
      // sender's stream interleaves its forward words and replies in
      // iteration order (also when the two homes coincide: the records
      // land in one bucket, still in order).
      const std::span<const VertexId> alive = residual_.alive_vertices();
      arc_spans_.assign(alive.size(), {});
      for (std::size_t i = 0; i < alive.size(); ++i) {
        arc_spans_[i] = residual_.alive_upper_arcs(alive[i]);
      }
      stage_shards_.reset(backend.threads(), machines_);
      backend.run_chunks(
          0, alive.size(),
          [&](std::size_t slot, std::size_t clo, std::size_t chi) {
            for (std::size_t i = clo; i < chi; ++i) {
              const VertexId v = alive[i];
              for (const Arc& a : arc_spans_[i]) {
                stage_shards_.add(slot, home_[v], home_[a.to],
                                  encode_pair(v, a.to));
                stage_shards_.add(slot, home_[a.to], home_[v],
                                  encode_pair(a.to, v));
              }
            }
          });
      drain_stage_shards(backend);
      engine_->exchange();
      const auto joined = state.step();
      ++result.sparsified_iterations;
      commit_mis_members(joined);
      if (state.alive_count() == 0) break;
    }
  }

  /// Gathers every remaining alive-alive edge at the leader, which finishes
  /// the greedy process in rank order and commits the members.
  void final_gather(MisMpcResult& result) {
    mpc::ExecutionBackend& backend = engine_->backend();
    const std::span<const VertexId> alive = residual_.alive_vertices();
    arc_spans_.assign(alive.size(), {});
    for (std::size_t i = 0; i < alive.size(); ++i) {
      arc_spans_[i] = residual_.alive_upper_arcs(alive[i]);
    }
    stage_shards_.reset(backend.threads(), machines_);
    backend.run_chunks(
        0, alive.size(),
        [&](std::size_t slot, std::size_t clo, std::size_t chi) {
          for (std::size_t i = clo; i < chi; ++i) {
            const VertexId v = alive[i];
            for (const Arc& a : arc_spans_[i]) {
              stage_shards_.add(slot, home_[v], 0, encode_pair(v, a.to));
            }
          }
        });
    drain_stage_shards(backend);
    engine_->exchange();
    const mpc::InboxView inbox = engine_->inbox_view(0);
    result.final_gather_edges = inbox.size();
    commit_mis_members(leader_greedy(inbox, 0, n_));
  }

  const Graph& g_;
  const MisMpcOptions& options_;
  std::size_t n_;
  std::size_t machines_ = 0;
  std::size_t words_ = 0;
  std::size_t gather_budget_ = 0;
  std::optional<mpc::Engine> engine_;
  /// Round-level checkpoint providers for the engine's fault recovery;
  /// engaged only when a FaultPlan is attached (see constructor).
  std::optional<fault::CheckpointRegistry> registry_;

  ResidualGraph residual_;
  CsrScratch window_csr_;
  std::vector<std::pair<VertexId, VertexId>> pairs_scratch_;
  /// Staging scratch: per-vertex alive-arc spans cached by the sequential
  /// pre-pass (the lazy accessor may not run concurrently), plus the
  /// collect-then-drain shards (see mpc::StageShards).
  std::vector<std::span<const Arc>> arc_spans_;
  mpc::StageShards stage_shards_;
  std::vector<char> killed_;
  std::vector<char> dying_;

  std::vector<std::uint32_t> home_;
  std::vector<std::uint32_t> perm_;
  std::vector<std::uint32_t> rank_of_;
  std::vector<VertexId> mis_;
  /// Run-loop cursor + accumulating result, promoted to members so the
  /// "loop" durable provider can serialize them at safe points.
  std::size_t next_rank_ = 0;
  MisMpcResult result_;
};

}  // namespace

MisMpcResult mis_mpc(const Graph& g, const MisMpcOptions& options) {
  MisMpcRun run(g, options);
  return run.run();
}

}  // namespace mpcg
