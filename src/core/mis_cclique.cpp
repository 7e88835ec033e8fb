#include "core/mis_cclique.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <unordered_map>

#include "baselines/local_mis.h"
#include "fault/checkpoint.h"
#include "fault/fault_plan.h"
#include "graph/residual.h"
#include "util/permutation.h"
#include "util/rng.h"

namespace mpcg {

namespace {

using cclique::Message;
using cclique::Word;

Word encode_pair(VertexId a, VertexId b) noexcept {
  return (static_cast<Word>(a) << 32) | b;
}

std::pair<VertexId, VertexId> decode_pair(Word w) noexcept {
  return {static_cast<VertexId>(w >> 32),
          static_cast<VertexId>(w & 0xffffffffULL)};
}

/// CONGESTED-CLIQUE driver of the same greedy process mis_mpc simulates.
/// Aliveness, residual degrees, and the alive-edge count live in a
/// ResidualGraph and are maintained incrementally through the announced
/// kills — per-phase work scales with the residual, never with a rescan of
/// g_.edges(). All residual iteration orders (alive_vertices ascending,
/// alive_arcs / alive_upper_arcs ascending by neighbor) match the filtered
/// full scans they replaced, so broadcasts, Lenzen batches, and the MIS
/// output are bit-identical to the pre-port driver (and to mis_mpc, as the
/// coupling tests pin).
class MisCcliqueRun {
 public:
  MisCcliqueRun(const Graph& g, const MisCcliqueOptions& options)
      : g_(g), options_(options), n_(g.num_vertices()),
        engine_(std::max<std::size_t>(n_, 1), options.strict,
                options.integrity, options.audit, options.scrub_interval,
                options.threads),
        residual_(g), dying_(n_, 0) {
    gather_budget_ = options.gather_budget != 0 ? options.gather_budget : n_;
    const bool durable = options.durable.enabled();
    if (durable) {
      engine_.set_durability(
          options.durable,
          "mis_cc:" + std::to_string(n_) + ":" +
              std::to_string(g.num_edges()) + ":" +
              std::to_string(options.seed));
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
      // Durability-only provider: kept out of plan-only runs so their
      // in-memory checkpoint accounting stays as PR 6-8 pinned it.
      if (durable) register_loop_state();
      engine_.set_fault_plan(plan_active ? options.fault_plan : nullptr,
                             &*registry_, options.fault_recovery);
    }
  }

  MisCcliqueResult run() {
    if (n_ == 0) return std::move(result_);

    const bool resumed = engine_.try_resume();
    if (!resumed) {
      // Leader draws the order, tells each player its rank (one word each),
      // and every player broadcasts its rank — the order becomes common
      // knowledge in 2 rounds (paper, Section 3.2).
      Rng rng(options_.seed);
      perm_ = random_permutation(n_, rng);
      rank_of_ = invert_permutation(perm_);
      for (VertexId v = 1; v < n_; ++v) {
        engine_.send(0, v, rank_of_[v]);
      }
      engine_.exchange();
      for (VertexId v = 0; v < n_; ++v) {
        engine_.broadcast(v, rank_of_[v]);
      }
      engine_.exchange();
    }

    const double delta0 = std::max<double>(2.0, static_cast<double>(
                                                    g_.max_degree()));
    const double log_delta = std::log2(delta0);

    while (true) {
      // Safe point: quiescent loop boundary where durable generations
      // persist and a resumed process re-enters.
      engine_.checkpoint_boundary();
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

    result_.metrics = engine_.metrics();
    result_.mis = std::move(mis_);
    return std::move(result_);
  }

 private:
  /// Driver-side checkpoint providers, mirroring mis_mpc's set: the shared
  /// permutation (rank_of_ derived on restore), the append-only member
  /// list, and the residual aliveness bitmap (aliveness only shrinks, so
  /// restore reconciles by killing).  The Lenzen batch unit needs no
  /// provider of its own — the engine treats a batch as its own
  /// retransmission unit and captures this registry when a fault lands
  /// inside one.
  void register_checkpoint_state() {
    auto& reg = *registry_;
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

  /// The run-loop cursor (registered only for durability): the next rank
  /// plus the result counters accumulated so far.
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

  /// Every alive player broadcasts its alive degree; everybody can then
  /// compute the total edge count (one round). The degrees come from the
  /// residual graph's maintained counters — no adjacency scan.
  std::uint64_t count_alive_edges() {
    std::uint64_t sum = 0;
    for (const VertexId v : residual_.alive_vertices()) {
      const std::uint64_t d = residual_.residual_degree(v);
      engine_.broadcast(v, d);
      sum += d;
    }
    engine_.exchange();
    return sum / 2;
  }

  std::uint64_t max_alive_degree() {
    for (const VertexId v : residual_.alive_vertices()) {
      engine_.broadcast(v, residual_.residual_degree(v));
    }
    engine_.exchange();
    return residual_.max_alive_degree();
  }

  /// Members broadcast their membership; every player checks its own
  /// adjacency and the dying broadcast their deaths. Two rounds; the alive
  /// flags stay common knowledge. Deaths are found from the members'
  /// residual neighborhoods (O(residual degree), not a full-vertex sweep)
  /// and announced in ascending id order, as before.
  void commit_via_broadcasts(const std::vector<VertexId>& mis_new) {
    if (mis_new.empty()) return;
    for (const VertexId v : mis_new) {
      engine_.broadcast(v, v);
    }
    engine_.exchange();
    for (const VertexId v : mis_new) dying_[v] = 1;
    for (const VertexId v : mis_new) {
      for (const Arc& a : residual_.alive_arcs(v)) dying_[a.to] = 1;
    }
    std::vector<VertexId> died;
    for (const VertexId v : residual_.alive_vertices()) {
      if (!dying_[v]) continue;
      died.push_back(v);
      engine_.broadcast(v, v);
    }
    engine_.exchange();
    residual_.kill_batch(died);
    for (const VertexId v : died) dying_[v] = 0;
    mis_.insert(mis_.end(), mis_new.begin(), mis_new.end());
  }

  /// Leader tells each new member it joined (one round), then the usual
  /// membership/death broadcasts follow.
  void commit_from_leader(const std::vector<VertexId>& mis_new) {
    if (mis_new.empty()) return;
    for (const VertexId v : mis_new) {
      if (v != 0) engine_.send(0, v, 1);
    }
    engine_.exchange();
    commit_via_broadcasts(mis_new);
  }

  /// Refills route_stream_ from a chunked loop over [begin, end):
  /// stage(out, i) appends item i's words to its chunk's stream, and the
  /// chunk streams are concatenated slot-ascending — append_stream's
  /// boundary merge makes that the stream of one loop over the range.
  template <typename StageFn>
  void collect_slot_streams(std::size_t begin, std::size_t end,
                            StageFn&& stage) {
    mpc::ExecutionBackend& backend = engine_.backend();
    const std::size_t slots = backend.threads();
    // Clear every slot up front: run_chunks skips empty chunks, which must
    // not leak a previous phase's stream.
    if (slot_streams_.size() < slots) slot_streams_.resize(slots);
    for (std::size_t s = 0; s < slots; ++s) slot_streams_[s].clear();
    backend.run_chunks(
        begin, end, [&](std::size_t slot, std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) stage(slot_streams_[slot], i);
        });
    route_stream_.clear();
    for (std::size_t s = 0; s < slots; ++s) {
      route_stream_.append_stream(slot_streams_[s]);
    }
  }

  /// Window-induced residual edges routed to the leader (Lenzen), greedy
  /// through the window ranks at the leader.
  void rank_phase(std::size_t lo, std::size_t hi, MisCcliqueResult& result) {
    // Run-length staging: each vertex's window edges all flow v -> leader,
    // so a burst is one run descriptor over the word stream instead of a
    // 16-byte Message record per edge.
    // Sequential pre-pass: the lazy alive_upper_arcs accessor mutates
    // shared scratch, so the chunked staging reads cached spans.
    arc_spans_.assign(hi - lo, {});
    for (std::size_t r = lo; r < hi; ++r) {
      const VertexId v = perm_[r];
      if (residual_.alive(v)) {
        arc_spans_[r - lo] = residual_.alive_upper_arcs(v);
      }
    }
    collect_slot_streams(
        lo, hi, [&](cclique::RouteStream& out, std::size_t r) {
          const VertexId v = perm_[r];
          for (const Arc& a : arc_spans_[r - lo]) {
            if (rank_of_[a.to] >= lo && rank_of_[a.to] < hi) {
              out.append(v, 0, encode_pair(v, a.to));
            }
          }
        });
    result.window_edges_per_phase.push_back(route_stream_.size());
    const auto& delivered = engine_.lenzen_route_view(route_stream_);

    std::unordered_map<VertexId, std::vector<VertexId>> adj;
    for (const cclique::RouteSegment& seg : delivered[0].segments()) {
      for (std::uint32_t i = 0; i < seg.count; ++i) {
        const auto [u, v] = decode_pair(seg.words[i]);
        adj[u].push_back(v);
        adj[v].push_back(u);
      }
    }
    std::vector<VertexId> mis_new;
    std::unordered_map<VertexId, char> killed;
    for (std::size_t r = lo; r < hi; ++r) {
      const VertexId v = perm_[r];
      if (!residual_.alive(v) || killed.count(v) != 0) continue;
      mis_new.push_back(v);
      const auto it = adj.find(v);
      if (it != adj.end()) {
        for (const VertexId u : it->second) killed[u] = 1;
      }
    }
    commit_from_leader(mis_new);
  }

  void sparsified_stage(MisCcliqueResult& result) {
    // Snapshot the driver's residual view (bulk copy); the dynamics evolve
    // their own aliveness, which the driver mirrors through the announced
    // commits.
    LocalMisState state(residual_, mix64(options_.seed, 0x5fa1, 1));
    while (count_alive_edges() > gather_budget_) {
      // Each alive player broadcasts its mark and desire level (the
      // dynamics read only neighbors' values; a broadcast certainly
      // delivers them). One round.
      for (const VertexId v : residual_.alive_vertices()) {
        engine_.broadcast(v, v);
      }
      engine_.exchange();
      const auto joined = state.step();
      ++result.sparsified_iterations;
      commit_via_broadcasts(joined);
      if (state.alive_count() == 0) break;
    }
  }

  void final_gather(MisCcliqueResult& result) {
    // Canonical-edge iteration over the residual: (u ascending, v
    // ascending) is exactly the alive-alive filter of g_.edges() in edge-id
    // order, touching only surviving arcs. Staged as one run per vertex.
    const std::span<const VertexId> alive = residual_.alive_vertices();
    arc_spans_.assign(alive.size(), {});
    for (std::size_t i = 0; i < alive.size(); ++i) {
      arc_spans_[i] = residual_.alive_upper_arcs(alive[i]);
    }
    collect_slot_streams(
        0, alive.size(), [&](cclique::RouteStream& out, std::size_t i) {
          const VertexId u = alive[i];
          for (const Arc& a : arc_spans_[i]) {
            out.append(u, 0, encode_pair(u, a.to));
          }
        });
    result.final_gather_edges = route_stream_.size();
    const auto& delivered = engine_.lenzen_route_view(route_stream_);

    std::unordered_map<VertexId, std::vector<VertexId>> adj;
    for (const cclique::RouteSegment& seg : delivered[0].segments()) {
      for (std::uint32_t i = 0; i < seg.count; ++i) {
        const auto [u, v] = decode_pair(seg.words[i]);
        adj[u].push_back(v);
        adj[v].push_back(u);
      }
    }
    std::vector<VertexId> mis_new;
    std::unordered_map<VertexId, char> killed;
    for (std::size_t r = 0; r < n_; ++r) {
      const VertexId v = perm_[r];
      if (!residual_.alive(v) || killed.count(v) != 0) continue;
      mis_new.push_back(v);
      const auto it = adj.find(v);
      if (it != adj.end()) {
        for (const VertexId u : it->second) killed[u] = 1;
      }
    }
    commit_from_leader(mis_new);
  }

  const Graph& g_;
  const MisCcliqueOptions& options_;
  std::size_t n_;
  cclique::Engine engine_;
  ResidualGraph residual_;
  std::optional<fault::CheckpointRegistry> registry_;
  std::size_t gather_budget_ = 0;

  std::vector<std::uint32_t> perm_;
  std::vector<std::uint32_t> rank_of_;
  /// Scratch for commit_via_broadcasts; zeroed after each commit.
  std::vector<char> dying_;
  /// Run-length staging for the Lenzen gathers (persistent across phases).
  cclique::RouteStream route_stream_;
  /// Staging scratch: per-vertex alive-arc spans cached by the sequential
  /// pre-pass, plus one RouteStream per chunk slot (concatenated
  /// slot-ascending into route_stream_).
  std::vector<std::span<const Arc>> arc_spans_;
  std::vector<cclique::RouteStream> slot_streams_;
  std::vector<VertexId> mis_;
  /// Run-loop cursor + accumulating result, promoted to members so the
  /// "loop" durable provider can serialize them at safe points.
  std::size_t next_rank_ = 0;
  MisCcliqueResult result_;
};

}  // namespace

MisCcliqueResult mis_cclique(const Graph& g, const MisCcliqueOptions& options) {
  MisCcliqueRun run(g, options);
  return run.run();
}

}  // namespace mpcg
