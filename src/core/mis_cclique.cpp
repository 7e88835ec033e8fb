#include "core/mis_cclique.h"

#include <algorithm>
#include <span>

#include "core/mis_greedy.h"

namespace mpcg {

namespace {

using cclique::Word;

/// The CONGESTED-CLIQUE transport of the randomized-greedy process
/// (core/mis_greedy.h): player v stands for vertex v, the leader is
/// player 0, gathers ride Lenzen routing and every announcement is a
/// broadcast round (paper, Section 3.2).
class MisCcliqueRun {
 public:
  MisCcliqueRun(const Graph& g, const MisCcliqueOptions& options)
      : n_(g.num_vertices()),
        engine_(std::max<std::size_t>(n_, 1), options.strict,
                options.integrity, options.audit, options.scrub_interval,
                options.threads),
        greedy_(g, "mis_cclique",
                MisSchedule{options.seed, options.alpha,
                            options.degree_switch,
                            options.use_sparsified_stage,
                            options.gather_budget != 0 ? options.gather_budget
                                                       : n_}) {
    if (options.durable.enabled()) {
      engine_.set_durability(
          options.durable,
          "mis_cc:" + std::to_string(n_) + ":" +
              std::to_string(g.num_edges()) + ":" +
              std::to_string(options.seed));
    }
    greedy_.attach_faults(engine_, options.fault_plan,
                          options.fault_recovery, options.durable);
  }

  MisCcliqueResult run() {
    MisCcliqueResult result;
    if (n_ == 0) return result;
    greedy_.run(*this);
    greedy_.finish(result);
    result.metrics = engine_.metrics();
    return result;
  }

  // Transport (see core/mis_greedy.h).

  bool try_resume() { return engine_.try_resume(); }
  void checkpoint_boundary() { engine_.checkpoint_boundary(); }
  [[nodiscard]] std::size_t round() const { return engine_.metrics().rounds; }

  /// The leader tells each player its rank (one word each), and every
  /// player broadcasts its rank: the order becomes common knowledge in 2
  /// rounds.
  void announce_permutation() {
    const std::vector<std::uint32_t>& rank_of = greedy_.rank_of();
    for (VertexId v = 1; v < n_; ++v) engine_.send(0, v, rank_of[v]);
    engine_.exchange();
    for (VertexId v = 0; v < n_; ++v) engine_.broadcast(v, rank_of[v]);
    engine_.exchange();
  }

  /// Both reductions are one round in which every alive player broadcasts
  /// its residual degree; everybody then sums them or takes the maximum.
  std::uint64_t count_alive_edges() { return broadcast_degrees() / 2; }
  std::uint64_t max_alive_degree() {
    broadcast_degrees();
    return greedy_.residual().max_alive_degree();
  }

  /// Lenzen-routes the items' words to the leader. Each chunk stages its
  /// own RouteStream (a vertex's burst is one run), and the chunk streams
  /// concatenate slot-ascending: append_stream's boundary merge makes that
  /// the stream of one loop over the range. The count is recorded before
  /// routing, so a fault inside a Lenzen batch checkpoints it.
  template <typename Stage, typename Record, typename Take>
  void gather(std::size_t items, Stage&& stage, Record&& record, Take&& take) {
    mpc::ExecutionBackend& backend = engine_.backend();
    const std::size_t slots = backend.threads();
    // Clear every slot up front: run_chunks skips empty chunks, which must
    // not leak a previous gather's stream.
    if (slot_streams_.size() < slots) slot_streams_.resize(slots);
    for (std::size_t s = 0; s < slots; ++s) slot_streams_[s].clear();
    backend.run_chunks(
        0, items, [&](std::size_t slot, std::size_t lo, std::size_t hi) {
          cclique::RouteStream& out = slot_streams_[slot];
          const auto sink = [&out](VertexId v, Word w) { out.append(v, 0, w); };
          for (std::size_t i = lo; i < hi; ++i) stage(sink, i);
        });
    route_stream_.clear();
    for (std::size_t s = 0; s < slots; ++s) {
      route_stream_.append_stream(slot_streams_[s]);
    }
    record(route_stream_.size());
    const auto& delivered = engine_.lenzen_route_view(route_stream_);
    for (const cclique::RouteSegment& seg : delivered[0].segments()) {
      take(std::span<const Word>(seg.words, seg.count));
    }
  }

  /// The leader tells each member it joined (one round); members broadcast
  /// their membership and the dying their deaths (one round each), so the
  /// alive flags stay common knowledge.
  void announce(const std::vector<VertexId>& members,
                const std::vector<VertexId>& deaths, bool from_leader) {
    if (from_leader) {
      for (const VertexId v : members) {
        if (v != 0) engine_.send(0, v, 1);
      }
      engine_.exchange();
    }
    for (const VertexId v : members) engine_.broadcast(v, v);
    engine_.exchange();
    for (const VertexId v : deaths) engine_.broadcast(v, v);
    engine_.exchange();
  }

  /// Sparsified-stage round: each alive player broadcasts its mark and
  /// desire level (the dynamics read only neighbors' values; a broadcast
  /// certainly delivers them).
  void sparsified_exchange() {
    for (const VertexId v : greedy_.residual().alive_vertices()) {
      engine_.broadcast(v, v);
    }
    engine_.exchange();
  }

 private:
  /// One round of residual-degree broadcasts; returns their sum.
  std::uint64_t broadcast_degrees() {
    ResidualGraph& residual = greedy_.residual();
    std::uint64_t sum = 0;
    for (const VertexId v : residual.alive_vertices()) {
      engine_.broadcast(v, residual.residual_degree(v));
      sum += residual.residual_degree(v);
    }
    engine_.exchange();
    return sum;
  }

  std::size_t n_;
  cclique::Engine engine_;
  MisGreedy greedy_;
  /// Run-length staging for the Lenzen gathers: one stream per chunk slot,
  /// concatenated into route_stream_ (all persistent across gathers).
  std::vector<cclique::RouteStream> slot_streams_;
  cclique::RouteStream route_stream_;
};

}  // namespace

MisCcliqueResult mis_cclique(const Graph& g, const MisCcliqueOptions& options) {
  MisCcliqueRun run(g, options);
  return run.run();
}

}  // namespace mpcg
