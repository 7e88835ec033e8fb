#include "core/mis_mpc.h"

#include <algorithm>
#include <optional>
#include <span>

#include "core/mis_greedy.h"
#include "mpc/primitives.h"
#include "util/rng.h"

namespace mpcg {

namespace {

using mpc::Word;

/// The MPC transport of the randomized-greedy process (core/mis_greedy.h).
/// The aliveness MisGreedy keeps is common knowledge across machines
/// (every update is announced through charged gather+broadcast steps), so
/// it is stored once; adjacency is owned by each vertex's home machine and
/// only leaves it through engine pushes.
class MisMpcRun {
 public:
  MisMpcRun(const Graph& g, const MisMpcOptions& options)
      : n_(g.num_vertices()),
        words_(options.words_per_machine != 0
                   ? options.words_per_machine
                   : 8 * std::max<std::size_t>(n_, 64)),
        greedy_(g, "mis_mpc",
                MisSchedule{options.seed, options.alpha,
                            options.degree_switch,
                            options.use_sparsified_stage,
                            options.gather_budget != 0 ? options.gather_budget
                                                       : words_ / 2}) {
    const std::size_t m_edges = g.num_edges();
    machines_ = options.num_machines != 0
                    ? options.num_machines
                    : std::max<std::size_t>(2, (4 * m_edges + words_ - 1) /
                                                   words_);

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
    greedy_.attach_faults(*engine_, options.fault_plan,
                          options.fault_recovery, options.durable);
  }

  MisMpcResult run() {
    MisMpcResult result;
    result.machines_used = machines_;
    result.words_per_machine_used = words_;
    if (n_ == 0) return result;
    greedy_.run(*this);
    greedy_.finish(result);
    result.metrics = engine_->metrics();
    return result;
  }

  // Transport (see core/mis_greedy.h).

  bool try_resume() { return engine_->try_resume(); }
  void checkpoint_boundary() { engine_->checkpoint_boundary(); }
  [[nodiscard]] std::size_t round() const { return engine_->metrics().rounds; }

  /// The leader broadcasts the permutation (paper: "all vertices agree on
  /// a uniform random order").
  void announce_permutation() {
    const std::vector<Word> payload(greedy_.perm().begin(),
                                    greedy_.perm().end());
    mpc::broadcast_view(*engine_, 0, payload);
  }

  /// Alive-alive edge count: every home contributes its local shard's
  /// count and the values are all-reduced (3 charged rounds — the engine
  /// sees one word per machine either way). The simulator reads the total
  /// from the residual graph's maintained counter instead of materializing
  /// the per-home splits, so no edge rescan happens.
  std::uint64_t count_alive_edges() {
    std::vector<Word> per(machines_, 0);
    per[0] = greedy_.residual().alive_edge_count();
    return mpc::all_reduce_sum(*engine_, per);
  }

  /// Maximum alive degree, computed per home and all-reduced. O(alive
  /// vertices) via the maintained residual degrees.
  std::uint64_t max_alive_degree() {
    ResidualGraph& residual = greedy_.residual();
    std::vector<Word> per(machines_, 0);
    for (const VertexId v : residual.alive_vertices()) {
      per[home_[v]] = std::max<Word>(per[home_[v]],
                                     residual.residual_degree(v));
    }
    return mpc::all_reduce_max(*engine_, per);
  }

  /// Homes stream their items' words to the leader: every word flows
  /// home_[v] -> 0, so a vertex's burst stages as a single run. The leader
  /// counts what it received and reads it through the zero-copy view.
  template <typename Stage, typename Record, typename Take>
  void gather(std::size_t items, Stage&& stage, Record&& record, Take&& take) {
    exchange_staged(items, [&](std::size_t slot, std::size_t i) {
      stage([&](VertexId v, Word w) { shards_.add(slot, home_[v], 0, w); }, i);
    });
    const mpc::InboxView inbox = engine_->inbox_view(0);
    record(inbox.size());
    for (std::size_t s = 0; s < inbox.num_segments(); ++s) {
      take(inbox.segment(s));
    }
  }

  /// Broadcasts the new members, lets every home decide which of its
  /// vertices die, and announces the deaths via gather + broadcast (in
  /// ascending vertex order per home) so the alive bitset stays common
  /// knowledge.
  void announce(const std::vector<VertexId>& members,
                const std::vector<VertexId>& deaths, bool /*from_leader*/) {
    const std::vector<Word> payload(members.begin(), members.end());
    mpc::broadcast_view(*engine_, 0, payload);
    std::vector<std::vector<Word>> dead_parts(machines_);
    for (const VertexId v : deaths) dead_parts[home_[v]].push_back(v);
    const auto gathered = mpc::gather_to(*engine_, 0, dead_parts);
    mpc::broadcast_view(*engine_, 0, gathered);
  }

  /// Sparsified-stage round: neighbors exchange their mark bit and desire
  /// level, one word each way per alive edge. Both stagings per arc shard
  /// by sender, in arc order, so every sender's stream interleaves its
  /// forward words and replies in iteration order (also when the two homes
  /// coincide: the records land in one bucket, still in order).
  void sparsified_exchange() {
    const std::span<const VertexId> alive =
        greedy_.residual().alive_vertices();
    const std::span<const std::span<const Arc>> spans =
        greedy_.upper_spans(alive);
    exchange_staged(alive.size(), [&](std::size_t slot, std::size_t i) {
      const VertexId v = alive[i];
      for (const Arc& a : spans[i]) {
        shards_.add(slot, home_[v], home_[a.to], encode_pair(v, a.to));
        shards_.add(slot, home_[a.to], home_[v], encode_pair(a.to, v));
      }
    });
  }

 private:
  /// Runs fill(slot, i) for every item over the backend (chunk `slot`
  /// stages into its private shards), replays the records through the
  /// engine outboxes — distinct senders in parallel, each sender's records
  /// in iteration order — and exchanges.
  template <typename Fill>
  void exchange_staged(std::size_t items, Fill&& fill) {
    mpc::ExecutionBackend& backend = engine_->backend();
    shards_.reset(backend.threads(), machines_);
    backend.run_chunks(
        0, items, [&](std::size_t slot, std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) fill(slot, i);
        });
    shards_.drain(
        backend,
        [&](std::uint32_t snd, std::span<const mpc::StageRecord> recs) {
          mpc::Outbox ob = engine_->outbox(snd);
          for (const mpc::StageRecord& rec : recs) ob.append(rec.to, rec.word);
        });
    engine_->exchange();
  }

  std::size_t n_;
  std::size_t words_;
  std::size_t machines_ = 0;
  MisGreedy greedy_;
  std::optional<mpc::Engine> engine_;
  std::vector<std::uint32_t> home_;
  /// Collect-then-drain staging shards (see mpc::StageShards).
  mpc::StageShards shards_;
};

}  // namespace

MisMpcResult mis_mpc(const Graph& g, const MisMpcOptions& options) {
  MisMpcRun run(g, options);
  return run.run();
}

}  // namespace mpcg
