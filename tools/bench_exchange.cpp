// Races the engine's staging APIs and execution backends on the two
// canonical traffic shapes:
//
//   scattered — every machine sprays single words at random destinations
//               (per-edge driver traffic: rank phases, sparsified rounds);
//   bulk      — every machine sends its whole budget to a handful of
//               destinations in long runs (collectives, shard migration).
//
// The first set of tables races the *staging* APIs on both shapes:
// legacy per-word push versus a streamed Outbox (per-word append, one
// up-front sender check) versus run-length append_run (one descriptor +
// one bulk copy per maximal same-destination stretch). On the bulk shape
// run-length staging should win clearly; on the scattered shape (runs of
// one word) the three should be within noise of each other.
//
// A second set of tables races the execution backends on the same shapes:
// one thread (threads=1) versus the shared-memory pool at 2 and 4 workers,
// staging through the same Outbox API.  The `parity` column memcmps the
// full engine Metrics across arms — the pool must be bit-identical to one
// thread on every logical counter, whatever it costs or saves in wall
// clock.
//
// Usage: bench_exchange [rounds] [words_per_machine]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "mpc/engine.h"
#include "util/rng.h"

namespace {

using namespace mpcg;
using mpc::Engine;
using mpc::Word;

/// Destination pattern for one machine's pushes per round.
std::vector<std::uint32_t> make_dests(std::size_t machines,
                                      std::size_t words_per_machine,
                                      bool bulk) {
  Rng rng(0x0c4055);
  std::vector<std::uint32_t> dests(words_per_machine);
  if (bulk) {
    // Long same-destination runs to few partners.
    const std::size_t partners = 4;
    const std::size_t run = (words_per_machine + partners - 1) / partners;
    for (std::size_t i = 0; i < dests.size(); ++i) {
      dests[i] = static_cast<std::uint32_t>((i / run) % machines);
    }
  } else {
    for (auto& d : dests) {
      d = static_cast<std::uint32_t>(rng() % machines);
    }
  }
  return dests;
}

/// One timed arm of the backend race: the staging-and-exchange workload
/// above, run with `threads` execution-backend workers.  Returns the wall
/// time and copies out the engine metrics so callers can pin cross-backend
/// parity (every logical counter must be bit-identical to threads=1).
double run_backend_cell(std::size_t machines, std::size_t threads,
                        std::size_t rounds, std::size_t words_per_machine,
                        bool bulk, mpc::Metrics* metrics_out) {
  mpc::Config cfg;
  cfg.num_machines = machines;
  cfg.words_per_machine = std::max<std::size_t>(words_per_machine * 2, 1024);
  cfg.strict = false;
  cfg.threads = threads;
  Engine engine(cfg);

  const auto dests = make_dests(machines, words_per_machine, bulk);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t from = 0; from < machines; ++from) {
      mpc::Outbox ob = engine.outbox(from);
      for (std::size_t i = 0; i < dests.size(); ++i) {
        ob.append((dests[i] + from) % machines, static_cast<Word>(i));
      }
    }
    engine.exchange();
  }
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  if (metrics_out != nullptr) *metrics_out = engine.metrics();
  return ms;
}

void sweep_backend(const char* label, std::size_t rounds, std::size_t words,
                   bool bulk) {
  std::printf("# backend race, %s traffic (seq vs parallel pool)\n", label);
  std::printf("%10s %12s %12s %12s %8s\n", "machines", "seq_ms", "par2_ms",
              "par4_ms", "parity");
  for (std::size_t m = 64; m <= 4096; m *= 2) {
    mpc::Metrics seq_metrics{};
    mpc::Metrics par2_metrics{};
    mpc::Metrics par4_metrics{};
    const double seq =
        run_backend_cell(m, 1, rounds, words, bulk, &seq_metrics);
    const double par2 =
        run_backend_cell(m, 2, rounds, words, bulk, &par2_metrics);
    const double par4 =
        run_backend_cell(m, 4, rounds, words, bulk, &par4_metrics);
    const bool parity =
        std::memcmp(&seq_metrics, &par2_metrics, sizeof(mpc::Metrics)) == 0 &&
        std::memcmp(&seq_metrics, &par4_metrics, sizeof(mpc::Metrics)) == 0;
    std::printf("%10zu %12.2f %12.2f %12.2f %8s\n", m, seq, par2, par4,
                parity ? "ok" : "MISMATCH");
  }
}

enum class Staging { kPush, kOutbox, kRuns };

double run_staging_cell(std::size_t machines, std::size_t rounds,
                        std::size_t words_per_machine, bool bulk,
                        Staging staging) {
  mpc::Config cfg;
  cfg.num_machines = machines;
  cfg.words_per_machine = std::max<std::size_t>(words_per_machine * 2, 1024);
  cfg.strict = false;
  Engine engine(cfg);

  const auto dests = make_dests(machines, words_per_machine, bulk);
  // Maximal same-destination stretches of the pattern, for kRuns.
  std::vector<std::pair<std::size_t, std::size_t>> runs;  // (start, len)
  for (std::size_t i = 0; i < dests.size();) {
    std::size_t j = i + 1;
    while (j < dests.size() && dests[j] == dests[i]) ++j;
    runs.emplace_back(i, j - i);
    i = j;
  }
  std::vector<Word> payload(words_per_machine);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<Word>(i);
  }

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t from = 0; from < machines; ++from) {
      switch (staging) {
        case Staging::kPush:
          for (std::size_t i = 0; i < dests.size(); ++i) {
            engine.push(from, (dests[i] + from) % machines, payload[i]);
          }
          break;
        case Staging::kOutbox: {
          mpc::Outbox ob = engine.outbox(from);
          for (std::size_t i = 0; i < dests.size(); ++i) {
            ob.append((dests[i] + from) % machines, payload[i]);
          }
          break;
        }
        case Staging::kRuns: {
          mpc::Outbox ob = engine.outbox(from);
          for (const auto& [begin, len] : runs) {
            ob.append_run((dests[begin] + from) % machines,
                          std::span<const Word>{payload.data() + begin, len});
          }
          break;
        }
      }
    }
    engine.exchange();
  }
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void sweep_staging(const char* label, std::size_t rounds, std::size_t words,
                   bool bulk) {
  std::printf("# staging race, %s traffic\n", label);
  std::printf("%10s %12s %12s %12s %8s\n", "machines", "push_ms",
              "outbox_ms", "run_ms", "winner");
  for (std::size_t m = 64; m <= 4096; m *= 2) {
    const double push = run_staging_cell(m, rounds, words, bulk,
                                         Staging::kPush);
    const double outbox = run_staging_cell(m, rounds, words, bulk,
                                           Staging::kOutbox);
    const double run = run_staging_cell(m, rounds, words, bulk,
                                        Staging::kRuns);
    const char* winner = run <= push && run <= outbox ? "run"
                         : outbox <= push             ? "outbox"
                                                      : "push";
    std::printf("%10zu %12.2f %12.2f %12.2f %8s\n", m, push, outbox, run,
                winner);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t rounds =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 8;
  const std::size_t words =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 4096;

  std::printf("# exchange crossover: %zu rounds x %zu words/machine/round\n",
              rounds, words);
  sweep_staging("bulk", rounds, words, /*bulk=*/true);
  sweep_staging("scattered", rounds, words, /*bulk=*/false);
  std::printf("\n");
  sweep_backend("scattered", rounds, words, /*bulk=*/false);
  sweep_backend("bulk", rounds, words, /*bulk=*/true);
  return 0;
}
