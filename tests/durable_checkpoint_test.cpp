// On-disk checkpoint durability (fault/durable.h): file-format round-trip,
// the corruption-safety property (a load after ANY single-bit flip or any
// truncation must fall back to an older verified generation or throw the
// typed CheckpointError — never silently hand back corrupt state), the
// generation ring's publish protocol (fresh names, two generations kept,
// leftovers swept), bounds-checked section restores, and driver-level
// stop/resume bit-identity via the deterministic stop_after_safe_points
// kill point.
//
// The process-boundary version of the same contract (real fork + SIGKILL +
// --resume) lives in tools/mpcg_chaos --kill-storms; these tests cover the
// in-process seams deterministically.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/integral_matching.h"
#include "core/matching_mpc.h"
#include "core/mis_cclique.h"
#include "core/mis_mpc.h"
#include "fault/checkpoint.h"
#include "fault/durable.h"
#include "fault/fault_plan.h"
#include "fault/reprovision.h"
#include "graph/validation.h"
#include "test_util.h"
#include "util/fnv.h"

namespace mpcg {
namespace {

using fault::CheckpointError;
using fault::DurableCheckpoint;
using fault::DurableRing;
using fault::DurableSection;
using fault::ResumableInterrupt;
using testing::make_family;
using testing::TempDir;

std::vector<char> slurp(const std::string& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void spit(const std::string& p, const std::vector<char>& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// File names in `dir`, sorted.
std::vector<std::string> dir_names(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    names.push_back(e.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// The newest generation in a ring directory.
std::string newest_generation(const std::string& dir) {
  const std::vector<std::string> paths = DurableRing(dir).generation_paths();
  return paths.empty() ? std::string() : paths.back();
}

/// Rewrites the newest generation in `dir` with section `name`'s payload
/// replaced by `payload`. Every digest is recomputed, so the file verifies
/// and only the section's length is wrong.
void rewrite_newest_section(const std::string& dir, const std::string& name,
                            std::vector<std::uint64_t> payload) {
  const std::string path = newest_generation(dir);
  ASSERT_FALSE(path.empty()) << "no generation in " << dir;
  DurableCheckpoint c = fault::read_checkpoint_file(path);
  bool found = false;
  for (DurableSection& s : c.sections) {
    if (s.name == name) {
      s.payload = payload;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no section '" << name << "' in " << path;
  fault::write_checkpoint_file(path, c);
}

DurableCheckpoint sample_checkpoint() {
  DurableCheckpoint c;
  c.seq = 7;
  c.round = 42;
  c.scope = "test:scope:1";
  c.sections.push_back({"alpha", {1, 2, 3, 0xdeadbeefULL}});
  c.sections.push_back({"__engine", {9, 8, 7, 6, 5}});
  c.sections.push_back({"empty", {}});
  return c;
}

bool same_checkpoint(const DurableCheckpoint& a, const DurableCheckpoint& b) {
  if (a.seq != b.seq || a.round != b.round || a.scope != b.scope ||
      a.sections.size() != b.sections.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.sections.size(); ++i) {
    if (a.sections[i].name != b.sections[i].name ||
        a.sections[i].payload != b.sections[i].payload) {
      return false;
    }
  }
  return true;
}

// ------------------------------------------------------------ file format

TEST(DurableCheckpoint, FileRoundTripIsBitExact) {
  TempDir td;
  const std::string path = td.path + "/ck.mpcg";
  const DurableCheckpoint c = sample_checkpoint();
  const std::size_t words = fault::write_checkpoint_file(path, c);
  EXPECT_GT(words, 0U);
  EXPECT_EQ(std::filesystem::file_size(path), words * sizeof(std::uint64_t));
  const DurableCheckpoint back = fault::read_checkpoint_file(path);
  EXPECT_TRUE(same_checkpoint(c, back));
}

TEST(DurableCheckpoint, EverySingleBitFlipIsDetected) {
  // The corruption-safety property at file granularity: flip one bit at
  // EVERY byte position of a valid file — the reader must throw the typed
  // error for all of them (header, scope, section table, payloads, and the
  // trailer itself included).
  TempDir td;
  const std::string path = td.path + "/ck.mpcg";
  const std::string mut = td.path + "/mut.mpcg";
  fault::write_checkpoint_file(path, sample_checkpoint());
  const std::vector<char> good = slurp(path);
  ASSERT_FALSE(good.empty());
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::vector<char> bad = good;
    bad[i] = static_cast<char>(bad[i] ^ (1 << (i % 8)));
    spit(mut, bad);
    EXPECT_THROW((void)fault::read_checkpoint_file(mut), CheckpointError)
        << "flip at byte " << i << " was not detected";
  }
}

TEST(DurableCheckpoint, TruncationAtEveryBoundaryIsDetected) {
  // Truncate at every word boundary (including the empty file) and at one
  // intra-word byte offset: all must throw, none may parse.
  TempDir td;
  const std::string path = td.path + "/ck.mpcg";
  const std::string mut = td.path + "/mut.mpcg";
  fault::write_checkpoint_file(path, sample_checkpoint());
  const std::vector<char> good = slurp(path);
  const std::size_t words = good.size() / sizeof(std::uint64_t);
  for (std::size_t k = 0; k < words; ++k) {
    std::vector<char> bad(good.begin(),
                          good.begin() + static_cast<std::ptrdiff_t>(
                                             k * sizeof(std::uint64_t)));
    spit(mut, bad);
    EXPECT_THROW((void)fault::read_checkpoint_file(mut), CheckpointError)
        << "truncation to " << k << " words was not detected";
  }
  std::vector<char> ragged(good.begin(), good.end() - 3);
  spit(mut, ragged);
  EXPECT_THROW((void)fault::read_checkpoint_file(mut), CheckpointError);
}

TEST(DurableCheckpoint, StaleVersionIsRejectedEvenWithValidTrailer) {
  // A future/stale format version must be rejected on its own — even when
  // the file is otherwise internally consistent (trailer recomputed).
  TempDir td;
  const std::string path = td.path + "/ck.mpcg";
  fault::write_checkpoint_file(path, sample_checkpoint());
  std::vector<char> bytes = slurp(path);
  const std::size_t words = bytes.size() / sizeof(std::uint64_t);
  std::vector<std::uint64_t> w(words);
  std::memcpy(w.data(), bytes.data(), bytes.size());
  w[1] += 1;  // version word
  w[words - 1] =
      Fnv::digest(std::span<const std::uint64_t>(w.data(), words - 1));
  std::memcpy(bytes.data(), w.data(), bytes.size());
  spit(path, bytes);
  try {
    (void)fault::read_checkpoint_file(path);
    FAIL() << "stale version was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
}

/// Rewrites a valid file as format `version`, with a trailer over every
/// preceding word (what formats 1 and 2 wrote), and checks the reader
/// refuses it on its version word with the typed error, before any
/// section is parsed.
void expect_version_rejected(std::uint64_t version) {
  TempDir td;
  const std::string path = td.path + "/ck.mpcg";
  fault::write_checkpoint_file(path, sample_checkpoint());
  std::vector<char> bytes = slurp(path);
  const std::size_t words = bytes.size() / sizeof(std::uint64_t);
  std::vector<std::uint64_t> w(words);
  std::memcpy(w.data(), bytes.data(), bytes.size());
  w[1] = version;  // version word
  w[words - 1] =
      Fnv::digest(std::span<const std::uint64_t>(w.data(), words - 1));
  std::memcpy(bytes.data(), w.data(), bytes.size());
  spit(path, bytes);
  try {
    (void)fault::read_checkpoint_file(path);
    FAIL() << "version " << version << " file was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported checkpoint version " +
                                         std::to_string(version) +
                                         " (want 3)"),
              std::string::npos)
        << e.what();
  }
}

TEST(DurableCheckpoint, Version1FileIsRejectedByVersion) {
  // Version 1 engine sections carried two staging-path words the engine no
  // longer writes.
  expect_version_rejected(1);
}

TEST(DurableCheckpoint, Version2FileIsRejectedByVersion) {
  // Version 2 trailers digest the payloads a second time; format 3's
  // trailer binds the header only.
  expect_version_rejected(2);
}

// ------------------------------------------------------- generation ring

TEST(DurableRing, ScopeMismatchIsACleanFreshStart) {
  TempDir td;
  DurableRing ring(td.path + "/ck");
  ring.save(1, "scope-a", {{"s", {1, 2, 3}}});
  EXPECT_FALSE(ring.load("scope-b").has_value());
  EXPECT_TRUE(ring.load("scope-a").has_value());
}

TEST(DurableRing, EmptyDirectoryLoadsNothing) {
  TempDir td;
  const DurableRing ring(td.path + "/ck");
  EXPECT_FALSE(ring.load("any").has_value());
}

TEST(DurableRing, NewestRotFallsBackForEveryBytePosition) {
  // The ring-level corruption-safety property: with two generations on
  // disk, flip one bit at EVERY byte position of the newest generation —
  // every load must come back as the older generation with the fallback
  // flag set, bit-identical to what round 1 saved. No flip may surface
  // round-2 data or escape unflagged.
  TempDir td;
  DurableRing ring(td.path + "/ck");
  const std::vector<std::uint64_t> old_payload = {10, 20, 30};
  ring.save(1, "s", {{"p", old_payload}});
  ring.save(2, "s", {{"p", {40, 50, 60, 70}}});

  // Identify the newest generation by round tag.
  std::string newest;
  for (const std::string& path : ring.generation_paths()) {
    const auto c = fault::read_checkpoint_file(path);
    if (c.round == 2) newest = path;
  }
  ASSERT_FALSE(newest.empty());
  const std::vector<char> good = slurp(newest);
  ASSERT_FALSE(good.empty());

  for (std::size_t i = 0; i < good.size(); ++i) {
    std::vector<char> bad = good;
    bad[i] = static_cast<char>(bad[i] ^ (1 << (i % 8)));
    spit(newest, bad);
    const auto loaded = ring.load("s");
    ASSERT_TRUE(loaded.has_value()) << "flip at byte " << i;
    EXPECT_TRUE(loaded->fallback) << "flip at byte " << i;
    EXPECT_EQ(loaded->checkpoint.round, 2U - 1U) << "flip at byte " << i;
    ASSERT_EQ(loaded->checkpoint.sections.size(), 1U);
    EXPECT_EQ(loaded->checkpoint.sections[0].payload, old_payload)
        << "flip at byte " << i;
  }
  spit(newest, good);  // restore
  const auto clean = ring.load("s");
  ASSERT_TRUE(clean.has_value());
  EXPECT_FALSE(clean->fallback);
  EXPECT_EQ(clean->checkpoint.round, 2U);
}

TEST(DurableRing, OlderRotIsNoFallbackWhenTheNewestVerifies) {
  // Only a failed generation newer than the one loaded makes a load a
  // fallback: rot in the older file must not flag a clean load of the
  // newest.
  TempDir td;
  DurableRing ring(td.path + "/ck");
  ring.save(1, "s", {{"p", {10, 20, 30}}});
  const std::vector<std::uint64_t> new_payload = {40, 50, 60, 70};
  ring.save(2, "s", {{"p", new_payload}});
  const std::string older = ring.generation_paths().front();
  ASSERT_EQ(fault::read_checkpoint_file(older).round, 1U);
  std::vector<char> bytes = slurp(older);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  spit(older, bytes);
  const auto loaded = ring.load("s");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_FALSE(loaded->fallback);
  EXPECT_EQ(loaded->checkpoint.round, 2U);
  ASSERT_EQ(loaded->checkpoint.sections.size(), 1U);
  EXPECT_EQ(loaded->checkpoint.sections[0].payload, new_payload);
}

TEST(DurableRing, AllSlotsRottenThrowsAggregateError) {
  TempDir td;
  DurableRing ring(td.path + "/ck");
  ring.save(1, "s", {{"p", {1, 2, 3}}});
  ring.save(2, "s", {{"p", {4, 5, 6}}});
  ASSERT_EQ(ring.generation_paths().size(), DurableRing::kSlots);
  for (const std::string& path : ring.generation_paths()) {
    std::vector<char> bytes = slurp(path);
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 1);
    spit(path, bytes);
  }
  try {
    (void)ring.load("s");
    FAIL() << "load with every generation rotted did not throw";
  } catch (const CheckpointError& e) {
    // The aggregate error names the generation files it rejected.
    EXPECT_NE(std::string(e.what()).find("ckpt-"), std::string::npos)
        << e.what();
  }
}

TEST(DurableRing, ResetDropsStaleFiles) {
  TempDir td;
  const std::string dir = td.path + "/ck";
  {
    DurableRing ring(dir);
    ring.save(1, "s", {{"p", {1}}});
    ring.save(2, "s", {{"p", {2}}});
  }
  DurableRing ring(dir);
  spit(dir + "/ckpt-3.mpcg.tmp", {'x'});
  ring.reset();
  EXPECT_FALSE(ring.load("s").has_value());
  EXPECT_TRUE(ring.generation_paths().empty());
  EXPECT_TRUE(dir_names(dir).empty());
}

TEST(DurableRing, SaveNeverReplacesAnExistingPath) {
  // Each save publishes under a name that did not exist before: the
  // previous newest generation keeps its inode and its bytes.
  TempDir td;
  DurableRing ring(td.path + "/ck");
  ring.save(1, "s", {{"p", {1, 2}}});
  for (std::uint64_t round = 2; round <= 5; ++round) {
    const std::string prev = ring.generation_paths().back();
    struct stat before {};
    ASSERT_EQ(::stat(prev.c_str(), &before), 0);
    const std::vector<char> bytes = slurp(prev);
    ring.save(round, "s", {{"p", {round, round + 1}}});
    const std::string now = ring.generation_paths().back();
    EXPECT_NE(now, prev) << "round " << round;
    struct stat after {};
    ASSERT_EQ(::stat(prev.c_str(), &after), 0) << "round " << round;
    EXPECT_EQ(after.st_ino, before.st_ino) << "round " << round;
    EXPECT_EQ(slurp(prev), bytes) << "round " << round;
  }
}

TEST(DurableRing, SavesKeepExactlyTheTwoNewestGenerations) {
  TempDir td;
  const std::string dir = td.path + "/ck";
  DurableRing ring(dir);
  for (std::uint64_t round = 1; round <= 7; ++round) {
    ring.save(round, "s", {{"p", {round}}});
  }
  EXPECT_EQ(dir_names(dir),
            (std::vector<std::string>{"ckpt-6.mpcg", "ckpt-7.mpcg"}));
  EXPECT_EQ(ring.generation_paths(),
            (std::vector<std::string>{dir + "/ckpt-6.mpcg",
                                      dir + "/ckpt-7.mpcg"}));
  const auto loaded = ring.load("s");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->checkpoint.round, 7U);
  EXPECT_FALSE(loaded->fallback);
}

TEST(DurableRing, RescanSweepsWhatAKilledSaveLeaves) {
  // A kill between a save's rename and its unlink leaves three
  // generations; a kill before the rename leaves a temp file. A resumed
  // ring loads the newest, ignores names that are not ckpt-<digits>.mpcg,
  // and is back to two generations after its next save.
  TempDir td;
  const std::string dir = td.path + "/ck";
  std::filesystem::create_directories(dir);
  for (std::uint64_t seq = 3; seq <= 5; ++seq) {
    DurableCheckpoint c;
    c.seq = seq;
    c.round = 10 * seq;
    c.scope = "s";
    c.sections.push_back({"p", {seq}});
    fault::write_checkpoint_file(dir + "/ckpt-" + std::to_string(seq) +
                                     ".mpcg",
                                 c);
  }
  spit(dir + "/ckpt-6.mpcg.tmp", {'t', 'o', 'r', 'n'});
  spit(dir + "/ckpt-junk.mpcg", {'j'});

  DurableRing ring(dir);
  const auto loaded = ring.load("s");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->checkpoint.seq, 5U);
  EXPECT_EQ(loaded->checkpoint.round, 50U);
  EXPECT_FALSE(loaded->fallback);

  ring.save(60, "s", {{"p", {6}}});
  EXPECT_EQ(dir_names(dir), (std::vector<std::string>{
                                "ckpt-5.mpcg", "ckpt-6.mpcg",
                                "ckpt-junk.mpcg"}));
  const auto next = ring.load("s");
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->checkpoint.seq, 6U);
  EXPECT_EQ(next->checkpoint.round, 60U);
}

// ----------------------------------------------- driver stop/resume seams

TEST(DurableResume, MatchingStopsAndResumesBitIdentically) {
  const Graph g = make_family("gnp_sparse", 1500, 5);
  MatchingMpcOptions opt;
  opt.seed = 5;
  const auto clean = matching_mpc(g, opt);
  for (const std::size_t stop_after : {1U, 2U, 6U}) {
    TempDir td;
    MatchingMpcOptions d = opt;
    d.durable.dir = td.path + "/ck";
    d.durable.stop_after_safe_points = stop_after;
    bool stopped = false;
    try {
      (void)matching_mpc(g, d);
    } catch (const ResumableInterrupt&) {
      stopped = true;
    }
    MatchingMpcOptions r = opt;
    r.durable.dir = td.path + "/ck";
    r.durable.resume = true;
    const auto res = matching_mpc(g, r);
    EXPECT_EQ(res.x, clean.x) << "stop_after=" << stop_after;
    EXPECT_EQ(res.cover, clean.cover) << "stop_after=" << stop_after;
    EXPECT_EQ(res.freeze_iteration, clean.freeze_iteration);
    EXPECT_EQ(res.phases, clean.phases);
    EXPECT_EQ(res.total_iterations, clean.total_iterations);
    EXPECT_EQ(res.tail_iterations, clean.tail_iterations);
    if (stopped) EXPECT_EQ(res.metrics.resume_loads, 1U);
    EXPECT_TRUE(is_fractional_matching(g, res.x));
  }
}

TEST(DurableResume, MatchingResumesAtBoundariesWithFrozenState) {
  // Regression: phase boundaries on skewed (rmat) graphs carry nonzero
  // frozen/removed state, and the checkpoint stores y_old_cache_ values
  // that were *stale* in the interrupted process (their pending-refresh
  // dirty_ bits are not persisted). A resumed process that trusted them
  // froze fewer vertices in the re-entered phase and diverged; the fix
  // marks every vertex dirty in rebuild_after_resume so the caches
  // recompute from the restored flags. The late stop points below land on
  // exactly those dirty boundaries (the early ones are covered above).
  const Graph g = make_family("rmat", 3000, 9);
  MatchingMpcOptions opt;
  opt.seed = 9;
  const auto clean = matching_mpc(g, opt);
  for (const std::size_t stop_after : {4U, 5U, 6U, 7U, 8U, 9U}) {
    TempDir td;
    MatchingMpcOptions d = opt;
    d.durable.dir = td.path + "/ck";
    d.durable.stop_after_safe_points = stop_after;
    try {
      (void)matching_mpc(g, d);
    } catch (const ResumableInterrupt&) {
    }
    MatchingMpcOptions r = opt;
    r.durable.dir = td.path + "/ck";
    r.durable.resume = true;
    const auto res = matching_mpc(g, r);
    EXPECT_EQ(res.x, clean.x) << "stop_after=" << stop_after;
    EXPECT_EQ(res.cover, clean.cover) << "stop_after=" << stop_after;
    EXPECT_EQ(res.freeze_iteration, clean.freeze_iteration)
        << "stop_after=" << stop_after;
    EXPECT_EQ(res.total_iterations, clean.total_iterations);
    EXPECT_EQ(res.metrics.rounds, clean.metrics.rounds);
  }
}

TEST(DurableResume, MisStopsAndResumesBitIdentically) {
  const Graph g = make_family("rmat", 1200, 9);
  MisMpcOptions opt;
  opt.seed = 9;
  const auto clean = mis_mpc(g, opt);
  for (const std::size_t stop_after : {1U, 2U, 4U}) {
    TempDir td;
    MisMpcOptions d = opt;
    d.durable.dir = td.path + "/ck";
    d.durable.stop_after_safe_points = stop_after;
    bool stopped = false;
    try {
      (void)mis_mpc(g, d);
    } catch (const ResumableInterrupt&) {
      stopped = true;
    }
    MisMpcOptions r = opt;
    r.durable.dir = td.path + "/ck";
    r.durable.resume = true;
    const auto res = mis_mpc(g, r);
    EXPECT_EQ(res.mis, clean.mis) << "stop_after=" << stop_after;
    EXPECT_EQ(res.rank_phases, clean.rank_phases);
    EXPECT_EQ(res.sparsified_iterations, clean.sparsified_iterations);
    EXPECT_EQ(res.metrics.rounds, clean.metrics.rounds);
    EXPECT_EQ(res.metrics.total_words, clean.metrics.total_words);
    if (stopped) EXPECT_EQ(res.metrics.resume_loads, 1U);
    EXPECT_TRUE(is_maximal_independent_set(g, res.mis));
  }
}

TEST(DurableResume, MisCcliqueStopsAndResumesBitIdentically) {
  const Graph g = make_family("gnp_sparse", 700, 13);
  MisCcliqueOptions opt;
  opt.seed = 13;
  const auto clean = mis_cclique(g, opt);
  for (const std::size_t stop_after : {1U, 3U}) {
    TempDir td;
    MisCcliqueOptions d = opt;
    d.durable.dir = td.path + "/ck";
    d.durable.stop_after_safe_points = stop_after;
    bool stopped = false;
    try {
      (void)mis_cclique(g, d);
    } catch (const ResumableInterrupt&) {
      stopped = true;
    }
    MisCcliqueOptions r = opt;
    r.durable.dir = td.path + "/ck";
    r.durable.resume = true;
    const auto res = mis_cclique(g, r);
    EXPECT_EQ(res.mis, clean.mis) << "stop_after=" << stop_after;
    EXPECT_EQ(res.rank_phases, clean.rank_phases);
    EXPECT_EQ(res.metrics.rounds, clean.metrics.rounds);
    EXPECT_EQ(res.metrics.total_words, clean.metrics.total_words);
    if (stopped) EXPECT_EQ(res.metrics.resume_loads, 1U);
    EXPECT_TRUE(is_maximal_independent_set(g, res.mis));
  }
}

TEST(DurableResume, IntegralMatchingStopsAndResumesBitIdentically) {
  // The two-level ring: the inner MPC-Simulation run stops at its k-th
  // safe point (small k lands in iteration 0; larger k lands the stop in a
  // later A-iteration, exercising the outer cursor at iter > 0).
  const Graph g = make_family("gnp_sparse", 900, 17);
  IntegralMatchingOptions opt;
  opt.seed = 17;
  const auto clean = integral_matching(g, opt);
  for (const std::size_t stop_after : {1U, 3U, 8U}) {
    TempDir td;
    IntegralMatchingOptions d = opt;
    d.durable.dir = td.path + "/ck";
    d.durable.stop_after_safe_points = stop_after;
    bool stopped = false;
    try {
      (void)integral_matching(g, d);
    } catch (const ResumableInterrupt&) {
      stopped = true;
    }
    IntegralMatchingOptions r = opt;
    r.durable.dir = td.path + "/ck";
    r.durable.resume = true;
    const auto res = integral_matching(g, r);
    EXPECT_EQ(res.matching, clean.matching)
        << "stop_after=" << stop_after << " stopped=" << stopped;
    EXPECT_EQ(res.cover, clean.cover);
    EXPECT_EQ(res.iterations, clean.iterations);
    EXPECT_EQ(res.a_path_size, clean.a_path_size);
    EXPECT_EQ(res.small_path_size, clean.small_path_size);
    EXPECT_EQ(res.total_rounds, clean.total_rounds);
    EXPECT_TRUE(is_matching(g, res.matching));
  }
}

TEST(DurableResume, IntegralMatchingOuterStopFlagFlushesTheCursor) {
  // A stop flag that is already set stops at the very first outer
  // iteration boundary — after the cursor flush — and the resume replays
  // the whole run bit-identically from that (empty-progress) cursor.
  const Graph g = make_family("gnp_sparse", 600, 21);
  IntegralMatchingOptions opt;
  opt.seed = 21;
  const auto clean = integral_matching(g, opt);
  TempDir td;
  std::atomic<bool> stop{true};
  IntegralMatchingOptions d = opt;
  d.durable.dir = td.path + "/ck";
  d.durable.stop_flag = &stop;
  EXPECT_THROW((void)integral_matching(g, d), ResumableInterrupt);
  IntegralMatchingOptions r = opt;
  r.durable.dir = td.path + "/ck";
  r.durable.resume = true;
  const auto res = integral_matching(g, r);
  EXPECT_EQ(res.matching, clean.matching);
  EXPECT_EQ(res.iterations, clean.iterations);
}

// ----------------------------------------------- corruption on the resume

TEST(DurableResume, ResumeFallsBackPastARottedOnDiskGeneration) {
  // Stop late enough that two generations exist on disk, rot the newest,
  // and resume: the load must fall back to the older verified generation
  // (disk_fallbacks tick) and the longer replay must still end
  // bit-identical. matching_mpc has a safe point per phase/tail iteration
  // (dozens at this size), so stop 5 leaves two generations.
  const Graph g = make_family("gnp_sparse", 1200, 25);
  MatchingMpcOptions opt;
  opt.seed = 25;
  const auto clean = matching_mpc(g, opt);
  TempDir td;
  MatchingMpcOptions d = opt;
  d.durable.dir = td.path + "/ck";
  d.durable.stop_after_safe_points = 5;
  bool stopped = false;
  try {
    (void)matching_mpc(g, d);
  } catch (const ResumableInterrupt&) {
    stopped = true;
  }
  ASSERT_TRUE(stopped) << "run finished before 5 safe points; shrink n";
  const DurableRing ring(td.path + "/ck");
  std::string newest;
  std::uint64_t best_seq = 0;
  for (const std::string& path : ring.generation_paths()) {
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) continue;
    const auto c = fault::read_checkpoint_file(path);
    if (c.seq > best_seq) {
      best_seq = c.seq;
      newest = path;
    }
  }
  ASSERT_FALSE(newest.empty());
  std::vector<char> bytes = slurp(newest);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  spit(newest, bytes);

  MatchingMpcOptions r = opt;
  r.durable.dir = td.path + "/ck";
  r.durable.resume = true;
  const auto res = matching_mpc(g, r);
  EXPECT_EQ(res.x, clean.x);
  EXPECT_EQ(res.cover, clean.cover);
  EXPECT_EQ(res.freeze_iteration, clean.freeze_iteration);
  EXPECT_EQ(res.metrics.rounds, clean.metrics.rounds);
  EXPECT_EQ(res.metrics.resume_loads, 1U);
  EXPECT_GE(res.metrics.disk_fallbacks, 1U);
}

TEST(DurableResume, RotInTheOlderGenerationIsNoDiskFallback) {
  // The mirror of the test above: two generations on disk, the *older*
  // one rotted. Resume loads the newest, so disk_fallbacks stays 0.
  const Graph g = make_family("gnp_sparse", 1200, 25);
  MatchingMpcOptions opt;
  opt.seed = 25;
  const auto clean = matching_mpc(g, opt);
  TempDir td;
  MatchingMpcOptions d = opt;
  d.durable.dir = td.path + "/ck";
  d.durable.stop_after_safe_points = 5;
  EXPECT_THROW((void)matching_mpc(g, d), ResumableInterrupt);
  const std::vector<std::string> paths =
      DurableRing(td.path + "/ck").generation_paths();
  ASSERT_EQ(paths.size(), 2U);
  std::vector<char> bytes = slurp(paths.front());  // oldest first
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  spit(paths.front(), bytes);

  MatchingMpcOptions r = opt;
  r.durable.dir = td.path + "/ck";
  r.durable.resume = true;
  const auto res = matching_mpc(g, r);
  EXPECT_EQ(res.x, clean.x);
  EXPECT_EQ(res.cover, clean.cover);
  EXPECT_EQ(res.metrics.rounds, clean.metrics.rounds);
  EXPECT_EQ(res.metrics.resume_loads, 1U);
  EXPECT_EQ(res.metrics.disk_fallbacks, 0U);
}

// ------------------------------------------- short or overlong sections

TEST(DurableResume, ShortOuterCursorThrowsInsteadOfReadingPastIt) {
  // A same-scope outer cursor whose section verifies but claims a
  // 1,000,000-edge matching it does not hold.
  const Graph g = make_family("gnp_sparse", 600, 21);
  IntegralMatchingOptions opt;
  opt.seed = 21;
  TempDir td;
  std::atomic<bool> stop{true};
  IntegralMatchingOptions d = opt;
  d.durable.dir = td.path + "/ck";
  d.durable.stop_flag = &stop;
  EXPECT_THROW((void)integral_matching(g, d), ResumableInterrupt);
  rewrite_newest_section(td.path + "/ck/outer", "outer", {0, 1000000});
  IntegralMatchingOptions r = opt;
  r.durable.dir = td.path + "/ck";
  r.durable.resume = true;
  try {
    (void)integral_matching(g, r);
    FAIL() << "a short outer cursor was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("'outer'"), std::string::npos)
        << e.what();
  }
}

TEST(DurableResume, ShortOrOverlongProviderSectionThrowsNamingIt) {
  // A same-scope generation whose 'freeze' section verifies but holds 3
  // words instead of one per vertex, or one word too many.
  const Graph g = make_family("gnp_sparse", 1200, 25);
  MatchingMpcOptions opt;
  opt.seed = 25;
  for (const bool overlong : {false, true}) {
    TempDir td;
    MatchingMpcOptions d = opt;
    d.durable.dir = td.path + "/ck";
    d.durable.stop_after_safe_points = 1;
    EXPECT_THROW((void)matching_mpc(g, d), ResumableInterrupt);
    std::vector<std::uint64_t> freeze = {0, 0, 0};
    if (overlong) freeze.assign(g.num_vertices() + 1, 0);
    rewrite_newest_section(td.path + "/ck", "freeze", freeze);
    MatchingMpcOptions r = opt;
    r.durable.dir = td.path + "/ck";
    r.durable.resume = true;
    try {
      (void)matching_mpc(g, r);
      FAIL() << "a " << (overlong ? "overlong" : "short")
             << " freeze section was accepted";
    } catch (const CheckpointError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'freeze'"), std::string::npos) << what;
      EXPECT_NE(what.find(overlong ? "leftover" : "truncated"),
                std::string::npos)
          << what;
    }
  }
}

// -------------------------------------------------------- metric hygiene

TEST(DurableMetrics, AllDiskMetricsZeroWhenPersistenceOff) {
  const Graph g = make_family("gnp_sparse", 800, 3);
  {
    MisMpcOptions opt;
    opt.seed = 3;
    const auto r = mis_mpc(g, opt);
    EXPECT_EQ(r.metrics.disk_checkpoints_written, 0U);
    EXPECT_EQ(r.metrics.disk_checkpoint_words, 0U);
    EXPECT_EQ(r.metrics.resume_loads, 0U);
    EXPECT_EQ(r.metrics.disk_fallbacks, 0U);
    EXPECT_EQ(r.metrics.faults_skipped_on_resume, 0U);
  }
  {
    MatchingMpcOptions opt;
    opt.seed = 3;
    const auto r = matching_mpc(g, opt);
    EXPECT_EQ(r.metrics.disk_checkpoints_written, 0U);
    EXPECT_EQ(r.metrics.disk_checkpoint_words, 0U);
    EXPECT_EQ(r.metrics.resume_loads, 0U);
    EXPECT_EQ(r.metrics.disk_fallbacks, 0U);
    EXPECT_EQ(r.metrics.faults_skipped_on_resume, 0U);
  }
  {
    MisCcliqueOptions opt;
    opt.seed = 3;
    const auto r = mis_cclique(g, opt);
    EXPECT_EQ(r.metrics.disk_checkpoints_written, 0U);
    EXPECT_EQ(r.metrics.disk_checkpoint_words, 0U);
    EXPECT_EQ(r.metrics.resume_loads, 0U);
    EXPECT_EQ(r.metrics.disk_fallbacks, 0U);
    EXPECT_EQ(r.metrics.faults_skipped_on_resume, 0U);
  }
}

TEST(DurableMetrics, PersistentRunCountsItsDiskWrites) {
  const Graph g = make_family("gnp_sparse", 800, 3);
  TempDir td;
  MisMpcOptions opt;
  opt.seed = 3;
  opt.durable.dir = td.path + "/ck";
  const auto r = mis_mpc(g, opt);
  EXPECT_GE(r.metrics.disk_checkpoints_written, 1U);
  EXPECT_GT(r.metrics.disk_checkpoint_words, 0U);
  EXPECT_EQ(r.metrics.resume_loads, 0U);  // fresh start, nothing loaded
  // Persistence must not perturb the in-memory checkpoint accounting
  // (PR 6–8 pins): no plan, no captures.
  EXPECT_EQ(r.metrics.checkpoint_bytes, 0U);
}

// ------------------------------------------- fault-plan interop (resume)

TEST(DurableResume, ResumeSkipsFaultsFromAlreadyCompletedRounds) {
  // run_with_reprovision interop: the durable run rides inside the
  // reprovision wrapper (a ResumableInterrupt is not under-provisioning
  // and must propagate), and the resumed process must not re-inject plan
  // events from rounds before the resume point — they already fired and
  // were absorbed before the persisted safe point.
  const Graph g = make_family("gnp_sparse", 1024, 31);
  MatchingMpcOptions opt;
  opt.seed = 31;
  const auto clean = matching_mpc(g, opt);
  ASSERT_GT(clean.metrics.rounds, 8U);

  fault::FaultPlan plan;
  plan.add_crash(0, 2);
  plan.add_crash(1, clean.metrics.rounds - 2);
  MatchingMpcOptions faulty = opt;
  faulty.fault_plan = &plan;
  const auto ref = matching_mpc(g, faulty);
  EXPECT_EQ(ref.x, clean.x);

  TempDir td;
  MatchingMpcOptions d = faulty;
  d.durable.dir = td.path + "/ck";
  d.durable.stop_after_safe_points = 8;
  const fault::ReprovisionPolicy policy;
  bool stopped = false;
  try {
    (void)fault::run_with_reprovision(
        policy, [&](std::size_t) { return matching_mpc(g, d); },
        [](const MatchingMpcResult&) { return true; });
  } catch (const ResumableInterrupt&) {
    stopped = true;
  }
  ASSERT_TRUE(stopped) << "run finished before 8 safe points; shrink n";

  MatchingMpcOptions r = faulty;
  r.durable.dir = td.path + "/ck";
  r.durable.resume = true;
  const auto outcome = fault::run_with_reprovision(
      policy, [&](std::size_t) { return matching_mpc(g, r); },
      [](const MatchingMpcResult&) { return true; });
  ASSERT_TRUE(outcome.ok());
  const auto& res = *outcome.result;
  EXPECT_EQ(res.x, clean.x);
  EXPECT_EQ(res.cover, clean.cover);
  EXPECT_EQ(res.metrics.rounds, clean.metrics.rounds);
  EXPECT_EQ(res.metrics.resume_loads, 1U);
  // The round-2 crash fired before the stop point; the resumed process
  // counts it as skipped instead of replaying it.
  EXPECT_GE(res.metrics.faults_skipped_on_resume, 1U);
  EXPECT_TRUE(is_fractional_matching(g, res.x));
}

}  // namespace
}  // namespace mpcg
