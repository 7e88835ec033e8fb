// Shared helpers for the test suite: the (family x size x seed) catalogue
// lives in src/gen/families.h; these aliases keep test call sites short.
#ifndef MPCG_TESTS_TEST_UTIL_H
#define MPCG_TESTS_TEST_UTIL_H

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "gen/families.h"
#include "gen/generators.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace mpcg::testing {

/// Families exercised by the parameterized sweeps (mirrors
/// mpcg::family_names(), as a C array for ::testing::ValuesIn).
inline const char* const kFamilies[] = {
    "gnp_sparse", "gnp_dense", "power_law", "bipartite",
    "rmat",       "grid",      "star",      "cliques",
};

inline Graph make_family(const std::string& family, std::size_t n,
                         std::uint64_t seed) {
  return graph_family(family, n, seed);
}

/// A fresh directory under $TMPDIR (or /tmp), removed with everything in
/// it on destruction.
struct TempDir {
  std::string path;
  TempDir() {
    const char* base = std::getenv("TMPDIR");
    std::string tmpl =
        std::string(base != nullptr && *base != '\0' ? base : "/tmp") +
        "/mpcg_test.XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (mkdtemp(buf.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed");
    }
    path = buf.data();
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

}  // namespace mpcg::testing

#endif  // MPCG_TESTS_TEST_UTIL_H
