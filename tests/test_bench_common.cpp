// bench_common scaffolding tests: --out-dir resolution must create nested
// directories, honor explicit paths, and fail with a clear message instead
// of letting a later fopen die cryptically.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "bench_common.hpp"
#include "common/error.hpp"

namespace {

namespace fs = std::filesystem;
using kpm::bench::resolve_output;

/// A scratch directory private to the running test: ctest runs each case as
/// its own process, possibly in parallel, so the name carries the test name
/// and the process id.
struct TempDir {
  fs::path path;
  TempDir()
      : path(fs::temp_directory_path() /
             ("kpm_bench_common_test_" +
              std::string(testing::UnitTest::GetInstance()->current_test_info()->name()) + "_" +
              std::to_string(getpid()))) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

TEST(ResolveOutput, CreatesNestedDirectories) {
  TempDir tmp;
  const std::string dir = (tmp.path / "a" / "b" / "c").string();
  const std::string out = resolve_output(dir, "series.csv");
  EXPECT_EQ(out, dir + "/series.csv");
  EXPECT_TRUE(fs::is_directory(dir)) << "--out-dir must be created recursively";
}

TEST(ResolveOutput, IsIdempotentForExistingDirectories) {
  TempDir tmp;
  const std::string dir = tmp.path.string();
  ASSERT_EQ(resolve_output(dir, "a.csv"), dir + "/a.csv");
  EXPECT_EQ(resolve_output(dir, "b.csv"), dir + "/b.csv");
}

TEST(ResolveOutput, HonorsExplicitPathsAndEmptyDir) {
  EXPECT_EQ(resolve_output("results", "/abs/path.csv"), "/abs/path.csv");
  EXPECT_EQ(resolve_output("results", "sub/rel.csv"), "sub/rel.csv");
  EXPECT_EQ(resolve_output("", "plain.csv"), "plain.csv");
}

TEST(ResolveOutput, FailsClearlyWhenOutDirIsAFile) {
  TempDir tmp;
  fs::create_directories(tmp.path);
  const std::string blocker = (tmp.path / "blocker").string();
  std::ofstream(blocker) << "not a directory";
  try {
    (void)resolve_output(blocker, "series.csv");
    FAIL() << "expected kpm::Error";
  } catch (const kpm::Error& e) {
    EXPECT_NE(std::string(e.what()).find(blocker), std::string::npos)
        << "the message must name the offending path";
  }
}

}  // namespace
