// End-to-end smoke of the ecocharge_cli binary's input boundary: unknown
// subcommands, unknown flags and malformed or out-of-range numbers must
// exit 2 (flags and numbers with an InvalidArgument), never run a default
// configuration or abort; and the files one subcommand writes load in the
// others.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <string>

namespace ecocharge {
namespace {

#ifndef ECOCHARGE_CLI_BIN
#define ECOCHARGE_CLI_BIN ""
#endif

/// Runs `cmd` (stderr folded into stdout), returning its output; exit
/// status lands in `*exit_code`.
std::string RunCommand(const std::string& cmd, int* exit_code) {
  std::string out;
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) {
    *exit_code = -1;
    return out;
  }
  char buf[512];
  while (fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  *exit_code = pclose(pipe);
  return out;
}

/// Runs `args` and expects exit status 2 with `message` in the output.
void ExpectRejected(const std::string& args, const std::string& message) {
  int code = 0;
  const std::string out = RunCommand(ECOCHARGE_CLI_BIN " " + args, &code);
  ASSERT_TRUE(WIFEXITED(code)) << args << "\n" << out;
  EXPECT_EQ(WEXITSTATUS(code), 2) << args << "\n" << out;
  EXPECT_NE(out.find(message), std::string::npos) << args << "\n" << out;
}

TEST(CliSmokeTest, RejectsFlagsTheSubcommandDoesNotKnow) {
  if (std::string(ECOCHARGE_CLI_BIN).empty()) GTEST_SKIP();
  const std::string rank = "rank --kind oldenburg --chargers 60 --scale 0.003";
  ExpectRejected(rank + " --k 3 --bogus-flag 7",
                 "InvalidArgument: unknown flag --bogus-flag");
  // A flag of another subcommand is unknown here too.
  ExpectRejected(rank + " --k 3 --statsz",
                 "InvalidArgument: unknown flag --statsz");
  ExpectRejected(rank + " --k 3 stray", "InvalidArgument: unexpected argument");
  // Retired flags: the CH derouting backend, its sweep workers and the
  // scalar-kernel switch.
  ExpectRejected(rank + " --k 3 --derouting ch",
                 "InvalidArgument: unknown flag --derouting");
  ExpectRejected(rank + " --k 3 --ch-threads 2",
                 "InvalidArgument: unknown flag --ch-threads");
  ExpectRejected(rank + " --k 3 --no-simd",
                 "InvalidArgument: unknown flag --no-simd");
  ExpectRejected("serve --threads 0 --requests 4 --no-simd",
                 "InvalidArgument: unknown flag --no-simd");
  // `graph ch` (the CH contraction subcommand) is gone: an unknown
  // subcommand, followed by the usage text, which no longer lists it.
  ExpectRejected("graph ch --in a.ecgs --out b.ecgs",
                 "InvalidArgument: unknown subcommand 'graph ch'");
  int code = 0;
  const std::string usage = RunCommand(ECOCHARGE_CLI_BIN " graph ch", &code);
  EXPECT_NE(usage.find("  graph build"), std::string::npos) << usage;
  EXPECT_EQ(usage.find("  graph ch"), std::string::npos) << usage;
}

TEST(CliSmokeTest, RejectsMalformedAndOutOfRangeNumbers) {
  if (std::string(ECOCHARGE_CLI_BIN).empty()) GTEST_SKIP();
  const std::string rank = "rank --kind oldenburg --chargers 60 --scale 0.003";
  for (const char* bad : {"--k abc", "--k -1", "--k 3x",
                          "--k 99999999999999999999999", "--radius-km 1e999",
                          "--hour"}) {
    ExpectRejected(rank + " " + bad, "InvalidArgument: --");
  }
  ExpectRejected("serve --threads two", "InvalidArgument: --threads");
}

/// Runs `args` and expects exit status 0; returns the output.
std::string ExpectSucceeds(const std::string& args) {
  int code = 0;
  const std::string out = RunCommand(ECOCHARGE_CLI_BIN " " + args, &code);
  EXPECT_TRUE(WIFEXITED(code) && WEXITSTATUS(code) == 0) << args << "\n"
                                                         << out;
  return out;
}

TEST(CliSmokeTest, GenDatasetNetworkLoadsAsSnapshot) {
  // gen-dataset writes its network as a snapshot, which `rank
  // --graph-snapshot` and `graph info` read back.
  if (std::string(ECOCHARGE_CLI_BIN).empty()) GTEST_SKIP();
  const std::string prefix = ::testing::TempDir() + "/cli_smoke_dataset";
  const std::string snapshot = prefix + ".ecgs";
  const std::string wrote = ExpectSucceeds(
      "gen-dataset --kind oldenburg --scale 0.01 --out " + prefix);
  EXPECT_NE(wrote.find(snapshot), std::string::npos) << wrote;
  const std::string table = ExpectSucceeds(
      "rank --kind oldenburg --chargers 60 --k 3 --graph-snapshot " +
      snapshot);
  EXPECT_FALSE(table.empty());
  const std::string info = ExpectSucceeds("graph info --load --in " + snapshot);
  EXPECT_NE(info.find("out_arcs (id 3)"), std::string::npos) << info;
  EXPECT_EQ(info.find("in_edge_ids"), std::string::npos) << info;
  EXPECT_NE(info.find("sanity sweep from node 0 reached"), std::string::npos)
      << info;
  std::remove(snapshot.c_str());
  std::remove((prefix + ".ect").c_str());
}

}  // namespace
}  // namespace ecocharge
