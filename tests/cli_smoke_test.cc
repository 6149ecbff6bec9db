// End-to-end smoke of the ecocharge_cli binary: `graph build` a small
// snapshot, `graph ch` it, and check the summary line reports BOTH
// preprocessing phases — contraction and customization — with their
// timing/stats. The CLI is the operational entry point; its summary format
// is what runbooks and the bench harness grep, so it gets a pinned test.
// The flag parser is its input boundary: unknown flags and malformed or
// out-of-range numbers must exit 2 with an InvalidArgument, never run a
// default configuration or abort.

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

TEST(CliSmokeTest, GraphChSummaryReportsContractionAndCustomization) {
  const std::string bin = ECOCHARGE_CLI_BIN;
  if (bin.empty()) GTEST_SKIP() << "ecocharge_cli path not configured";

  const std::string dir = ::testing::TempDir();
  const std::string raw = dir + "/smoke_raw.ecgs";
  const std::string ch = dir + "/smoke_ch.ecgs";

  int code = 0;
  std::string out = RunCommand(bin +
                            " graph build --spec"
                            " \"type=grid;nx=20;ny=20;seed=3\" --out " +
                        raw, &code);
  ASSERT_EQ(code, 0) << out;
  ASSERT_NE(out.find("wrote"), std::string::npos) << out;

  out = RunCommand(bin + " graph ch --in " + raw + " --out " + ch +
            " --ch-threads 2", &code);
  ASSERT_EQ(code, 0) << out;
  // One line, both phases: "...; contracted in X s, ...; customized in
  // Y s (T threads, L levels, A arcs)".
  EXPECT_NE(out.find("contracted in"), std::string::npos) << out;
  EXPECT_NE(out.find("customized in"), std::string::npos) << out;
  EXPECT_NE(out.find("2 threads"), std::string::npos) << out;
  EXPECT_NE(out.find("levels"), std::string::npos) << out;
  EXPECT_NE(out.find("arcs"), std::string::npos) << out;
  EXPECT_NE(out.find("shortcuts"), std::string::npos) << out;
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

}  // namespace
}  // namespace ecocharge
