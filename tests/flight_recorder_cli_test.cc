// End-to-end check that the flight-recorder flags take effect: runs the
// Theorem 1 bench binary with --trace-out= and --stream-out= and asserts
// that both files are written and the trace is valid Chrome trace JSON; then
// checks that a bench with no recorder code of its own honours them too.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "telemetry/json.h"
#include "telemetry/trace.h"

namespace bitspread {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(FlightRecorderCli, Thm1QuickWritesValidTraceAndStream) {
  // Per-process names: concurrent suites on one host must not share files.
  const std::string dir =
      testing::TempDir() + "/thm1_" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  const std::string trace_path = dir + "/trace.json";
  const std::string stream_path = dir + "/stream.jsonl";

  const std::string command =
      std::string("\"") + BITSPREAD_THM1_BENCH + "\" --quick --json=\"" +
      dir + "/report.json\" --trace-out=\"" + trace_path +
      "\" --stream-out=\"" + stream_path + "\" > /dev/null 2>&1";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;

  ASSERT_TRUE(std::filesystem::exists(trace_path));
  ASSERT_TRUE(std::filesystem::exists(stream_path));
  EXPECT_GT(std::filesystem::file_size(stream_path), 0u);

  const auto trace = JsonValue::parse(read_file(trace_path));
  ASSERT_TRUE(trace.has_value()) << "trace is not JSON";
  const std::vector<std::string> errors =
      telemetry::validate_chrome_trace(*trace);
  EXPECT_TRUE(errors.empty()) << errors.front();

  // bench_prop4_jump opens no recorder scope itself: the one its
  // BenchOptions own must honour the flags all the same.
  const std::string prop4 =
      std::string("\"") + BITSPREAD_PROP4_BENCH + "\" --quick --json=\"" +
      dir + "/prop4.json\" --trace-out=\"" + dir + "/prop4_trace.json\"" +
      " --profile-out=\"" + dir + "/prop4.folded\" > /dev/null 2>&1";
  ASSERT_EQ(std::system(prop4.c_str()), 0) << prop4;
  EXPECT_TRUE(std::filesystem::exists(dir + "/prop4_trace.json"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/prop4.folded"));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace bitspread
