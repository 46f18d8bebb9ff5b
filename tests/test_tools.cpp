// End-to-end tests of the operator CLIs (siren_hash, siren_registry,
// siren_query, siren_recognized, siren_shard, siren_ingestd,
// bench_to_json.py):
// real fork/exec of the built binaries, exit codes and stdout contracts.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "net/codec.hpp"
#include "net/udp.hpp"

#ifndef SIREN_HASH_PATH
#define SIREN_HASH_PATH "siren_hash"
#endif
#ifndef SIREN_REGISTRY_PATH
#define SIREN_REGISTRY_PATH "siren_registry"
#endif

namespace {

namespace fs = std::filesystem;

struct RunResult {
    int exit_code = -1;
    std::string out;
};

/// Run a binary with args, capture stdout; returns exit code -1 on spawn
/// failure (callers GTEST_SKIP on that, for locked-down environments) and
/// 128 + signal, as a shell reports it, when the binary was killed.
RunResult run(const std::string& binary, const std::vector<std::string>& args) {
    std::string command = binary;
    for (const auto& a : args) command += " '" + a + "'";
    command += " 2>/dev/null";

    RunResult result;
    FILE* pipe = ::popen(command.c_str(), "r");
    if (pipe == nullptr) return result;
    std::array<char, 4096> buf{};
    std::size_t n = 0;
    while ((n = ::fread(buf.data(), 1, buf.size(), pipe)) > 0) {
        result.out.append(buf.data(), n);
    }
    const int status = ::pclose(pipe);
    if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
    if (WIFSIGNALED(status)) result.exit_code = 128 + WTERMSIG(status);
    return result;
}

/// A scratch file with deterministic content, deleted on scope exit.
class ScratchFile {
public:
    ScratchFile(const std::string& name, std::size_t size, std::uint8_t fill_seed) {
        path_ = (fs::temp_directory_path() / name).string();
        std::ofstream out(path_, std::ios::binary);
        // xorshift stream per seed: files with different seeds share no
        // structure (a linear ramp pattern would fuzzy-match across seeds).
        std::uint64_t state = 0x9E3779B97F4A7C15ull * (fill_seed + 1);
        for (std::size_t i = 0; i < size; ++i) {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            out.put(static_cast<char>(state & 0xFF));
        }
    }
    ~ScratchFile() { std::error_code ec; fs::remove(path_, ec); }
    const std::string& path() const { return path_; }

private:
    std::string path_;
};

}  // namespace

TEST(ToolsHash, PrintsDigestPerFile) {
    ScratchFile f("siren_tools_a.bin", 8192, 1);
    const auto r = run(SIREN_HASH_PATH, {f.path()});
    if (r.exit_code == -1) GTEST_SKIP() << "cannot spawn processes here";
    EXPECT_EQ(r.exit_code, 0);
    // "digest  path" — digest has the bs:d1:d2 shape.
    EXPECT_NE(r.out.find(':'), std::string::npos);
    EXPECT_NE(r.out.find(f.path()), std::string::npos);
}

TEST(ToolsHash, CompareModeSelfIs100) {
    ScratchFile f("siren_tools_b.bin", 8192, 2);
    const auto r = run(SIREN_HASH_PATH, {"-c", f.path(), f.path()});
    if (r.exit_code == -1) GTEST_SKIP() << "cannot spawn processes here";
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_EQ(r.out, "100\n");
}

TEST(ToolsHash, MissingFileExitsTwo) {
    const auto r = run(SIREN_HASH_PATH, {"/nonexistent/siren/file"});
    if (r.exit_code == -1) GTEST_SKIP() << "cannot spawn processes here";
    EXPECT_EQ(r.exit_code, 2);
}

TEST(ToolsHash, NoArgumentsIsUsageError) {
    const auto r = run(SIREN_HASH_PATH, {});
    if (r.exit_code == -1) GTEST_SKIP() << "cannot spawn processes here";
    EXPECT_EQ(r.exit_code, 1);
}

TEST(ToolsRegistry, ObserveMatchListRoundTrip) {
    const auto reg = (fs::temp_directory_path() / "siren_tools_reg.txt").string();
    std::error_code ec;
    fs::remove(reg, ec);

    ScratchFile app("siren_tools_app.bin", 16384, 3);
    ScratchFile other("siren_tools_other.bin", 16384, 200);

    auto r = run(SIREN_REGISTRY_PATH, {"observe", reg, app.path(), "MyApp"});
    if (r.exit_code == -1) GTEST_SKIP() << "cannot spawn processes here";
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.out.find("MyApp"), std::string::npos);
    EXPECT_NE(r.out.find("[new family]"), std::string::npos);

    // The registry file persists; a match from a fresh process recognizes
    // the same bytes and does not mutate the registry.
    r = run(SIREN_REGISTRY_PATH, {"match", reg, app.path()});
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.out.find("MyApp"), std::string::npos);
    EXPECT_NE(r.out.find("score 100"), std::string::npos);

    r = run(SIREN_REGISTRY_PATH, {"match", reg, other.path()});
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.out.find("unknown"), std::string::npos);

    r = run(SIREN_REGISTRY_PATH, {"list", reg});
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.out.find("MyApp"), std::string::npos);

    fs::remove(reg, ec);
}

TEST(ToolsRegistry, CorruptRegistryExitsTwo) {
    const auto reg = (fs::temp_directory_path() / "siren_tools_corrupt.txt").string();
    {
        std::ofstream out(reg);
        out << "this is not a registry\n";
    }
    ScratchFile app("siren_tools_c.bin", 8192, 4);
    const auto r = run(SIREN_REGISTRY_PATH, {"observe", reg, app.path()});
    if (r.exit_code == -1) GTEST_SKIP() << "cannot spawn processes here";
    EXPECT_EQ(r.exit_code, 2);
    std::error_code ec;
    fs::remove(reg, ec);
}

TEST(ToolsRegistry, UsageErrorsExitOne) {
    const auto r = run(SIREN_REGISTRY_PATH, {"bogus-command", "x"});
    if (r.exit_code == -1) GTEST_SKIP() << "cannot spawn processes here";
    EXPECT_EQ(r.exit_code, 1);
}

#ifndef SIREN_QUERY_PATH
#define SIREN_QUERY_PATH "siren_query"
#endif
#ifndef SIREN_RECOGNIZED_PATH
#define SIREN_RECOGNIZED_PATH "siren_recognized"
#endif
#ifndef SIREN_SHARD_PATH
#define SIREN_SHARD_PATH "siren_shard"
#endif

TEST(ToolsQuery, UnknownFlagIsUsageErrorNotTablesView) {
    // Regression: `siren_query DB --bogus` used to fall through to the
    // default tables view; an unrecognized flag must be rejected loudly.
    const auto r = run(SIREN_QUERY_PATH, {"/tmp", "--bogus"});
    if (r.exit_code == -1) GTEST_SKIP() << "cannot spawn processes here";
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_TRUE(r.out.empty()) << "usage goes to stderr, not stdout: " << r.out;
}

TEST(ToolsQuery, UnknownLeadingFlagIsUsageError) {
    auto r = run(SIREN_QUERY_PATH, {"--bogus", "x"});
    if (r.exit_code == -1) GTEST_SKIP() << "cannot spawn processes here";
    EXPECT_EQ(r.exit_code, 1);
    // Not modes: --identify2 takes "R - DIGEST 1" and "R DIGEST - K".
    r = run(SIREN_QUERY_PATH, {"--identify-ts", "127.0.0.1:1", "3:abc:def"});
    EXPECT_EQ(r.exit_code, 1);
    r = run(SIREN_QUERY_PATH, {"--topn", "127.0.0.1:1", "3:abc:def", "3"});
    EXPECT_EQ(r.exit_code, 1);
}

TEST(ToolsQuery, ExtraArgumentsAreUsageErrors) {
    const auto r = run(SIREN_QUERY_PATH, {"/tmp", "--records", "extra"});
    if (r.exit_code == -1) GTEST_SKIP() << "cannot spawn processes here";
    EXPECT_EQ(r.exit_code, 1);
}

TEST(ToolsQuery, BadEndpointExitsOne) {
    const auto r = run(SIREN_QUERY_PATH, {"--identify", "not-an-endpoint", "3:abc:def"});
    if (r.exit_code == -1) GTEST_SKIP() << "cannot spawn processes here";
    EXPECT_EQ(r.exit_code, 1);
}

TEST(ToolsQuery, UnreachableServiceExitsTwo) {
    // Port 1 on loopback: connect() refused — runtime failure, not usage.
    const auto r = run(SIREN_QUERY_PATH, {"--identify", "127.0.0.1:1", "3:abc:def"});
    if (r.exit_code == -1) GTEST_SKIP() << "cannot spawn processes here";
    EXPECT_EQ(r.exit_code, 2);
}

TEST(ToolsRecognized, UsageErrors) {
    auto r = run(SIREN_RECOGNIZED_PATH, {});
    if (r.exit_code == -1) GTEST_SKIP() << "cannot spawn processes here";
    EXPECT_EQ(r.exit_code, 1);
    r = run(SIREN_RECOGNIZED_PATH, {"not-a-port"});
    EXPECT_EQ(r.exit_code, 1);
    r = run(SIREN_RECOGNIZED_PATH, {"0", "--bogus"});
    EXPECT_EQ(r.exit_code, 1);
    r = run(SIREN_RECOGNIZED_PATH, {"0", "--threshold", "200"});
    EXPECT_EQ(r.exit_code, 1);
    r = run(SIREN_RECOGNIZED_PATH, {"0", "--seconds"});
    EXPECT_EQ(r.exit_code, 1) << "a flag missing its value is incomplete, not ignored";
    // Shard ids are 32-bit; a wider one must not wrap onto shard 0 or 1.
    // --seconds 1 bounds the run should the id ever be accepted again.
    for (const char* id : {"4294967296", "4294967297"}) {
        r = run(SIREN_RECOGNIZED_PATH, {"0", "--shard-id", id, "--seconds", "1"});
        EXPECT_EQ(r.exit_code, 1) << "--shard-id " << id;
    }
}

TEST(ToolsShard, MoveRejectsOwnerWiderThan32Bits) {
    const auto map = (fs::temp_directory_path() / "siren_tools_shard.map").string();
    const auto out = (fs::temp_directory_path() / "siren_tools_shard_out.map").string();
    auto r = run(SIREN_SHARD_PATH, {"split", map, "1", "127.0.0.1:1,127.0.0.1:2", "1000"});
    if (r.exit_code == -1) GTEST_SKIP() << "cannot spawn processes here";
    ASSERT_EQ(r.exit_code, 0);
    // 4294967297 would wrap to shard 1, which exists: it must be a usage
    // error instead of a silent move.
    r = run(SIREN_SHARD_PATH, {"move", map, out, "0", "99", "4294967297"});
    EXPECT_EQ(r.exit_code, 1);
    r = run(SIREN_SHARD_PATH, {"move", map, out, "0", "99", "1"});
    EXPECT_EQ(r.exit_code, 0) << "a 32-bit owner still moves";
    std::error_code ec;
    fs::remove(map, ec);
    fs::remove(out, ec);
}

#ifndef SIREN_INGESTD_PATH
#define SIREN_INGESTD_PATH "siren_ingestd"
#endif

TEST(ToolsIngestd, EphemeralPortBannerArrivesBeforeExit) {
    // A script that binds port 0 reads the port off the banner while the
    // daemon runs, so the banner must not wait in stdout's buffer for exit.
    const fs::path dir =
        fs::temp_directory_path() / ("siren_tools_ingestd_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    const std::string command = std::string(SIREN_INGESTD_PATH) + " 0 '" + dir.string() +
                                "' --memory --seconds 2 2>/dev/null";
    FILE* pipe = ::popen(command.c_str(), "r");
    if (pipe == nullptr) GTEST_SKIP() << "cannot spawn processes here";

    std::array<char, 512> line{};
    const std::string banner = ::fgets(line.data(), line.size(), pipe) ? line.data() : "";
    const std::string endpoint = "udp://127.0.0.1:";
    const auto at = banner.find(endpoint);
    if (at != std::string::npos) {
        siren::net::Message m;
        m.job_id = 77;
        m.exe_hash = "beef";
        m.host = "nid000001";
        m.type = siren::net::MsgType::kIds;
        m.content = "pid=1 exe=/usr/bin/true";
        siren::net::UdpSender sender(
            "127.0.0.1", static_cast<std::uint16_t>(std::stoi(banner.substr(at + endpoint.size()))));
        sender.send(siren::net::encode(m));
    }
    // Read to EOF before pclose: closing early would SIGPIPE the daemon's
    // shutdown report.
    while (::fgets(line.data(), line.size(), pipe) != nullptr) {
    }
    const int status = ::pclose(pipe);

    ASSERT_NE(at, std::string::npos) << "banner: " << banner;
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
    std::ifstream in(dir / "messages.tsv");
    std::size_t lines = 0;
    for (std::string row; std::getline(in, row);) ++lines;
    EXPECT_EQ(lines, 2u) << "the header plus the one datagram sent after the banner";
    std::error_code ec;
    fs::remove_all(dir, ec);
}

TEST(ToolsIngestd, UnusableDataDirExitsTwo) {
    // /dev/null/x can never be a directory. Both modes must report that and
    // exit 2, not abort on an uncaught filesystem error.
    auto r = run(SIREN_INGESTD_PATH, {"0", "/dev/null/x", "--memory", "--seconds", "1"});
    if (r.exit_code == -1) GTEST_SKIP() << "cannot spawn processes here";
    EXPECT_EQ(r.exit_code, 2);
    r = run(SIREN_INGESTD_PATH, {"0", "/dev/null/x", "--replay"});
    EXPECT_EQ(r.exit_code, 2);
}

#ifndef SIREN_BENCH_TO_JSON_PATH
#define SIREN_BENCH_TO_JSON_PATH "tools/bench_to_json.py"
#endif

TEST(ToolsBenchToJson, CondensesGoogleBenchmarkOutput) {
    const auto raw = (fs::temp_directory_path() / "siren_tools_bench_raw.json").string();
    {
        std::ofstream out(raw);
        out << R"({
  "context": {"date": "2026-07-28T00:00:00", "num_cpus": 8},
  "benchmarks": [
    {"name": "BM_Decode", "run_type": "iteration", "iterations": 1000,
     "real_time": 400.0, "cpu_time": 399.0, "time_unit": "ns"},
    {"name": "BM_DecodeView", "run_type": "iteration", "iterations": 4000,
     "real_time": 100.0, "cpu_time": 99.0, "time_unit": "ns",
     "allocs_per_op": 0.0}
  ]
})";
    }

    const auto r = run("python3", {SIREN_BENCH_TO_JSON_PATH, raw});
    if (r.exit_code == -1) GTEST_SKIP() << "cannot spawn processes here";
    if (r.exit_code == 127) GTEST_SKIP() << "python3 unavailable";
    EXPECT_EQ(r.exit_code, 0);
    // The condensed record keeps both benchmarks and derives the headline
    // decode_view_speedup ratio (400 / 100 = 4.0).
    EXPECT_NE(r.out.find("\"BM_DecodeView\""), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("\"decode_view_speedup\": 4.0"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("\"allocs_per_op\": 0.0"), std::string::npos) << r.out;

    std::error_code ec;
    fs::remove(raw, ec);
}

TEST(ToolsBenchToJson, BadInputExitsOne) {
    const auto r = run("python3", {SIREN_BENCH_TO_JSON_PATH, "/nonexistent/bench.json"});
    if (r.exit_code == -1) GTEST_SKIP() << "cannot spawn processes here";
    if (r.exit_code == 127) GTEST_SKIP() << "python3 unavailable";
    EXPECT_EQ(r.exit_code, 1);
}
