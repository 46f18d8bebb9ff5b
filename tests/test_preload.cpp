// The real LD_PRELOAD collector: inject libsiren_preload.so into a child
// process and verify messages arrive over real UDP loopback at a one-shard
// ingest server.
//
// This exercises the genuine mechanism of the paper (constructor/destructor
// hooks via the dynamic linker) on this machine. Skipped where fork/exec is
// unavailable, and in sanitizer builds (see Preload::SetUp).

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "ingest/ingest_server.hpp"

#ifndef SIREN_PRELOAD_PATH
#define SIREN_PRELOAD_PATH "libsiren_preload.so"
#endif

namespace sn = siren::net;

namespace {

/// Run `/bin/sh -c true`-style command with the preload active; returns
/// false when spawning failed.
bool run_with_preload(std::uint16_t port, const char* command) {
    const pid_t pid = ::fork();
    if (pid < 0) return false;
    if (pid == 0) {
        ::setenv("LD_PRELOAD", SIREN_PRELOAD_PATH, 1);
        ::setenv("SIREN_PORT", std::to_string(port).c_str(), 1);
        ::setenv("SLURM_JOB_ID", "4242", 1);
        ::setenv("SLURM_PROCID", "0", 1);
        ::setenv("LOADEDMODULES", "testmodule/1.0:other/2.0", 1);
        ::execl("/bin/sh", "sh", "-c", command, static_cast<char*>(nullptr));
        ::_exit(127);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// A one-shard in-memory ingest server that keeps every decoded message.
class Capture {
public:
    Capture()
        : server_(one_shard(), [this](std::size_t, std::span<const sn::MessageView> batch) {
              std::lock_guard lock(mutex_);
              for (const auto& view : batch) messages_.push_back(view.to_message());
          }) {}

    std::uint16_t port() const { return server_.port(); }

    /// Let in-flight datagrams land, stop, and return everything received.
    std::vector<sn::Message> finish() {
        server_.quiesce();
        server_.stop();
        return messages_;
    }

private:
    static siren::ingest::IngestOptions one_shard() {
        siren::ingest::IngestOptions options;
        options.shards = 1;
        return options;
    }

    std::mutex mutex_;
    std::vector<sn::Message> messages_;
    siren::ingest::IngestServer server_;
};

class Preload : public ::testing::Test {
protected:
    void SetUp() override {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
        GTEST_SKIP() << "sanitizer build: the instrumented shim cannot be preloaded into "
                        "uninstrumented /bin/sh and /usr/bin/true";
#endif
    }
};

}  // namespace

TEST_F(Preload, InjectsIntoRealProcess) {
    Capture capture;
    ASSERT_GT(capture.port(), 0);

    if (!run_with_preload(capture.port(), "exit 0")) {
        GTEST_SKIP() << "cannot fork/exec in this environment";
    }
    const std::vector<sn::Message> messages = capture.finish();
    ASSERT_FALSE(messages.empty()) << "no datagrams received from " << SIREN_PRELOAD_PATH;

    std::set<std::string> types;
    std::uint64_t job_id = 0;
    bool saw_modules_content = false;
    for (const auto& m : messages) {
        types.insert(std::string(sn::to_string(m.type)));
        job_id = m.job_id;
        if (m.type == sn::MsgType::kModules &&
            m.content.find("testmodule/1.0") != std::string::npos) {
            saw_modules_content = true;
        }
    }

    EXPECT_EQ(job_id, 4242u) << "SLURM_JOB_ID must propagate into the header";
    EXPECT_TRUE(types.count("IDS") == 1) << "identifier message missing";
    EXPECT_TRUE(saw_modules_content) << "LOADEDMODULES content missing";
}

TEST_F(Preload, SilentWithoutConfiguration) {
    // Without SIREN_PORT the constructor must do nothing and the hooked
    // process must run normally.
    const pid_t pid = ::fork();
    if (pid < 0) GTEST_SKIP() << "cannot fork";
    if (pid == 0) {
        ::setenv("LD_PRELOAD", SIREN_PRELOAD_PATH, 1);
        ::unsetenv("SIREN_PORT");
        ::execl("/bin/sh", "sh", "-c", "exit 7", static_cast<char*>(nullptr));
        ::_exit(127);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 7) << "preload must not disturb the process";
}

TEST_F(Preload, NonZeroRankIsSkipped) {
    // Paper §3.1: only SLURM_PROCID=0 collects; rank 5 must stay silent to
    // avoid duplicate data from MPI ranks of the same step.
    Capture capture;
    ASSERT_GT(capture.port(), 0);

    const pid_t pid = ::fork();
    if (pid < 0) GTEST_SKIP() << "cannot fork";
    if (pid == 0) {
        ::setenv("LD_PRELOAD", SIREN_PRELOAD_PATH, 1);
        ::setenv("SIREN_PORT", std::to_string(capture.port()).c_str(), 1);
        ::setenv("SLURM_PROCID", "5", 1);
        ::execl("/bin/sh", "sh", "-c", "exit 0", static_cast<char*>(nullptr));
        ::_exit(127);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        GTEST_SKIP() << "cannot exec in this environment";
    }
    // finish() waits out an idle window for stray datagrams; none may arrive.
    EXPECT_EQ(capture.finish().size(), 0u) << "rank 5 must not collect";
}

TEST_F(Preload, GarbagePortStaysSilentAndHarmless) {
    // A malformed SIREN_PORT parses to 0 — the collector must treat that as
    // unconfigured rather than crash or send anywhere.
    const pid_t pid = ::fork();
    if (pid < 0) GTEST_SKIP() << "cannot fork";
    if (pid == 0) {
        ::setenv("LD_PRELOAD", SIREN_PRELOAD_PATH, 1);
        ::setenv("SIREN_PORT", "not-a-port", 1);
        ::execl("/bin/sh", "sh", "-c", "exit 11", static_cast<char*>(nullptr));
        ::_exit(127);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 11);
}

TEST_F(Preload, ConstructorAndDestructorBothCollect) {
    Capture capture;
    ASSERT_GT(capture.port(), 0);

    // Exec a real binary directly: dash's `exit` builtin terminates via
    // _exit(), which skips shared-object destructors — a normal program
    // returning from main() runs them (the paper's destructor-hook path).
    const pid_t pid = ::fork();
    if (pid < 0) GTEST_SKIP() << "cannot fork";
    if (pid == 0) {
        ::setenv("LD_PRELOAD", SIREN_PRELOAD_PATH, 1);
        ::setenv("SIREN_PORT", std::to_string(capture.port()).c_str(), 1);
        ::setenv("SLURM_JOB_ID", "4242", 1);
        ::setenv("SLURM_PROCID", "0", 1);
        ::execl("/usr/bin/true", "true", static_cast<char*>(nullptr));
        ::_exit(127);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        GTEST_SKIP() << "cannot exec in this environment";
    }
    const std::vector<sn::Message> messages = capture.finish();
    ASSERT_FALSE(messages.empty()) << "no datagrams received from " << SIREN_PRELOAD_PATH;

    bool saw_constructor = false;
    bool saw_destructor = false;
    for (const auto& m : messages) {
        if (m.type == sn::MsgType::kIds) {
            if (m.content.find("phase=constructor") != std::string::npos) {
                saw_constructor = true;
            }
            if (m.content.find("phase=destructor") != std::string::npos) {
                saw_destructor = true;
            }
        }
    }
    EXPECT_TRUE(saw_constructor) << "startup hook must collect (paper Fig. 1)";
    EXPECT_TRUE(saw_destructor) << "termination hook must collect (paper Fig. 1)";
}
