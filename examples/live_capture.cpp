// Live capture with the real LD_PRELOAD collector.
//
//   $ ./example_live_capture [path/to/libsiren_preload.so] [command...]
//
// Starts a one-shard in-memory ingest server, runs `command` (default:
// /bin/ls /) with libsiren_preload.so injected, and prints the consolidated
// record of what the hooked process reported — SIREN's actual deployment
// mechanism on a single machine. The default shim is the one the build
// puts beside this binary.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "consolidate/consolidator.hpp"
#include "ingest/ingest_server.hpp"

int main(int argc, char** argv) {
    std::error_code ec;
    const std::string preload =
        argc > 1 ? argv[1]
                 : (std::filesystem::read_symlink("/proc/self/exe", ec).parent_path() /
                    "libsiren_preload.so")
                       .string();

    std::mutex mutex;
    std::vector<siren::net::Message> messages;
    siren::ingest::IngestOptions options;
    options.shards = 1;
    siren::ingest::IngestServer server(
        options, [&](std::size_t, std::span<const siren::net::MessageView> batch) {
            std::lock_guard lock(mutex);
            for (const auto& view : batch) messages.push_back(view.to_message());
        });
    std::printf("receiver listening on udp://127.0.0.1:%u\n", server.port());

    const pid_t pid = ::fork();
    if (pid < 0) {
        std::perror("fork");
        return 1;
    }
    if (pid == 0) {
        ::setenv("LD_PRELOAD", preload.c_str(), 1);
        ::setenv("SIREN_PORT", std::to_string(server.port()).c_str(), 1);
        ::setenv("SLURM_JOB_ID", "20240001", 1);
        ::setenv("SLURM_PROCID", "0", 1);
        if (argc > 2) {
            ::execvp(argv[2], argv + 2);
        } else {
            ::execl("/bin/ls", "ls", "/", static_cast<char*>(nullptr));
        }
        ::_exit(127);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    server.quiesce();
    server.stop();

    std::printf("child exited %d; received %zu datagrams\n\n",
                WIFEXITED(status) ? WEXITSTATUS(status) : -1, messages.size());
    if (messages.empty()) {
        std::printf("no data received — is %s built? (cmake --build build)\n",
                    preload.c_str());
        return 1;
    }

    const auto consolidated = siren::consolidate::consolidate(messages);
    for (const auto& r : consolidated.records) {
        std::printf("process record:\n");
        std::printf("  exe      : %s\n", r.exe_path.c_str());
        std::printf("  category : %s\n", std::string(to_string(r.category)).c_str());
        std::printf("  job/pid  : %llu / %lld\n", static_cast<unsigned long long>(r.job_id),
                    static_cast<long long>(r.pid));
        std::printf("  host     : %s\n", r.host.c_str());
        if (r.exe_meta) {
            std::printf("  exe meta : %s\n", r.exe_meta->render().c_str());
        }
        std::printf("  modules  : %zu entries\n", r.modules.size());
        std::printf("  mapped   : %zu files\n", r.memmap_paths.size());
        if (!r.file_hash.empty()) std::printf("  FILE_H   : %s\n", r.file_hash.c_str());
        std::printf("\n");
    }
    return 0;
}
