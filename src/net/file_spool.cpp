#include "net/file_spool.hpp"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <vector>

#include "net/codec.hpp"
#include "util/error.hpp"

namespace siren::net {

namespace fs = std::filesystem;

FileSpoolSender::FileSpoolSender(std::string spool_dir) : spool_dir_(std::move(spool_dir)) {
    std::error_code ec;
    fs::create_directories(spool_dir_, ec);
    // Failure intentionally ignored here: send() discovers it per datagram.
}

void FileSpoolSender::send(std::string_view datagram) noexcept {
    try {
        const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
        const std::string name = std::to_string(seq) + "-" + std::to_string(::getpid()) + ".msg";
        const fs::path path = fs::path(spool_dir_) / name;

        // Write to a dot-prefixed temp name first, then rename: a
        // concurrently running drain must never read a half-written file.
        const fs::path tmp = fs::path(spool_dir_) / ("." + name);
        {
            std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
            if (!out) {
                errors_.fetch_add(1, std::memory_order_relaxed);
                return;
            }
            out.write(datagram.data(), static_cast<std::streamsize>(datagram.size()));
            if (!out) {
                errors_.fetch_add(1, std::memory_order_relaxed);
                return;
            }
        }
        std::error_code ec;
        fs::rename(tmp, path, ec);
        if (ec) {
            errors_.fetch_add(1, std::memory_order_relaxed);
            fs::remove(tmp, ec);
            return;
        }
        sent_.fetch_add(1, std::memory_order_relaxed);
    } catch (...) {
        errors_.fetch_add(1, std::memory_order_relaxed);
    }
}

SpoolDrainStats drain_spool(const std::string& spool_dir, const BatchHandler& handler) {
    SpoolDrainStats stats;
    std::error_code ec;
    fs::directory_iterator it(spool_dir, ec);
    if (ec) return stats;  // missing/unreadable spool: empty sweep

    std::vector<fs::path> files;
    for (const auto& entry : it) {
        if (!entry.is_regular_file(ec)) continue;
        const auto name = entry.path().filename().string();
        if (name.starts_with('.') || !name.ends_with(".msg")) continue;  // temp or foreign
        files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());

    MessageView view;
    for (const auto& path : files) {
        ++stats.files_seen;
        std::ifstream in(path, std::ios::binary);
        std::string payload((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
        fs::remove(path, ec);
        try {
            decode_view(payload, view);
        } catch (const util::ParseError&) {
            ++stats.malformed;
            continue;
        }
        ++stats.delivered;
        if (handler) handler(0, std::span<const MessageView>(&view, 1));
    }
    return stats;
}

}  // namespace siren::net
