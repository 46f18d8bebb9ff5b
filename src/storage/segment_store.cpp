#include "storage/segment_store.hpp"

#include <cstdio>
#include <filesystem>

#include "util/error.hpp"

namespace siren::storage {

SegmentStore::SegmentStore(std::string directory, std::size_t shards, SegmentOptions options)
    : directory_(std::move(directory)) {
    util::require(shards >= 1, "SegmentStore needs at least one shard");
    std::vector<std::string> prefixes;
    prefixes.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
        char prefix[32];
        std::snprintf(prefix, sizeof prefix, "shard%03zu-", s);
        prefixes.emplace_back(prefix);
    }
    // One pass over the shared directory computes every shard's restart
    // resume point — per-writer scans would walk the same (potentially
    // huge) listing `shards` times.
    const auto resume = scan_resume_sequences(directory_, prefixes);
    writers_.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
        writers_.push_back(std::make_unique<SegmentWriter>(
            directory_, prefixes[s], options,
            [this](const std::string& path) {
                std::lock_guard<std::mutex> lock(sealed_mutex_);
                sealed_.push_back({path, false});
                ++sealed_count_;
            },
            resume[s]));
    }
}

bool SegmentStore::append(std::size_t shard, std::string_view record) noexcept {
    return writers_[shard % writers_.size()]->append(record);
}

void SegmentStore::sync_all() noexcept {
    for (auto& w : writers_) w->sync();
}

void SegmentStore::close() noexcept {
    for (auto& w : writers_) w->rotate();
}

ReplayStats SegmentStore::replay(const RecordFn& fn) {
    sync_all();
    return replay_directory(directory_, fn);
}

std::vector<std::string> SegmentStore::sealed_segments() const {
    std::lock_guard<std::mutex> lock(sealed_mutex_);
    std::vector<std::string> paths;
    paths.reserve(sealed_.size());
    for (const auto& s : sealed_) paths.push_back(s.path);
    return paths;
}

void SegmentStore::mark_consolidated(const std::string& path) {
    std::lock_guard<std::mutex> lock(sealed_mutex_);
    for (auto& s : sealed_) {
        if (s.path == path) {
            s.consolidated = true;
            return;
        }
    }
}

std::size_t SegmentStore::compact() noexcept {
    std::lock_guard<std::mutex> lock(sealed_mutex_);
    std::size_t removed = 0;
    std::vector<Sealed> keep;
    keep.reserve(sealed_.size());
    for (auto& s : sealed_) {
        if (!s.consolidated) {
            keep.push_back(std::move(s));
            continue;
        }
        std::error_code ec;
        std::filesystem::remove(s.path, ec);
        if (ec) {
            keep.push_back(std::move(s));  // try again next sweep
        } else {
            ++removed;
        }
    }
    sealed_.swap(keep);
    compacted_.fetch_add(removed, std::memory_order_relaxed);
    return removed;
}

std::uint64_t SegmentStore::appended() const {
    std::uint64_t total = 0;
    for (const auto& w : writers_) total += w->appended();
    return total;
}

std::uint64_t SegmentStore::appended_bytes() const {
    std::uint64_t total = 0;
    for (const auto& w : writers_) total += w->appended_bytes();
    return total;
}

std::uint64_t SegmentStore::errors() const {
    std::uint64_t total = 0;
    for (const auto& w : writers_) total += w->errors();
    return total;
}

std::uint64_t SegmentStore::segments_sealed() const {
    std::lock_guard<std::mutex> lock(sealed_mutex_);
    return sealed_count_;
}

}  // namespace siren::storage
