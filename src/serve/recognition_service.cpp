#include "serve/recognition_service.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/inotify.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "net/codec.hpp"
#include "net/message.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace siren::serve {

namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

/// Earliest retry of a publish a failpoint aborted, when publish_interval
/// is shorter: the dirty state must not turn the writer's sleep into a
/// zero-timeout loop.
constexpr std::chrono::milliseconds kPublishRetry{1};

/// Write `body` to `path` atomically: tmp file, fsync, rename, fsync the
/// directory — a crash leaves either the old checkpoint or the new one,
/// never a torn mix.
bool write_file_atomic(const std::string& path, std::string_view body, std::string& error) {
    const std::string tmp = path + ".tmp";
    const int fd = ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
        error = "open(" + tmp + "): " + std::strerror(errno);
        return false;
    }
    const char* p = body.data();
    std::size_t remaining = body.size();
    while (remaining > 0) {
        const ssize_t n = ::write(fd, p, remaining);
        if (n < 0) {
            if (errno == EINTR) continue;
            error = "write(" + tmp + "): " + std::strerror(errno);
            ::close(fd);
            ::unlink(tmp.c_str());
            return false;
        }
        p += n;
        remaining -= static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
        error = "fsync(" + tmp + "): " + std::strerror(errno);
        ::close(fd);
        ::unlink(tmp.c_str());
        return false;
    }
    ::close(fd);
    if (const auto fp = SIREN_FAILPOINT("serve.checkpoint.rename");
        fp.action == util::failpoint::Action::kError) {
        // Injected crash-before-rename: the tmp file stays, the previous
        // checkpoint survives untouched — the atomicity claim under test.
        error = "rename(" + tmp + "): " + std::strerror(fp.err != 0 ? fp.err : EIO);
        ::unlink(tmp.c_str());
        return false;
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        error = "rename(" + tmp + "): " + std::strerror(errno);
        ::unlink(tmp.c_str());
        return false;
    }
    const std::string dir = fs::path(path).parent_path().string();
    const int dir_fd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dir_fd >= 0) {
        ::fsync(dir_fd);
        ::close(dir_fd);
    }
    return true;
}

/// Best content match of `digest` in `snap`, named from the same snapshot.
std::optional<Identified> best_content_match(const RegistrySnapshot& snap,
                                             const fuzzy::FuzzyDigest& digest) {
    const auto match = snap.registry.best_match(digest);
    if (!match) return std::nullopt;
    return Identified{match->family, match->best_score, false,
                      snap.registry.family(match->family).name};
}

}  // namespace

/// One ppoll() over an eventfd that in-process callers write (observe*,
/// flush, checkpoint_now, stop) and an inotify watch on the followed
/// segment directory. Inotify reports appends from another process
/// (siren_ingestd) and from a follower's ReplicationSink alike. Where it is
/// unavailable — inotify_init1 fails at the per-user instance limit, the
/// directory does not exist yet, or the watch is removed with it — the
/// writer's timed fallback poll still reads the directory and calls
/// watch() again. Network filesystems (NFS, Lustre) accept the watch but
/// do not report remote writes; the fallback poll covers them too.
class RecognitionService::WriterWake {
public:
    /// Throws util::SystemError when no eventfd can be created; a failed
    /// watch is never an error.
    explicit WriterWake(std::string directory) : directory_(std::move(directory)) {
        event_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
        if (event_fd_ < 0) {
            throw util::SystemError(std::string("recognition service eventfd(): ") +
                                    std::strerror(errno));
        }
        watch();
    }
    ~WriterWake() {
        ::close(event_fd_);
        if (inotify_fd_ >= 0) ::close(inotify_fd_);
    }
    WriterWake(const WriterWake&) = delete;
    WriterWake& operator=(const WriterWake&) = delete;

    /// Wake the writer (any thread).
    void notify() noexcept {
        const std::uint64_t one = 1;
        (void)!::write(event_fd_, &one, sizeof one);
    }

    /// Arm the directory watch unless it is armed (writer thread).
    void watch() noexcept {
        if (directory_.empty() || watch_ >= 0) return;
        if (inotify_fd_ < 0) inotify_fd_ = ::inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
        if (inotify_fd_ < 0) return;
        watch_ = ::inotify_add_watch(inotify_fd_, directory_.c_str(),
                                     IN_MODIFY | IN_CREATE | IN_MOVED_TO);
    }

    /// Sleep until notify(), `timeout` (nullopt: none) or, when
    /// `watch_dir` and the watch is armed, a change in the directory.
    /// True when the directory changed (writer thread).
    bool wait(std::optional<Clock::duration> timeout, bool watch_dir) noexcept {
        pollfd fds[2] = {{event_fd_, POLLIN, 0}, {inotify_fd_, POLLIN, 0}};
        const nfds_t count = watch_dir && watch_ >= 0 ? 2 : 1;
        timespec limit{};
        if (timeout) {
            const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::max(*timeout, Clock::duration::zero()))
                                .count();
            limit.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
            limit.tv_nsec = static_cast<long>(ns % 1'000'000'000);
        }
        if (::ppoll(fds, count, timeout ? &limit : nullptr, nullptr) <= 0) return false;
        if ((fds[0].revents & POLLIN) != 0) {
            std::uint64_t ticks = 0;
            (void)!::read(event_fd_, &ticks, sizeof ticks);
        }
        return count == 2 && (fds[1].revents & POLLIN) != 0 && discard_changes();
    }

    /// Read every queued directory event; true when there was one. Called
    /// right before the writer reads the directory, so a change that poll
    /// covers does not wake it again (writer thread).
    bool discard_changes() noexcept {
        if (inotify_fd_ < 0) return false;
        alignas(inotify_event) char buffer[4096];
        bool changed = false;
        for (;;) {
            const ssize_t n = ::read(inotify_fd_, buffer, sizeof buffer);
            if (n <= 0) return changed;  // EAGAIN: the queue is empty
            changed = true;
            for (std::size_t at = 0; at + sizeof(inotify_event) <= static_cast<std::size_t>(n);) {
                inotify_event event;
                std::memcpy(&event, buffer + at, sizeof event);
                // The directory was removed (or unmounted): the fallback
                // poll re-arms the watch once it exists again.
                if ((event.mask & IN_IGNORED) != 0) watch_ = -1;
                at += sizeof(inotify_event) + event.len;
            }
        }
    }

private:
    std::string directory_;  ///< empty: nothing to watch
    int event_fd_ = -1;
    int inotify_fd_ = -1;
    int watch_ = -1;
};

std::string_view query_verb_name(QueryVerb verb) {
    switch (verb) {
        case QueryVerb::kIdentify: return "verb_identify";
        case QueryVerb::kIdentifyB: return "verb_identifyb";
        case QueryVerb::kObserve: return "verb_observe";
        case QueryVerb::kObserveTs: return "verb_observets";
        case QueryVerb::kStats: return "verb_stats";
        case QueryVerb::kCheckpoint: return "verb_checkpoint";
        case QueryVerb::kPartMap: return "verb_partmap";
        case QueryVerb::kFpRange: return "verb_fprange";
        case QueryVerb::kUnknown: return "verb_unknown";
        case QueryVerb::kCount: break;
    }
    return "verb_unknown";
}

void ServeOptions::validate() const {
    if (queue_capacity == 0) throw util::Error("queue_capacity must be positive");
    if (feed_batch_max == 0) throw util::Error("feed_batch_max must be positive");
    if (replication.observe_wal && segments_dir.empty()) {
        throw util::Error("observe_wal needs segments_dir (the WAL lives there)");
    }
    if (replication.observe_wal && replication.read_only) {
        throw util::Error("a read-only follower cannot journal an observe WAL");
    }
    if (shed.shed_queue_depth > queue_capacity) {
        throw util::Error("shed_queue_depth beyond queue_capacity never sheds "
                          "(observe_sync blocks at capacity first)");
    }
    if (partition.map) {
        if (replication.read_only) {
            throw util::Error("a read-only follower cannot own shard key ranges "
                              "(partition enforcement is a leader concern)");
        }
        if (partition.map->shard(partition.shard_id) == nullptr) {
            throw util::Error("partition map has no shard " + std::to_string(partition.shard_id));
        }
    }
}

RecognitionService::RecognitionService(ServeOptions options)
    : options_(std::move(options)), master_(options_.registry) {
    options_.validate();
    partition_map_.store(options_.partition.map, std::memory_order_release);
    load_checkpoint();  // fills master_ and tail_ (with the watermark) when present

    if (!options_.segments_dir.empty() && !tail_) {
        tail_ = std::make_unique<SegmentTail>(options_.segments_dir);
    }
    if (options_.replication.observe_wal) {
        // The WAL shares the followed directory: journaled observes come
        // back through the tail (one apply path, replicated for free). Its
        // sequence resumes after whatever an earlier run left, so catch-up
        // replay below recovers observes older checkpoints never saw.
        storage::SegmentOptions wal_options;
        wal_options.fsync_enabled = options_.replication.wal_fsync;
        wal_ = std::make_unique<storage::SegmentWriter>(
            options_.segments_dir, std::string(kObserveWalPrefix), wal_options);
        // Observe seqs ride the WAL as job ids, and the fallback skip-set
        // keys on them — so they must never repeat across restarts. A
        // counter restarting at 1 would collide with seqs still pending in
        // old segments (a persisted fallback seq and a fresh one sharing a
        // set entry double-applies whichever record drains second). The
        // writer's resume sequence is a durable, strictly-increasing
        // incarnation number: fold it in as an epoch. Low 32 bits leave
        // room for ~4B observes per incarnation. applied_seq_ starts at
        // the same base: flush() waits for applied_seq_ >= next_seq_ - 1,
        // and a zero start would leave an idle restarted service waiting
        // for observes that never existed.
        next_seq_ = (wal_->next_segment_seq() << 32) | 1;
        applied_seq_.store(next_seq_ - 1, std::memory_order_release);
    }

    // Catch-up replay: everything past the watermark, before serving. The
    // canonical segment order makes this deterministic, so a restart
    // converges to the same family assignments the uninterrupted run had.
    if (tail_) {
        while (tail_->poll([this](std::string_view record) { apply_feed_record(record); },
                           options_.feed_batch_max) > 0) {
        }
    }
    if (options_.batch_pool_threads > 0) {
        batch_pool_ = std::make_unique<util::ThreadPool>(options_.batch_pool_threads);
    }
    publish(0);
    // The watch is armed after catch-up; the writer's first cycle polls the
    // feed at once, so nothing appended in between waits for a change.
    wake_ = std::make_unique<WriterWake>(tail_ ? options_.segments_dir : std::string());
    writer_ = std::thread([this] { writer_loop(); });
}

RecognitionService::~RecognitionService() { stop(); }

void RecognitionService::load_checkpoint() {
    if (options_.checkpoint_path.empty()) return;
    std::ifstream in(options_.checkpoint_path);
    if (!in) return;  // first boot: no checkpoint yet

    std::string magic;
    std::uint32_t version = 0;
    in >> magic >> version;
    if (magic != kCheckpointMagic || version != kCheckpointVersion) {
        throw util::ParseError("checkpoint " + options_.checkpoint_path +
                               ": bad magic/version ('" + magic + "')");
    }

    SegmentTail::Offsets offsets;
    std::uint64_t applied = 0;
    std::string word;
    bool saw_registry = false;
    while (in >> word) {
        if (word == "applied") {
            if (!(in >> applied)) {
                throw util::ParseError("checkpoint: bad applied line");
            }
        } else if (word == "offset") {
            std::string name;
            std::uint64_t off = 0;
            if (!(in >> name >> off)) {
                throw util::ParseError("checkpoint: bad offset line");
            }
            offsets[name] = off;
        } else if (word == "fallback") {
            // A WAL observe the liveness backstop applied directly whose
            // feed delivery was still outstanding at checkpoint time: the
            // checkpointed registry already contains it, so catch-up
            // replay must skip it or this leader double-applies after a
            // restart and silently diverges from its followers.
            std::uint64_t seq = 0;
            if (!(in >> seq)) {
                throw util::ParseError("checkpoint: bad fallback line");
            }
            wal_fallback_seqs_.insert(seq);
        } else if (word == "registry") {
            // The registry section is the remainder of the stream; consume
            // the end of the marker line first.
            std::string rest;
            std::getline(in, rest);
            master_ = recognize::Registry::load(in, options_.registry);
            saw_registry = true;
            break;
        } else {
            throw util::ParseError("checkpoint: unknown record '" + word + "'");
        }
    }
    if (!saw_registry) {
        throw util::ParseError("checkpoint " + options_.checkpoint_path +
                               ": missing registry section");
    }
    applied_total_ = applied;
    if (!options_.segments_dir.empty()) {
        tail_ = std::make_unique<SegmentTail>(options_.segments_dir, std::move(offsets));
    }
}

void RecognitionService::apply_feed_record(std::string_view record) {
    feed_records_.fetch_add(1, std::memory_order_relaxed);
    try {
        net::MessageView view;
        net::decode_view(record, view);
        const bool behavioral = view.type == net::MsgType::kTimeSeriesHash;
        if (view.type != net::MsgType::kFileHash && !behavioral) return;
        // FILE_H/TS_H content is "digest" from collectors and
        // "digest hint" from the observe WAL (hints are sanitized single
        // tokens). The hint is honored only for obs- stream records:
        // ingest datagrams arrive over (spoofable) UDP, and a forged
        // "digest EvilName" there must stay a parse failure, not name a
        // family.
        const bool from_wal =
            tail_ && tail_->current_file().starts_with(kObserveWalPrefix);
        // A record the liveness backstop already applied directly (the feed
        // failed to deliver it in its own journal cycle, e.g. a transient
        // read error) must not apply again on re-delivery — the double
        // count would diverge this leader from followers replaying the
        // same WAL exactly once.
        if (from_wal && !wal_fallback_seqs_.empty() &&
            wal_fallback_seqs_.erase(view.job_id) > 0) {
            return;
        }
        const std::string content = view.content_str();
        const auto space = from_wal ? content.find(' ') : std::string::npos;
        const auto digest = fuzzy::FuzzyDigest::parse(
            std::string_view(content).substr(0, space));
        std::string_view hint;
        if (space != std::string::npos) {
            hint = std::string_view(content).substr(space + 1);
        }
        const auto obs =
            behavioral ? master_.observe_behavior(digest, hint) : master_.observe(digest, hint);
        ++applied_total_;
        (behavioral ? feed_ts_hashes_ : feed_file_hashes_)
            .fetch_add(1, std::memory_order_relaxed);

        // A record of our own observe WAL may be one this cycle journaled:
        // resolve its waiter. Same obs- scoping as the hint: an ingest
        // datagram can never satisfy someone's promise.
        if (wal_replies_out_ != nullptr && from_wal) {
            const auto it = wal_pending_.find(view.job_id);
            if (it != wal_pending_.end()) {
                if (it->second.seq > wal_seq_high_) wal_seq_high_ = it->second.seq;
                if (it->second.reply) {
                    wal_replies_out_->emplace_back(std::move(it->second.reply),
                                                   resolve_applied(obs));
                }
                wal_pending_.erase(it);
            }
        }
    } catch (const util::Error&) {
        // Not a SIREN datagram / unparseable digest: the WAL is shared
        // with whatever else the ingest daemon journals — count and move on.
        feed_malformed_.fetch_add(1, std::memory_order_relaxed);
    }
}

Identified RecognitionService::resolve_applied(const recognize::Observation& obs) const {
    Identified result;
    result.family = obs.family;
    result.score = obs.best_score;
    result.new_family = obs.new_family;
    result.name = master_.family(obs.family).name;
    return result;
}

void RecognitionService::apply_direct(
    PendingObserve& pending,
    std::vector<std::pair<std::shared_ptr<std::promise<Identified>>, Identified>>& replies) {
    const auto obs = pending.behavioral
                         ? master_.observe_behavior(pending.digest, pending.name_hint)
                         : master_.observe(pending.digest, pending.name_hint);
    ++applied_total_;
    if (pending.reply) {
        replies.emplace_back(std::move(pending.reply), resolve_applied(obs));
    }
}

void RecognitionService::journal_and_apply(
    std::vector<PendingObserve>& batch,
    std::vector<std::pair<std::shared_ptr<std::promise<Identified>>, Identified>>& replies,
    std::uint64_t& unpublished_seq, bool stopping) {
    // Journal: one FILE_H (or TS_H for behavioral sightings) datagram per
    // observe, the seq riding as the job id so the feed delivery below can
    // be matched back to its waiter.
    std::string content;
    std::size_t journaled = 0;
    for (auto& pending : batch) {
        net::Message m;
        m.job_id = pending.seq;
        m.type = pending.behavioral ? net::MsgType::kTimeSeriesHash
                                    : net::MsgType::kFileHash;
        content = pending.digest.to_string();
        if (!pending.name_hint.empty()) {
            content.push_back(' ');
            content += recognize::sanitize_label(pending.name_hint);
        }
        m.content = content;
        // Injected journal failure: exercises the WAL fallback (direct
        // apply, wal_fallbacks counted) without needing real disk trouble.
        const bool journal_failed =
            SIREN_FAILPOINT("serve.wal.append").action == util::failpoint::Action::kError;
        if (!journal_failed && wal_->append(net::encode(m))) {
            wal_pending_.emplace(pending.seq, std::move(pending));
            ++journaled;
        } else {
            // Journal failure (disk trouble): the observe still has to
            // apply — degrade to the direct path. Followers will miss it,
            // which wal_fallbacks makes visible.
            wal_fallbacks_.fetch_add(1, std::memory_order_relaxed);
            if (pending.seq > unpublished_seq) unpublished_seq = pending.seq;
            apply_direct(pending, replies);
        }
    }
    observes_journaled_.fetch_add(journaled, std::memory_order_relaxed);
    wal_->sync();  // flush (+ fsync unless disabled): visible to the tail now

    // Forced drain: deliver the journaled records (and whatever the ingest
    // side appended) until every waiter resolved or the feed stops making
    // progress.
    wal_replies_out_ = &replies;
    wal_seq_high_ = unpublished_seq;
    const auto drain = [this](std::size_t budget) {
        return tail_->poll([this](std::string_view record) { apply_feed_record(record); },
                           budget);
    };
    while (!wal_pending_.empty() && drain(options_.feed_batch_max) > 0) {
    }
    if (stopping) {
        while (drain(options_.feed_batch_max) > 0) {
        }
    }
    wal_replies_out_ = nullptr;
    unpublished_seq = wal_seq_high_;

    // Liveness backstop: anything the feed failed to hand back (a transient
    // tail read error — the WAL was flushed before the drain) applies
    // directly so no observe_sync caller can hang on a lost promise. The
    // record is still durably journaled and will arrive through the feed
    // once the tail recovers; wal_fallback_seqs_ marks it so that delivery
    // is skipped instead of double-applied (which would silently diverge
    // this leader from its followers). Entries are erased on re-delivery,
    // so the set stays as small as the fallback burst itself.
    for (auto& [seq, pending] : wal_pending_) {
        wal_fallbacks_.fetch_add(1, std::memory_order_relaxed);
        if (seq > unpublished_seq) unpublished_seq = seq;
        apply_direct(pending, replies);
        wal_fallback_seqs_.insert(seq);
    }
    wal_pending_.clear();
}

bool RecognitionService::publish(std::uint64_t applied_through) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto prev = snapshot_.load(std::memory_order_acquire);

    // Injected slow/failed copy — a publish abort keeps the previous
    // snapshot serving and leaves the writer's dirty state set, so a later
    // cycle retries. The boot publish is exempt: snapshot() must never
    // return null.
    if (const auto fp = SIREN_FAILPOINT("serve.publish.copy");
        fp.action == util::failpoint::Action::kError && prev != nullptr) {
        publish_errors_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }

    auto snap = std::make_shared<RegistrySnapshot>();
    // O(delta) copy: chunk-pointer vectors copy; every chunk the writer
    // didn't touch since the previous publish is shared with it.
    snap->registry = master_;
    snap->version = publishes_.load(std::memory_order_relaxed) + 1;
    snap->applied = applied_total_;

    // Injected slow/failed swap: a delay stretches the window where
    // readers still serve the previous snapshot (staleness, never a torn
    // state — the swap itself stays one atomic store); an error drops the
    // assembled snapshot before it becomes visible.
    if (const auto fp = SIREN_FAILPOINT("serve.publish.swap");
        fp.action == util::failpoint::Action::kError && prev != nullptr) {
        publish_errors_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }

    const std::shared_ptr<const RegistrySnapshot> published = std::move(snap);
    snapshot_.store(published, std::memory_order_release);
    publishes_.fetch_add(1, std::memory_order_relaxed);
    if (applied_through > 0) {
        applied_seq_.store(applied_through, std::memory_order_release);
    }
    // publish_ns covers the reader-facing critical path only (copy +
    // swap); the sharing tally below is telemetry, and at O(total chunks)
    // it would otherwise dominate the timing it is meant to explain.
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                             t0)
            .count());
    publish_ns_last_.store(ns, std::memory_order_relaxed);
    publish_ns_.fetch_add(ns, std::memory_order_relaxed);

    if (prev != nullptr) {
        const auto sharing = published->registry.sharing_with(prev->registry);
        shared_buckets_.store(sharing.shared_buckets, std::memory_order_relaxed);
        total_buckets_.store(sharing.total_buckets, std::memory_order_relaxed);
        shared_chunks_.store(sharing.shared_chunks, std::memory_order_relaxed);
        total_chunks_.store(sharing.total_chunks, std::memory_order_relaxed);
    }
    return true;
}

bool RecognitionService::write_checkpoint(std::string& error) {
    if (options_.checkpoint_path.empty()) {
        error = "no checkpoint path configured";
        return false;
    }
    std::ostringstream body;
    body << kCheckpointMagic << ' ' << kCheckpointVersion << '\n';
    body << "applied " << applied_total_ << '\n';
    if (tail_) {
        for (const auto& [name, offset] : tail_->offsets()) {
            body << "offset " << name << ' ' << offset << '\n';
        }
    }
    // Backstop-applied observes still ahead of the watermark (see
    // load_checkpoint): persisted so a restart skips their replay.
    for (const auto seq : wal_fallback_seqs_) {
        body << "fallback " << seq << '\n';
    }
    body << "registry\n";
    master_.save(body);
    return write_file_atomic(options_.checkpoint_path, body.view(), error);
}

void RecognitionService::writer_loop() {
    auto last_checkpoint = Clock::now();
    auto last_feed = Clock::time_point{};     // poll immediately
    auto publish_slot = Clock::time_point{};  // earliest next publish: now
    bool dirty = false;                   ///< applied but not yet published
    bool feed_changed = false;            ///< the directory changed since the last poll
    bool feed_backlog = false;            ///< the last poll stopped at feed_batch_max
    std::uint64_t unpublished_seq = 0;    ///< highest applied client seq
    const bool checkpoint_timer =
        options_.checkpoint_interval.count() > 0 && !options_.checkpoint_path.empty();

    std::vector<PendingObserve> batch;
    std::vector<std::pair<std::shared_ptr<std::promise<Identified>>, Identified>> replies;

    const auto drain_feed = [this](std::size_t budget) {
        return tail_ ? tail_->poll(
                           [this](std::string_view record) { apply_feed_record(record); },
                           budget)
                     : 0;
    };

    for (;;) {
        // Sleep until the nearest deadline: the fallback feed poll, a feed
        // poll a directory change made due at the publish slot, a pending
        // publish, the checkpoint timer. A client call wakes the writer
        // earlier; so does a directory change, unless a poll is already
        // due — one read of the tail per publish, not one per write().
        {
            const auto now = Clock::now();
            auto deadline = Clock::time_point::max();
            if (tail_) {
                deadline = feed_backlog ? now : last_feed + options_.feed_poll;
                if (feed_changed) deadline = std::min(deadline, publish_slot);
            }
            if (dirty) deadline = std::min(deadline, publish_slot);
            if (checkpoint_timer) {
                deadline = std::min(deadline, last_checkpoint + options_.checkpoint_interval);
            }
            const auto timeout = deadline == Clock::time_point::max()
                                     ? std::nullopt
                                     : std::optional<Clock::duration>(deadline - now);
            if (wake_->wait(timeout, tail_ && !feed_changed && !feed_backlog)) {
                feed_changed = true;
            }
        }

        bool checkpoint_wanted = false;
        bool stopping = false;
        batch.clear();
        replies.clear();
        {
            std::lock_guard lock(queue_mutex_);
            batch.swap(queue_);
            checkpoint_wanted = checkpoint_requested_;
            checkpoint_requested_ = false;
            stopping = stop_.load(std::memory_order_relaxed);
        }
        if (!batch.empty()) applied_cv_.notify_all();  // queue room for blocked writers

        // Feed first, client observes second: segment records are older
        // (they were ingested before this loop iteration) and recovery
        // replays them in exactly this order.
        std::size_t fed = 0;
        bool polled_feed = false;
        const auto now = Clock::now();
        const bool fallback_due = now - last_feed >= options_.feed_poll;
        if (wal_ && !batch.empty()) {
            // Leader WAL mode: journal the batch and pull it back through
            // the feed — that drain doubles as this cycle's feed poll.
            const auto before = feed_records_.load(std::memory_order_relaxed);
            journal_and_apply(batch, replies, unpublished_seq, stopping);
            fed += feed_records_.load(std::memory_order_relaxed) - before;
            polled_feed = true;
            last_feed = now;
        } else if (tail_ && (stopping || feed_backlog || fallback_due ||
                             (feed_changed && now >= publish_slot))) {
            polled_feed = true;
            if (fallback_due) wake_->watch();
            wake_->discard_changes();
            // One bounded poll per publish cycle (a poll that hit the bound
            // goes again at once); at shutdown, drain everything the daemon
            // managed to journal.
            std::size_t n = 0;
            do {
                n = drain_feed(options_.feed_batch_max);
                fed += n;
            } while (stopping && n > 0);
            feed_backlog = n >= options_.feed_batch_max;
            feed_changed = false;
            last_feed = now;
        }

        if (!wal_) {
            for (auto& pending : batch) {
                unpublished_seq = pending.seq;
                apply_direct(pending, replies);
            }
        }
        observes_applied_.fetch_add(batch.size(), std::memory_order_relaxed);

        // Publish policy: every modifying cycle by default; under a
        // publish_interval the copy is amortized across batches. A sync
        // observe or shutdown always publishes — their contract is
        // read-your-writes on return.
        dirty = dirty || !batch.empty() || fed > 0;
        if (dirty && (!replies.empty() || stopping || Clock::now() >= publish_slot)) {
            // A failed publish (injected fault) keeps dirty set: the
            // applied state is already in master_, only its visibility is
            // delayed until a later cycle's retry succeeds.
            if (publish(unpublished_seq)) {
                publish_slot = Clock::now() + options_.publish_interval;
                dirty = false;
            } else {
                publish_slot =
                    Clock::now() + std::max<Clock::duration>(options_.publish_interval,
                                                             kPublishRetry);
            }
        }

        {
            std::lock_guard lock(queue_mutex_);
            // flush() counts *completed feed polls*, not writer iterations
            // — an idle cycle that skipped the feed (poll cadence not due)
            // must not satisfy a caller waiting for journaled records.
            if (polled_feed || !tail_) ++feed_polls_done_;
            snapshot_dirty_ = dirty;
        }
        applied_cv_.notify_all();
        // Resolve observe_sync waiters only after the publish: the caller
        // must be able to identify() what it just observed.
        for (auto& [promise, result] : replies) {
            promise->set_value(std::move(result));
        }

        const bool interval_due =
            checkpoint_timer && Clock::now() - last_checkpoint >= options_.checkpoint_interval;
        if (checkpoint_wanted || (interval_due && !stopping)) {
            std::string error;
            const bool ok = write_checkpoint(error);
            last_checkpoint = Clock::now();
            if (ok) {
                checkpoints_.fetch_add(1, std::memory_order_relaxed);
            } else {
                checkpoint_errors_.fetch_add(1, std::memory_order_relaxed);
            }
            {
                std::lock_guard lock(queue_mutex_);
                ++checkpoints_done_;
                checkpoint_ok_ = ok;
                checkpoint_error_ = error;
            }
            applied_cv_.notify_all();
        }

        if (stopping) break;
    }

    // Final checkpoint: the clean-shutdown state, watermark included.
    if (!options_.checkpoint_path.empty()) {
        std::string error;
        if (write_checkpoint(error)) {
            checkpoints_.fetch_add(1, std::memory_order_relaxed);
        } else {
            checkpoint_errors_.fetch_add(1, std::memory_order_relaxed);
        }
    }
    {
        std::lock_guard lock(queue_mutex_);
        writer_done_ = true;
    }
    applied_cv_.notify_all();
}

std::optional<Identified> RecognitionService::identify(const fuzzy::FuzzyDigest& digest) const {
    identifies_.fetch_add(1, std::memory_order_relaxed);
    return best_content_match(*snapshot(), digest);
}

std::vector<FusedIdentified> RecognitionService::identify(const DigestProbe& probe) const {
    identifies_.fetch_add(1, std::memory_order_relaxed);
    const auto snap = snapshot();
    const auto& registry = snap->registry;
    std::vector<FusedIdentified> out;
    if (probe.k == 1 && probe.content.has_value() != probe.behavior.has_value()) {
        // Single-channel top-1: the channel's best match, whose bounded
        // index query is far cheaper than a full fused ranking.
        const bool content = probe.content.has_value();
        const auto match = content ? registry.best_match(*probe.content)
                                   : registry.best_match_behavior(*probe.behavior);
        if (match) {
            out.push_back({match->family, match->best_score, content ? match->best_score : 0,
                           content ? 0 : match->best_score,
                           registry.family(match->family).name});
        }
        return out;
    }
    for (const auto& match :
         registry.top_families_fused(probe.content ? &*probe.content : nullptr,
                                     probe.behavior ? &*probe.behavior : nullptr, probe.k)) {
        out.push_back({match.family, match.score, match.content_score, match.behavior_score,
                       registry.family(match.family).name});
    }
    return out;
}

std::vector<std::optional<Identified>> RecognitionService::identify_many(
    const std::vector<fuzzy::FuzzyDigest>& digests, util::ThreadPool* pool) const {
    identifies_.fetch_add(digests.size(), std::memory_order_relaxed);
    const auto snap = snapshot();
    std::vector<std::optional<Identified>> out(digests.size());
    const auto resolve = [&](std::size_t i) { out[i] = best_content_match(*snap, digests[i]); };
    if (pool != nullptr && digests.size() > 1) {
        pool->parallel_for(digests.size(), resolve);
    } else {
        for (std::size_t i = 0; i < digests.size(); ++i) resolve(i);
    }
    return out;
}

std::optional<std::uint64_t> RecognitionService::enqueue_observe(fuzzy::FuzzyDigest digest,
                                                                 std::string name_hint,
                                                                 bool behavioral) {
    std::uint64_t seq = 0;
    bool first = false;  // a non-empty queue already has its wake-up in flight
    {
        std::lock_guard lock(queue_mutex_);
        if (writer_done_ || stop_.load(std::memory_order_relaxed) ||
            queue_.size() >= options_.queue_capacity) {
            observes_dropped_.fetch_add(1, std::memory_order_relaxed);
            return std::nullopt;
        }
        seq = next_seq_++;
        first = queue_.empty();
        queue_.push_back({std::move(digest), std::move(name_hint), seq, nullptr, behavioral});
    }
    observes_enqueued_.fetch_add(1, std::memory_order_relaxed);
    if (first) wake_->notify();
    return seq;
}

Identified RecognitionService::enqueue_observe_sync(fuzzy::FuzzyDigest digest,
                                                    std::string name_hint, bool behavioral) {
    auto reply = std::make_shared<std::promise<Identified>>();
    auto future = reply->get_future();
    bool first = false;
    {
        std::unique_lock lock(queue_mutex_);
        applied_cv_.wait(lock, [this] {
            return writer_done_ || stop_.load(std::memory_order_relaxed) ||
                   queue_.size() < options_.queue_capacity;
        });
        if (writer_done_ || stop_.load(std::memory_order_relaxed)) {
            throw util::Error("recognition service is stopped");
        }
        first = queue_.empty();
        queue_.push_back({std::move(digest), std::move(name_hint), next_seq_++, reply, behavioral});
    }
    observes_enqueued_.fetch_add(1, std::memory_order_relaxed);
    if (first) wake_->notify();
    return future.get();
}

std::optional<std::uint64_t> RecognitionService::observe(fuzzy::FuzzyDigest digest,
                                                         std::string name_hint) {
    return enqueue_observe(std::move(digest), std::move(name_hint), false);
}

Identified RecognitionService::observe_sync(fuzzy::FuzzyDigest digest, std::string name_hint) {
    return enqueue_observe_sync(std::move(digest), std::move(name_hint), false);
}

std::optional<std::uint64_t> RecognitionService::observe_behavior(fuzzy::FuzzyDigest digest,
                                                                  std::string name_hint) {
    return enqueue_observe(std::move(digest), std::move(name_hint), true);
}

Identified RecognitionService::observe_behavior_sync(fuzzy::FuzzyDigest digest,
                                                     std::string name_hint) {
    return enqueue_observe_sync(std::move(digest), std::move(name_hint), true);
}

void RecognitionService::flush() {
    std::uint64_t seq_target = 0;
    std::uint64_t polls_target = 0;
    {
        std::lock_guard lock(queue_mutex_);
        seq_target = next_seq_ - 1;
        // Two completed poll cycles: one may already have been in flight
        // (and missed records written just before this call), the second
        // must have started after it — and therefore seen them.
        polls_target = feed_polls_done_ + (tail_ ? 2 : 1);
    }
    wake_->notify();  // a writer asleep with no deadline still owes a cycle
    std::unique_lock lock(queue_mutex_);
    applied_cv_.wait(lock, [&] {
        return writer_done_ ||
               (applied_seq_.load(std::memory_order_acquire) >= seq_target &&
                feed_polls_done_ >= polls_target && !snapshot_dirty_);
    });
}

bool RecognitionService::checkpoint_now(std::string* error) {
    std::uint64_t generation = 0;
    {
        std::lock_guard lock(queue_mutex_);
        if (writer_done_) {
            if (error) *error = "recognition service is stopped";
            return false;
        }
        generation = checkpoints_done_;
        checkpoint_requested_ = true;
    }
    wake_->notify();
    std::unique_lock lock(queue_mutex_);
    applied_cv_.wait(lock,
                     [&] { return writer_done_ || checkpoints_done_ > generation; });
    if (checkpoints_done_ <= generation) {
        if (error) *error = "recognition service stopped before the checkpoint";
        return false;
    }
    if (error) *error = checkpoint_error_;
    return checkpoint_ok_;
}

ServeCounters RecognitionService::counters() const {
    ServeCounters c;
    c.identifies = identifies_.load(std::memory_order_relaxed);
    c.observes_enqueued = observes_enqueued_.load(std::memory_order_relaxed);
    c.observes_dropped = observes_dropped_.load(std::memory_order_relaxed);
    c.observes_applied = observes_applied_.load(std::memory_order_relaxed);
    c.feed_records = feed_records_.load(std::memory_order_relaxed);
    c.feed_file_hashes = feed_file_hashes_.load(std::memory_order_relaxed);
    c.feed_ts_hashes = feed_ts_hashes_.load(std::memory_order_relaxed);
    c.feed_malformed = feed_malformed_.load(std::memory_order_relaxed);
    c.publishes = publishes_.load(std::memory_order_relaxed);
    c.checkpoints = checkpoints_.load(std::memory_order_relaxed);
    c.checkpoint_errors = checkpoint_errors_.load(std::memory_order_relaxed);
    c.observes_journaled = observes_journaled_.load(std::memory_order_relaxed);
    c.wal_fallbacks = wal_fallbacks_.load(std::memory_order_relaxed);
    c.observes_shed = observes_shed_.load(std::memory_order_relaxed);
    c.publish_ns = publish_ns_.load(std::memory_order_relaxed);
    c.publish_ns_last = publish_ns_last_.load(std::memory_order_relaxed);
    c.publish_errors = publish_errors_.load(std::memory_order_relaxed);
    c.shared_buckets = shared_buckets_.load(std::memory_order_relaxed);
    c.total_buckets = total_buckets_.load(std::memory_order_relaxed);
    c.shared_chunks = shared_chunks_.load(std::memory_order_relaxed);
    c.total_chunks = total_chunks_.load(std::memory_order_relaxed);
    return c;
}

void RecognitionService::stop() {
    if (stopped_.exchange(true)) {
        if (writer_.joinable()) writer_.join();
        return;
    }
    {
        std::lock_guard lock(queue_mutex_);
        stop_.store(true, std::memory_order_relaxed);
    }
    wake_->notify();
    applied_cv_.notify_all();
    if (writer_.joinable()) writer_.join();
}

}  // namespace siren::serve
