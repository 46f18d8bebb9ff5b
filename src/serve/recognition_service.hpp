#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "fuzzy/ctph.hpp"
#include "recognize/registry.hpp"
#include "serve/partition_map.hpp"
#include "serve/segment_tail.hpp"
#include "storage/segment.hpp"
#include "util/thread_pool.hpp"

namespace siren::serve {

/// Overload shedding on the write path (docs/robustness.md).
struct ShedOptions {
    /// Admission control for network observes: when the writer queue holds
    /// at least this many pending observes, the query protocol sheds
    /// OBSERVE/OBSERVETS with an explicit "ERR overloaded" instead of
    /// blocking the server's event loop behind observe_sync(). 0 = use
    /// queue_capacity (shed exactly where observe_sync would have blocked).
    /// In-process observe()/observe_sync() callers are never shed.
    std::size_t shed_queue_depth = 0;
};

/// Leader/follower roles of the segment-shipping replication layer
/// (docs/replication.md).
struct ReplicationOptions {
    /// Leader mode: journal client observes into segments_dir (stream
    /// prefix "obs-", wire FILE_H datagrams carrying "digest [hint]") and
    /// apply them *through the segment feed* instead of directly — one
    /// apply path for everything, so followers shipping the directory
    /// replay the exact same stream, and TCP observes become durable (a
    /// restarted leader recovers them from its own WAL instead of only
    /// from checkpoints). Requires segments_dir.
    bool observe_wal = false;
    /// fsync the WAL after each journaled batch (off for tests/benches on
    /// tmpfs — visibility to the feed only needs the buffer flushed).
    bool wal_fsync = true;
    /// Follower mode: the registry is built purely from replicated
    /// segments; the query protocol rejects OBSERVE (route it to the
    /// leader) while IDENTIFY/IDENTIFYB/STATS/CHECKPOINT serve locally. The
    /// in-process observe()/observe_sync() API stays usable — it is how
    /// tests seed state — but nothing network-facing reaches it.
    bool read_only = false;
};

/// Membership of a partitioned fleet (docs/sharding.md). Default: no map,
/// the service is unpartitioned and accepts every key.
struct PartitionOptions {
    /// This service's shard id in `map` (meaningless without one).
    std::uint32_t shard_id = 0;
    /// The fleet's shard table. When set, OBSERVE/OBSERVETS for a block
    /// size this shard does not own are rejected with the typed
    /// `wrong_shard` marker, and the PARTMAP verb serves the map to
    /// self-refreshing clients. The map is swappable at runtime
    /// (set_partition_map) — that is how a rebalance version-bump lands.
    std::shared_ptr<const PartitionMap> map;
};

/// Tuning for one RecognitionService.
struct ServeOptions {
    recognize::RegistryOptions registry;

    /// Segment directory of an ingest daemon to follow (FILE_H digests
    /// flow into the live registry); empty = client observes only.
    std::string segments_dir;
    /// Fallback cadence of the segment-directory poll. The writer reads
    /// the directory when inotify reports a change in it (at the next
    /// publish slot), and at least this often in any case: that timed poll
    /// is all that follows a directory where inotify is unavailable (the
    /// per-user instance limit, a directory not created yet, NFS or Lustre,
    /// which do not report remote writes). flush() waits for two polls.
    std::chrono::milliseconds feed_poll{20};
    /// Records applied per writer iteration before a snapshot is published;
    /// bounds both publish latency during catch-up and snapshot staleness.
    std::size_t feed_batch_max = 4096;

    /// Checkpoint file; empty = no persistence. Written atomically
    /// (tmp + rename) by the writer thread.
    std::string checkpoint_path;
    /// Periodic checkpoint cadence; 0 = only explicit checkpoint_now()
    /// and the final checkpoint at stop().
    std::chrono::milliseconds checkpoint_interval{30000};

    /// Minimum spacing between snapshot publishes. A publish copies only
    /// the storage chunks the batch touched (O(delta), structural sharing
    /// with the previous snapshot), so this knob now mainly bounds the
    /// per-batch fixed cost (chunk-pointer copy + swap) and snapshot churn
    /// under extreme write rates. 0 = publish after every modifying cycle.
    /// observe_sync() and shutdown publish immediately regardless.
    std::chrono::milliseconds publish_interval{0};
    /// Bound on queued (not yet applied) client observes; beyond it,
    /// observe() drops (counted) and observe_sync() blocks.
    std::size_t queue_capacity = 1 << 16;

    /// Worker threads for batch identify fan-out (IDENTIFYB requests route
    /// through ThreadPool::parallel_for). 0 = resolve batches serially on
    /// the calling thread.
    std::size_t batch_pool_threads = 0;

    // Grouped sub-options, one struct per subsystem. The flat field soup
    // this replaces scattered its coherence checks across every daemon;
    // validate() below is now the single gate.
    ShedOptions shed;
    ReplicationOptions replication;
    PartitionOptions partition;

    /// Reject incoherent combinations with util::Error — the one
    /// validation gate for every embedder (daemon, chaos harness, tests).
    /// RecognitionService's constructor calls this; call it earlier (after
    /// CLI parsing) for a cleaner error. Rejects: zero queue_capacity or
    /// feed_batch_max, an observe WAL without segments_dir or on a
    /// read-only follower, a shed threshold beyond queue_capacity
    /// (observe_sync would block before it ever shed), and a read-only
    /// follower claiming shard ownership (partition enforcement is a
    /// leader concern; followers are listed in the map, not configured
    /// with it).
    void validate() const;
};

/// The immutable unit readers hold: one registry state, frozen. Queries
/// resolve family names against the *same* snapshot they scored in, so a
/// concurrent rename/merge can never tear a result.
struct RegistrySnapshot {
    recognize::Registry registry;
    std::uint64_t version = 0;  ///< publish count (0 = the empty boot snapshot)
    std::uint64_t applied = 0;  ///< observes applied in total (feed + clients)

    /// Registry::fingerprint() of this frozen state, memoized — a polled
    /// STATS must not pay the O(exemplars) serialization per call. Racing
    /// readers compute the same deterministic value, so the unsynchronized
    /// double-compute is benign (0 doubles as "not yet computed"; a true
    /// zero hash merely recomputes).
    std::uint64_t fingerprint() const {
        std::uint64_t value = fingerprint_.load(std::memory_order_acquire);
        if (value == 0) {
            value = registry.fingerprint();
            fingerprint_.store(value, std::memory_order_release);
        }
        return value;
    }

private:
    mutable std::atomic<std::uint64_t> fingerprint_{0};
};

/// One resolved identification.
struct Identified {
    recognize::FamilyId family = 0;
    int score = 0;
    bool new_family = false;  ///< observe paths only
    std::string name;
};

/// One fused (content + behavior) identification with per-channel
/// provenance — the serving-layer face of recognize::FusedMatch.
struct FusedIdentified {
    recognize::FamilyId family = 0;
    int score = 0;           ///< fused score
    int content_score = 0;   ///< 0 = content channel had no match
    int behavior_score = 0;  ///< 0 = behavior channel had no match
    std::string name;
};

/// One parsed identification request: the service-side form of
/// serve::Probe. Either channel may be absent, at least one must be
/// present; `k` bounds the ranked reply.
struct DigestProbe {
    std::optional<fuzzy::FuzzyDigest> content;
    std::optional<fuzzy::FuzzyDigest> behavior;
    std::size_t k = 1;
};

/// Query-protocol verbs, indexing the per-verb request counters STATS
/// reports. kUnknown counts unrecognized verbs and empty requests.
enum class QueryVerb : std::size_t {
    kIdentify = 0,
    kIdentifyB,
    kObserve,
    kObserveTs,
    kStats,
    kCheckpoint,
    kPartMap,
    kFpRange,
    kUnknown,
    kCount,  ///< sentinel, not a verb
};

/// STATS key for one verb counter ("verb_identify", ...).
std::string_view query_verb_name(QueryVerb verb);

/// Counter snapshot (see RecognitionService::stats).
struct ServeCounters {
    std::uint64_t identifies = 0;         ///< probes answered (identify + identify_many)
    std::uint64_t observes_enqueued = 0;
    std::uint64_t observes_dropped = 0;   ///< queue full (async observe only)
    std::uint64_t observes_applied = 0;   ///< client observes applied by the writer
    std::uint64_t feed_records = 0;       ///< segment records delivered by the tail
    std::uint64_t feed_file_hashes = 0;   ///< FILE_H records applied as observes
    std::uint64_t feed_ts_hashes = 0;     ///< TS_H records applied as behavioral observes
    std::uint64_t feed_malformed = 0;     ///< records that failed decode/parse
    std::uint64_t publishes = 0;          ///< snapshots published
    std::uint64_t checkpoints = 0;
    std::uint64_t checkpoint_errors = 0;
    std::uint64_t observes_journaled = 0;  ///< client observes appended to the WAL
    std::uint64_t wal_fallbacks = 0;       ///< journal/feed misses applied directly
    std::uint64_t observes_shed = 0;       ///< network observes refused: overload
    std::uint64_t publish_ns = 0;          ///< cumulative wall time inside publish()
    std::uint64_t publish_ns_last = 0;     ///< wall time of the latest publish
    std::uint64_t publish_errors = 0;      ///< publishes skipped (injected faults)
    /// Structural sharing between the latest snapshot and its predecessor
    /// (Registry::sharing_with): how much of the new snapshot is
    /// pointer-identical with the old one. shared/total == 1 would mean
    /// nothing changed; a small batch against a large registry should keep
    /// the shared fraction near 1 — the O(delta) publication claim.
    std::uint64_t shared_buckets = 0;
    std::uint64_t total_buckets = 0;
    std::uint64_t shared_chunks = 0;
    std::uint64_t total_chunks = 0;
};

/// The online recognition service — the third leg of the collect -> ingest
/// -> recognize pipeline. It turns recognize::Registry (a single-threaded
/// library) into a long-running, concurrently queryable daemon around one
/// concurrency scheme:
///
///   * Readers (any thread) acquire the current RegistrySnapshot through an
///     atomic shared_ptr load and run entirely on that immutable state —
///     no lock is taken on the query path, and query latency does not
///     depend on write volume.
///   * One writer thread owns the only mutable Registry. It drains queued
///     client observes and tails the ingest daemon's segments, applies a
///     batch, then publishes a fresh immutable copy via atomic pointer
///     swap. The copy is O(touched delta), not O(registry): the registry's
///     chunked copy-on-write storage shares every untouched bucket and
///     column chunk with the previous snapshot, so publish cost tracks the
///     batch, not the corpus. Readers holding the previous snapshot keep
///     it (and the chunks only it references) alive until they drop it.
///     Between cycles the writer sleeps until a client call wakes it, the
///     followed segment directory changes (inotify), or a deadline falls
///     due: the next publish, the fallback feed poll or a checkpoint.
///
/// Persistence: the writer periodically checkpoints the registry together
/// with the segment-tail watermark (atomic tmp+rename). Crash recovery =
/// load the last checkpoint, then resume tailing from the watermark — the
/// un-checkpointed suffix of every segment replays in canonical order, so
/// a restarted service converges to the same family assignments.
/// docs/recognition_service.md covers the scheme, formats and ordering.
class RecognitionService {
public:
    /// Loads the checkpoint when one exists (throws util::ParseError if it
    /// is corrupt — a daemon must not silently start empty over real
    /// state), replays segments past the watermark, publishes the boot
    /// snapshot, then starts the writer thread (throws util::SystemError
    /// when the process has no file descriptor left for its eventfd).
    explicit RecognitionService(ServeOptions options);
    ~RecognitionService();

    RecognitionService(const RecognitionService&) = delete;
    RecognitionService& operator=(const RecognitionService&) = delete;

    // ---- read path (any thread, lock-free) -------------------------------

    /// The current immutable snapshot; never null.
    std::shared_ptr<const RegistrySnapshot> snapshot() const {
        return snapshot_.load(std::memory_order_acquire);
    }

    /// Best family for a content probe, or nullopt below the match
    /// threshold.
    std::optional<Identified> identify(const fuzzy::FuzzyDigest& digest) const;

    /// THE ranked read behind the IDENTIFY verb: the probe's `k` best
    /// families, best first, with per-channel scores for provenance. A
    /// single-channel probe with k = 1 takes that channel's best match
    /// (recognize::Registry::best_match / best_match_behavior); every
    /// other shape ranks through recognize::Registry::top_families_fused,
    /// so equal scores order by ascending family id. Empty when nothing
    /// reaches the match threshold.
    std::vector<FusedIdentified> identify(const DigestProbe& probe) const;

    /// Batch identify against one snapshot; with a pool the probes fan out
    /// through ThreadPool::parallel_for. Results are positional.
    std::vector<std::optional<Identified>> identify_many(
        const std::vector<fuzzy::FuzzyDigest>& digests, util::ThreadPool* pool = nullptr) const;

    // ---- write path ------------------------------------------------------

    /// Queue a sighting for the writer thread; returns its sequence number,
    /// or nullopt when the queue is full (the drop is counted). Visibility:
    /// the observation is in some snapshot once applied_seq() passes the
    /// returned sequence.
    std::optional<std::uint64_t> observe(fuzzy::FuzzyDigest digest, std::string name_hint = {});

    /// Queue a sighting and wait for it to be applied and published;
    /// returns the resolved observation (blocks for queue room when full).
    Identified observe_sync(fuzzy::FuzzyDigest digest, std::string name_hint = {});

    /// Behavioral counterparts: the digest is a shapelet digest and the
    /// writer applies it through Registry::observe_behavior. In WAL mode
    /// the journal record is a TS_H datagram, so followers replay the
    /// behavioral stream exactly like the content one.
    std::optional<std::uint64_t> observe_behavior(fuzzy::FuzzyDigest digest,
                                                  std::string name_hint = {});
    Identified observe_behavior_sync(fuzzy::FuzzyDigest digest, std::string name_hint = {});

    /// Highest client-observe sequence applied and published.
    std::uint64_t applied_seq() const { return applied_seq_.load(std::memory_order_acquire); }

    /// Block until every observe enqueued so far is applied and published,
    /// and one feed poll has completed since the call (test barrier).
    void flush();

    /// Force a checkpoint now (blocks until the writer wrote it). False
    /// when no checkpoint path is configured or the write failed;
    /// `error` (optional) receives the reason.
    bool checkpoint_now(std::string* error = nullptr);

    ServeCounters counters() const;
    const ServeOptions& options() const { return options_; }

    /// Client observes queued but not yet applied — the admission-control
    /// signal the query protocol sheds on.
    std::size_t queue_depth() const {
        std::lock_guard lock(queue_mutex_);
        return queue_.size();
    }
    /// Observes the writer queue may still accept before the network shed
    /// threshold (options resolved: 0 means queue_capacity).
    std::size_t shed_threshold() const {
        return options_.shed.shed_queue_depth != 0 ? options_.shed.shed_queue_depth
                                                   : options_.queue_capacity;
    }
    /// Bump the shed counter (query protocol, on an "ERR overloaded" reply).
    void count_observe_shed() const {
        observes_shed_.fetch_add(1, std::memory_order_relaxed);
    }

    // ---- partition membership (docs/sharding.md) -------------------------

    /// The current shard table; null when unpartitioned. Lock-free load —
    /// the query protocol checks ownership per OBSERVE.
    std::shared_ptr<const PartitionMap> partition_map() const {
        return partition_map_.load(std::memory_order_acquire);
    }
    /// Swap in a newer map (rebalance version bump). The swap is atomic;
    /// requests racing it see either map, both of which were valid — a
    /// client holding the older map just earns one wrong_shard redirect.
    void set_partition_map(std::shared_ptr<const PartitionMap> map) {
        partition_map_.store(std::move(map), std::memory_order_release);
    }
    std::uint32_t shard_id() const { return options_.partition.shard_id; }
    /// Bump the wrong-shard counter (query protocol, on an
    /// "ERR wrong_shard" reply).
    void count_wrong_shard() const {
        wrong_shard_rejects_.fetch_add(1, std::memory_order_relaxed);
    }
    std::uint64_t wrong_shard_rejects() const {
        return wrong_shard_rejects_.load(std::memory_order_relaxed);
    }

    /// Per-verb request accounting (bumped by execute_query, surfaced as
    /// `verb_*` STATS lines).
    void count_verb(QueryVerb verb) const {
        verb_counts_[static_cast<std::size_t>(verb)].fetch_add(1, std::memory_order_relaxed);
    }
    std::uint64_t verb_count(QueryVerb verb) const {
        return verb_counts_[static_cast<std::size_t>(verb)].load(std::memory_order_relaxed);
    }

    /// The service-owned batch fan-out pool (null unless
    /// options.batch_pool_threads > 0).
    util::ThreadPool* batch_pool() const { return batch_pool_.get(); }

    /// Stop the writer (applies the remaining queue, publishes, writes the
    /// final checkpoint); idempotent, called by the destructor. Reads stay
    /// valid after stop() — they serve the last published snapshot.
    void stop();

private:
    struct PendingObserve {
        fuzzy::FuzzyDigest digest;
        std::string name_hint;
        std::uint64_t seq = 0;
        std::shared_ptr<std::promise<Identified>> reply;  ///< observe_sync only
        bool behavioral = false;  ///< apply via observe_behavior / journal as TS_H
    };

    std::optional<std::uint64_t> enqueue_observe(fuzzy::FuzzyDigest digest,
                                                 std::string name_hint, bool behavioral);
    Identified enqueue_observe_sync(fuzzy::FuzzyDigest digest, std::string name_hint,
                                    bool behavioral);

    void writer_loop();
    /// Apply one raw segment record (wire datagram) to the master registry.
    void apply_feed_record(std::string_view record);
    /// WAL mode: journal the batch, force a feed drain so it applies, and
    /// direct-apply any record the feed failed to deliver (liveness).
    void journal_and_apply(std::vector<PendingObserve>& batch,
                           std::vector<std::pair<std::shared_ptr<std::promise<Identified>>,
                                                 Identified>>& replies,
                           std::uint64_t& unpublished_seq, bool stopping);
    /// Direct apply of one client observe (the non-WAL path and the WAL
    /// fallback); fills `replies` when the observe carries a promise.
    void apply_direct(PendingObserve& pending,
                      std::vector<std::pair<std::shared_ptr<std::promise<Identified>>,
                                            Identified>>& replies);
    /// The observe_sync reply for an observation just applied to master_
    /// (shared by the WAL-resolution and direct paths — they must never
    /// diverge).
    Identified resolve_applied(const recognize::Observation& obs) const;
    /// Publish an immutable copy of the master registry. The copy is
    /// O(touched delta): master_'s chunked COW storage shares every chunk
    /// the batch didn't touch with the previous snapshot (see
    /// docs/recognition_service.md). Returns false when an injected
    /// failpoint (serve.publish.copy / serve.publish.swap) aborted the
    /// publish — the caller must keep its dirty state and retry later.
    bool publish(std::uint64_t applied_through);
    /// Write the checkpoint file; returns false and fills `error` on failure.
    bool write_checkpoint(std::string& error);
    void load_checkpoint();

    ServeOptions options_;
    recognize::Registry master_;  ///< writer thread only (after construction)
    /// Total observes applied to master_ (feed + clients); writer thread
    /// only, mirrored into each snapshot and the checkpoint.
    std::uint64_t applied_total_ = 0;
    std::unique_ptr<SegmentTail> tail_;
    /// Leader observe WAL (options_.replication.observe_wal); writer thread only.
    std::unique_ptr<storage::SegmentWriter> wal_;
    /// Journaled observes whose feed delivery is pending, keyed by the
    /// sequence number travelling as the datagram's job id; writer thread
    /// only — entries live for exactly one journal_and_apply cycle.
    std::map<std::uint64_t, PendingObserve> wal_pending_;
    /// Seqs the liveness backstop applied directly after a failed feed
    /// drain: their eventual feed re-delivery is skipped, not re-applied
    /// (writer thread only; erased on that delivery).
    std::set<std::uint64_t> wal_fallback_seqs_;
    std::unique_ptr<util::ThreadPool> batch_pool_;
    std::atomic<std::shared_ptr<const RegistrySnapshot>> snapshot_;
    /// Current shard table (null = unpartitioned); swapped by rebalance.
    std::atomic<std::shared_ptr<const PartitionMap>> partition_map_;
    mutable std::atomic<std::uint64_t> wrong_shard_rejects_{0};

    /// The writer thread's sleep: an eventfd the wakers below write, plus
    /// an inotify watch on segments_dir (recognition_service.cpp).
    class WriterWake;
    std::unique_ptr<WriterWake> wake_;

    mutable std::mutex queue_mutex_;
    std::condition_variable applied_cv_;  ///< wakes flush()/observe_sync waiters
    std::vector<PendingObserve> queue_;
    std::uint64_t next_seq_ = 1;
    std::uint64_t feed_polls_done_ = 0;
    bool checkpoint_requested_ = false;
    bool checkpoint_ok_ = false;
    std::string checkpoint_error_;
    std::uint64_t checkpoints_done_ = 0;
    bool writer_done_ = false;      ///< writer thread exited (final checkpoint written)
    bool snapshot_dirty_ = false;   ///< applied changes awaiting a publish

    std::atomic<std::uint64_t> applied_seq_{0};
    std::atomic<bool> stop_{false};
    std::atomic<bool> stopped_{false};
    std::thread writer_;

    mutable std::atomic<std::uint64_t> identifies_{0};
    mutable std::array<std::atomic<std::uint64_t>, static_cast<std::size_t>(QueryVerb::kCount)>
        verb_counts_{};
    std::atomic<std::uint64_t> observes_enqueued_{0};
    std::atomic<std::uint64_t> observes_dropped_{0};
    std::atomic<std::uint64_t> observes_applied_{0};
    std::atomic<std::uint64_t> feed_records_{0};
    std::atomic<std::uint64_t> feed_file_hashes_{0};
    std::atomic<std::uint64_t> feed_ts_hashes_{0};
    std::atomic<std::uint64_t> feed_malformed_{0};
    std::atomic<std::uint64_t> publishes_{0};
    std::atomic<std::uint64_t> checkpoints_{0};
    std::atomic<std::uint64_t> checkpoint_errors_{0};
    std::atomic<std::uint64_t> observes_journaled_{0};
    std::atomic<std::uint64_t> wal_fallbacks_{0};
    mutable std::atomic<std::uint64_t> observes_shed_{0};
    std::atomic<std::uint64_t> publish_ns_{0};
    std::atomic<std::uint64_t> publish_ns_last_{0};
    std::atomic<std::uint64_t> publish_errors_{0};
    std::atomic<std::uint64_t> shared_buckets_{0};
    std::atomic<std::uint64_t> total_buckets_{0};
    std::atomic<std::uint64_t> shared_chunks_{0};
    std::atomic<std::uint64_t> total_chunks_{0};

    /// WAL-drain scratch, valid only inside journal_and_apply (writer
    /// thread): where apply_feed_record deposits resolved replies and the
    /// highest applied client sequence.
    std::vector<std::pair<std::shared_ptr<std::promise<Identified>>, Identified>>*
        wal_replies_out_ = nullptr;
    std::uint64_t wal_seq_high_ = 0;
};

/// Stream prefix of the leader's observe WAL inside segments_dir.
inline constexpr std::string_view kObserveWalPrefix = "obs-";

/// Checkpoint file magic (first token of the first line).
inline constexpr std::string_view kCheckpointMagic = "SIRENCKPT";
inline constexpr std::uint32_t kCheckpointVersion = 1;

}  // namespace siren::serve
