#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fuzzy/ctph.hpp"
#include "recognize/similarity_index.hpp"
#include "util/cow_vec.hpp"

namespace siren::recognize {

/// Identifier of a software family inside a Registry.
using FamilyId = std::uint32_t;

/// The registry's name mapping: every whitespace/control byte becomes '_'.
/// Family names live inside the line-oriented, space-separated save format,
/// so this is the format-injection boundary — exported so protocol clients
/// (serve::QueryClient) apply provably the same rule before shipping a
/// label over the wire.
std::string sanitize_label(std::string_view name);

/// Tuning knobs for Registry::observe.
struct RegistryOptions {
    /// Minimum score against any exemplar to join an existing family.
    int match_threshold = 60;

    /// A sighting scoring below this against its best exemplar is kept as
    /// an additional exemplar (it extends the family's reach across drift:
    /// v1 ~ v2 ~ v3 chains stay one family even when v1 vs v3 scores 0).
    int exemplar_add_below = 95;

    /// Exemplar budget per family *and channel*; bounds memory and query
    /// cost on long-running deployments.
    std::size_t max_exemplars_per_family = 16;

    /// Integer weights of the fused score combiner (top_families_fused):
    /// with both probes supplied, fused = (content_weight * cs +
    /// behavior_weight * bs) / (content_weight + behavior_weight), where a
    /// channel that found no match contributes 0 — so a family both
    /// channels agree on outranks a family one channel matched marginally
    /// harder. With a single probe the channel's score passes through.
    /// Integer math keeps the fused ranking bit-deterministic across
    /// platforms. Content weighs more by default — an exact byte match is
    /// stronger evidence than a similar counter curve.
    int content_weight = 3;
    int behavior_weight = 2;
};

/// Result of one Registry::observe call.
struct Observation {
    FamilyId family = 0;
    int best_score = 0;          ///< against the matched exemplar (0 if new)
    bool new_family = false;     ///< no exemplar reached match_threshold
    bool new_exemplar = false;   ///< sighting was retained as an exemplar
};

/// Per-channel provenance of one fused identification: which signal(s)
/// put this family in the ranking and how strongly each scored.
struct FusedMatch {
    FamilyId family = 0;
    int score = 0;           ///< fused (or single-channel pass-through) score
    int content_score = 0;   ///< 0 when the content channel had no match
    int behavior_score = 0;  ///< 0 when the behavior channel had no match
};

/// Aggregate view of one family.
struct FamilyInfo {
    FamilyId id = 0;
    std::string name;            ///< first non-empty hint, else "family-<id>"
    std::uint64_t sightings = 0;
    std::size_t exemplars = 0;           ///< content-channel exemplars
    std::size_t behavior_exemplars = 0;  ///< behavior-channel exemplars
};

/// Incremental software-recognition registry — the operational form of the
/// paper's use case: "recognition of repeated executions of known
/// applications, and similarity-based identification of unknown
/// applications" (§1).
///
/// Feed it the FILE_H fuzzy digest of every newly seen executable (the
/// same stream a SIREN deployment produces). Each sighting is either
/// matched to an existing family (index-accelerated search over the
/// retained exemplars) or founds a new one. Labels are attached lazily:
/// a family created from an anonymous `a.out` is renamed by the first
/// labeled sighting that lands in it — exactly the paper's post-analysis
/// flow where UNKNOWN resolves to `icon`.
class Registry {
public:
    explicit Registry(RegistryOptions options = {});

    /// Record a sighting. `name_hint` is the derived label when one exists
    /// (file-name regex match); pass empty for nondescript names.
    Observation observe(const fuzzy::FuzzyDigest& digest, std::string_view name_hint = {});

    /// Record a behavioral sighting (a shapelet digest of the process's
    /// runtime counter trace — see src/behavior/shapelet.hpp). Matching
    /// runs against the behavior channel's exemplars only. On a miss, a
    /// non-empty `name_hint` that names an existing family attaches the
    /// trace to it — that is how a family founded by content sightings
    /// grows its behavioral signature and becomes recognizable after its
    /// binary is renamed or recompiled past content-match range; with no
    /// such family the sighting founds a new (behavior-only) one.
    Observation observe_behavior(const fuzzy::FuzzyDigest& digest,
                                 std::string_view name_hint = {});

    /// Best-scoring family for a probe without recording anything;
    /// nullopt when nothing reaches match_threshold.
    std::optional<Observation> best_match(const fuzzy::FuzzyDigest& digest) const;

    /// best_match over the behavior channel.
    std::optional<Observation> best_match_behavior(const fuzzy::FuzzyDigest& digest) const;

    /// The `k` best families for a probe, each family once — the ranked
    /// identification view ("which known software does this binary
    /// resemble, ranked"). Families rank by the weighted combination of
    /// their best content score against `content` and best behavior score
    /// against `behavior` (either probe may be null — the other channel
    /// then carries the ranking alone). Each channel applies
    /// match_threshold before fusion; with both probes supplied a channel
    /// that found nothing contributes 0 to the weighted mean, so
    /// two-channel agreement dominates a lone marginal match. Per-channel
    /// scores survive into the result for provenance. Ties break by
    /// ascending family id — the ranking is bit-deterministic.
    std::vector<FusedMatch> top_families_fused(const fuzzy::FuzzyDigest* content,
                                               const fuzzy::FuzzyDigest* behavior,
                                               std::size_t k) const;

    /// Families, id order.
    std::vector<FamilyInfo> families() const;

    const FamilyInfo& family(FamilyId id) const;

    std::size_t family_count() const { return families_.size(); }
    std::uint64_t total_sightings() const { return total_sightings_; }

    /// Channel sizes, as surfaced in STATS: retained exemplars per channel
    /// and how many families hold signatures in *both* channels.
    std::size_t content_digest_count() const { return exemplar_owner_.size(); }
    std::size_t behavior_digest_count() const { return behavior_owner_.size(); }
    std::size_t fused_family_count() const;

    /// Deterministic 64-bit digest of the full registry state (families in
    /// id order with name and sightings, exemplars in retention order) —
    /// the convergence audit hook of the replication layer: a follower that
    /// applied the same record stream as the leader reports the same
    /// fingerprint, so "did the replica converge" is one integer compare
    /// instead of a family-by-family diff (exposed as `fingerprint` in the
    /// service's STATS response, see docs/replication.md).
    ///
    /// Computed incrementally: each immutable storage chunk memoizes the
    /// hash of its canonical text (the same lines save() emits), and the
    /// fingerprint is a hash over the ordered chunk hashes — so a registry
    /// that changed by a small delta since the last call re-hashes only
    /// the touched chunks. Two registries with identical save() text have
    /// identical chunk layouts (layout is a pure function of element
    /// counts), hence identical fingerprints.
    std::uint64_t fingerprint() const;

    /// Canonical text of the registry state restricted to exemplars whose
    /// digest block size lies in [lo, hi] — the unit a partition rebalance
    /// moves and audits (docs/sharding.md). One line per in-range exemplar,
    ///   `x <digest> <label>`   (content channel)
    ///   `b <digest> <label>`   (behavior channel)
    /// where label is the owning family's name, or `-` when the family is
    /// anonymous (its name is still the auto-derived "family-<id>" form:
    /// ids are registry-local and would never survive a replay on another
    /// shard). Lines are sorted, so two registries that saw the same
    /// in-range sightings in different orders — or interleaved with
    /// different out-of-range traffic — export identical text. Sighting
    /// counts are deliberately excluded: they tally per family, not per
    /// block size, so no per-range conservation holds for them.
    std::string export_range(std::uint64_t lo, std::uint64_t hi) const;

    /// fnv1a64 of export_range(lo, hi) — the one-integer convergence check
    /// a rebalance polls (FPRANGE verb) before cutting a range over.
    /// O(in-range exemplars) per call, not memoized: rebalances are rare
    /// and polled at human cadence, unlike STATS' full fingerprint.
    std::uint64_t fingerprint_range(std::uint64_t lo, std::uint64_t hi) const;

    /// Structural sharing between this registry and `prev` (typically the
    /// previously published snapshot): buckets and chunks — index bucket
    /// chunks, digest chunks, family and owner-column chunks — that are
    /// pointer-identical in both. Cost is O(total chunks), independent of
    /// element count; the publish path surfaces the numbers as STATS
    /// counters and the structural-sharing regression test pins them.
    struct Sharing {
        std::size_t shared_buckets = 0;
        std::size_t total_buckets = 0;
        std::size_t shared_chunks = 0;
        std::size_t total_chunks = 0;
    };
    Sharing sharing_with(const Registry& prev) const;

    /// Internal consistency audit — the torn-snapshot oracle for the chaos
    /// harness: owner columns and index sizes agree, every owner id names
    /// an existing family, per-family exemplar tallies match the columns,
    /// and total_sightings is conserved. A snapshot assembled from a
    /// half-mutated registry would trip one of these. O(registry); returns
    /// false and fills `why` (when non-null) on the first violation.
    bool self_check(std::string* why = nullptr) const;

    /// Channel indexes, for structural-sharing introspection in tests
    /// (bucket_identity / bucket_chunk_identities pointer pins).
    const SimilarityIndex& content_index() const { return index_; }
    const SimilarityIndex& behavior_index() const { return behavior_index_; }

    /// Rename a family (post-analysis labeling).
    void rename(FamilyId id, std::string_view name);

    /// Fold another registry into this one — the multi-receiver deployment
    /// flow (one registry per login node / receiver, merged centrally).
    ///
    /// Each of `other`'s families is re-anchored here: its exemplars are
    /// matched against this registry's exemplars; when any exemplar reaches
    /// match_threshold the whole family folds into the matched family
    /// (keeping this registry's name unless it was anonymous), otherwise
    /// the family is re-founded with its name and exemplars. Sighting
    /// counts are added, so total_sightings is conserved across a merge.
    void merge(const Registry& other);

    /// Line-oriented text persistence (full grammar in
    /// docs/recognition_service.md):
    ///   `family <id> <sightings> <name>`
    ///   `exemplar <family-id> <digest>`
    ///   `bexemplar <family-id> <digest>`   (behavior channel)
    /// Names are stored with every whitespace/control byte mapped to `_`
    /// (the label vocabulary in the wild is token-shaped already); the
    /// mapping happens when names enter the registry and again defensively
    /// at save time, so a hostile hint can never corrupt the line framing.
    void save(std::ostream& out) const;

    /// Rebuild a registry from save() output; throws siren::util::ParseError
    /// on malformed input (including trailing junk on a record line). Each
    /// family's exemplars are clamped to `options.max_exemplars_per_family`,
    /// keeping the oldest — a registry saved under a larger budget loads
    /// under the smaller one instead of overshooting it forever.
    static Registry load(std::istream& in, RegistryOptions options = {});

private:
    FamilyId found_family(std::string_view name_hint);
    /// Family whose current name equals sanitize_label(name), if any — the
    /// behavioral attach-by-hint lookup (runs only on a channel miss).
    std::optional<FamilyId> family_named(std::string_view name) const;
    int fuse_scores(int content_score, int behavior_score, bool both_probed) const;

    /// Rows per FamilyInfo chunk. Deliberately small: observe() bumps
    /// `sightings` on a *random* family for every record, so a publish
    /// after a batch of B observes clones up to B family chunks — small
    /// chunks keep that clone cost O(B * rows), flat in registry size.
    static constexpr std::size_t kFamilyChunkRows = 64;
    /// Rows per owner-column chunk. Owner columns are append-only (only
    /// the tail chunk is ever cloned), so larger chunks just mean fewer
    /// pointers per copy. Matches SimilarityIndex::kChunkRows so owner
    /// chunks and digest chunks cover the same id ranges.
    static constexpr std::size_t kOwnerChunkRows = SimilarityIndex::kChunkRows;

    RegistryOptions options_;
    SimilarityIndex index_;           ///< content exemplars, chunked COW buckets
    /// content digest id -> family; chunk memos carry the incremental
    /// fingerprint of the exemplar section (owner + digest text): digests
    /// are immutable once added and every index add pairs with one owner
    /// push_back, so an owner chunk's memo invalidates exactly when its
    /// section's content changes.
    util::CowVec<FamilyId, kOwnerChunkRows> exemplar_owner_;
    SimilarityIndex behavior_index_;  ///< behavior exemplars, chunked COW buckets
    util::CowVec<FamilyId, kOwnerChunkRows> behavior_owner_;  ///< behavior id -> family
    util::CowVec<FamilyInfo, kFamilyChunkRows> families_;
    std::uint64_t total_sightings_ = 0;
};

}  // namespace siren::recognize
