#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace siren::serve {

/// One HOST:PORT of a recognition replica (leader or follower).
struct ReplicaEndpoint {
    std::string host;
    std::uint16_t port = 0;

    friend bool operator==(const ReplicaEndpoint&, const ReplicaEndpoint&) = default;
};

/// Parse "host:port[,host:port…]"; throws util::ParseError on anything
/// malformed (empty host, non-numeric/zero port).
std::vector<ReplicaEndpoint> parse_replica_list(std::string_view list);

/// Parse a decimal shard id. False for anything that is not a number or
/// does not fit 32 bits — a wider id must fail loudly, not wrap onto
/// another shard.
bool parse_shard_id(std::string_view text, std::uint32_t& out);

/// Inclusive block-size interval [lo, hi] — the partition key unit.
///
/// Block size is the partition key because it is what the similarity
/// engine buckets by: a probe at block size bs is comparable only with
/// digests at bs/2, bs and 2*bs (fuzzy's digest1/digest2 pairing rule, see
/// SimilarityIndex), so contiguous block-size range ownership keeps the
/// entire bucketed probe of any one digest on at most three shards — and
/// on exactly one when the range spans the whole ladder. Content digests
/// use the 3 * 2^k ladder; behavior (shapelet) digests use w * 64, which
/// rides the same routing rule unchanged.
struct KeyRange {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    bool contains(std::uint64_t block_size) const { return block_size >= lo && block_size <= hi; }

    friend bool operator==(const KeyRange&, const KeyRange&) = default;
};

/// One leader shard: who serves it and which key ranges it owns.
struct ShardInfo {
    std::uint32_t id = 0;
    ReplicaEndpoint leader;
    std::vector<ReplicaEndpoint> followers;  ///< read replicas of this shard
    std::vector<KeyRange> ranges;            ///< owned block-size ranges

    /// leader + followers, leader first — what a per-shard ReplicaClient
    /// takes (reads round-robin, observes seek the leader).
    std::vector<ReplicaEndpoint> replicas() const;
};

/// Versioned shard table of a partitioned recognition fleet: shard id ->
/// leader endpoint + follower list + owned key ranges. The map is a value
/// (immutable once built); distribution is by exchange of whole maps —
/// servers load one at startup (siren_recognized --partition-map) and
/// clients self-refresh over the wire via the PARTMAP verb, comparing
/// versions. Higher version wins; there is no merge.
///
/// Invariants (validate(), also enforced by the constructor and parse()):
/// ranges are non-empty with lo <= hi, non-overlapping across the whole
/// map, and together cover the full 64-bit key space, so owner_of() is
/// total; shard ids are unique and every shard has a leader endpoint.
/// Full coverage means a new ladder rung appearing in traffic routes
/// somewhere deterministic instead of erroring.
///
/// Serialized form (the PARTMAP payload and the --partition-map file; one
/// directive per line, '#' comments and blank lines ignored):
///
///   partmap 1
///   version <v>
///   shard <id> <leader host:port> <followers host:port,...|->
///   range <shard-id> <lo> <hi>
///
/// docs/sharding.md covers the routing rules and the rebalance protocol.
class PartitionMap {
public:
    /// Builds and validates; throws util::Error on any invariant
    /// violation (see validate()).
    PartitionMap(std::uint64_t version, std::vector<ShardInfo> shards);

    /// The degenerate single-shard map: one shard (id 0) owning the whole
    /// key space — routing through it is bit-identical to talking to the
    /// replica list directly (the compatibility baseline test_partition
    /// pins).
    static PartitionMap single(ReplicaEndpoint leader,
                               std::vector<ReplicaEndpoint> followers = {});

    /// Parse the serialized form; throws util::ParseError on malformed
    /// input and util::Error on invariant violations.
    static PartitionMap parse(std::string_view text);

    std::string serialize() const;

    std::uint64_t version() const { return version_; }
    const std::vector<ShardInfo>& shards() const { return shards_; }
    std::size_t shard_count() const { return shards_.size(); }

    /// The shard with this id, or nullptr.
    const ShardInfo* shard(std::uint32_t id) const;

    /// Id of the shard owning `block_size`. Total: full coverage is an
    /// invariant.
    std::uint32_t owner_of(std::uint64_t block_size) const;

    bool owns(std::uint32_t shard_id, std::uint64_t block_size) const {
        return owner_of(block_size) == shard_id;
    }

    /// Owners of the probe ladder {bs/2, bs, 2*bs} (2*bs saturates at the
    /// key-space ceiling), deduplicated, ascending shard id — every shard
    /// a probe at `block_size` can score on. At most 3; exactly 1 when the
    /// ladder sits in one range's interior.
    std::vector<std::uint32_t> shards_for_probe(std::uint64_t block_size) const;

private:
    PartitionMap() = default;

    /// Throws util::Error naming the first violated invariant.
    void validate() const;

    std::uint64_t version_ = 0;
    std::vector<ShardInfo> shards_;
};

/// Serialized `map` written to `path` atomically (tmp + rename); throws
/// util::SystemError on I/O failure. Convenience for tools and tests that
/// hand map files to daemons.
void save_partition_map(const PartitionMap& map, const std::string& path);

/// PartitionMap::parse over the contents of `path`; throws
/// util::SystemError when unreadable.
PartitionMap load_partition_map(const std::string& path);

}  // namespace siren::serve
