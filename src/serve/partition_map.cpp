#include "serve/partition_map.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace siren::serve {

std::vector<ReplicaEndpoint> parse_replica_list(std::string_view list) {
    std::vector<ReplicaEndpoint> out;
    std::vector<std::string_view> parts;
    util::split_view_into(list, ',', parts);
    for (const auto part : parts) {
        const auto endpoint = util::trim(part);
        if (endpoint.empty()) continue;  // tolerate "a:1,,b:2" and trailing commas
        const auto colon = endpoint.rfind(':');
        if (colon == std::string_view::npos || colon == 0) {
            throw util::ParseError("bad replica endpoint '" + std::string(endpoint) +
                                   "' (want HOST:PORT)");
        }
        long port = 0;
        if (!util::parse_decimal(endpoint.substr(colon + 1), port) || port <= 0 ||
            port > 65535) {
            throw util::ParseError("bad replica port in '" + std::string(endpoint) + "'");
        }
        out.push_back({std::string(endpoint.substr(0, colon)),
                       static_cast<std::uint16_t>(port)});
    }
    if (out.empty()) throw util::ParseError("empty replica list");
    return out;
}

bool parse_shard_id(std::string_view text, std::uint32_t& out) {
    unsigned long long id = 0;
    if (!util::parse_decimal(text, id) || id > std::numeric_limits<std::uint32_t>::max()) {
        return false;
    }
    out = static_cast<std::uint32_t>(id);
    return true;
}

std::vector<ReplicaEndpoint> ShardInfo::replicas() const {
    std::vector<ReplicaEndpoint> out;
    out.reserve(1 + followers.size());
    out.push_back(leader);
    out.insert(out.end(), followers.begin(), followers.end());
    return out;
}

namespace {

constexpr std::uint32_t kPartitionMapFormat = 1;

void append_endpoint(std::string& out, const ReplicaEndpoint& endpoint) {
    out += endpoint.host;
    out.push_back(':');
    util::append_number(out, endpoint.port);
}

}  // namespace

PartitionMap::PartitionMap(std::uint64_t version, std::vector<ShardInfo> shards)
    : version_(version), shards_(std::move(shards)) {
    validate();
}

PartitionMap PartitionMap::single(ReplicaEndpoint leader,
                                  std::vector<ReplicaEndpoint> followers) {
    ShardInfo shard;
    shard.id = 0;
    shard.leader = std::move(leader);
    shard.followers = std::move(followers);
    shard.ranges.push_back({0, ~0ull});
    return PartitionMap(1, {std::move(shard)});
}

void PartitionMap::validate() const {
    if (shards_.empty()) throw util::Error("partition map: no shards");
    // (lo, hi, owner) of every range, sorted by lo — adjacency then proves
    // both non-overlap and full coverage in one pass.
    std::vector<std::pair<KeyRange, std::uint32_t>> ranges;
    for (const auto& shard : shards_) {
        if (shard.leader.host.empty() || shard.leader.port == 0) {
            throw util::Error("partition map: shard " + std::to_string(shard.id) +
                              " has no leader endpoint");
        }
        for (const auto& other : shards_) {
            if (&other != &shard && other.id == shard.id) {
                throw util::Error("partition map: duplicate shard id " +
                                  std::to_string(shard.id));
            }
        }
        if (shard.ranges.empty()) {
            throw util::Error("partition map: shard " + std::to_string(shard.id) +
                              " owns no key range");
        }
        for (const auto& range : shard.ranges) {
            if (range.lo > range.hi) {
                throw util::Error("partition map: inverted range [" +
                                  std::to_string(range.lo) + ", " + std::to_string(range.hi) +
                                  "] on shard " + std::to_string(shard.id));
            }
            ranges.emplace_back(range, shard.id);
        }
    }
    std::sort(ranges.begin(), ranges.end(),
              [](const auto& a, const auto& b) { return a.first.lo < b.first.lo; });
    if (ranges.front().first.lo != 0) {
        throw util::Error("partition map: key space not covered below " +
                          std::to_string(ranges.front().first.lo));
    }
    for (std::size_t i = 1; i < ranges.size(); ++i) {
        const auto prev_hi = ranges[i - 1].first.hi;
        const auto lo = ranges[i].first.lo;
        if (lo <= prev_hi) {
            throw util::Error("partition map: ranges of shards " +
                              std::to_string(ranges[i - 1].second) + " and " +
                              std::to_string(ranges[i].second) + " overlap at " +
                              std::to_string(lo));
        }
        if (lo != prev_hi + 1) {
            throw util::Error("partition map: key space gap (" + std::to_string(prev_hi) +
                              ", " + std::to_string(lo) + ")");
        }
    }
    if (ranges.back().first.hi != ~0ull) {
        throw util::Error("partition map: key space not covered above " +
                          std::to_string(ranges.back().first.hi));
    }
}

const ShardInfo* PartitionMap::shard(std::uint32_t id) const {
    for (const auto& shard : shards_) {
        if (shard.id == id) return &shard;
    }
    return nullptr;
}

std::uint32_t PartitionMap::owner_of(std::uint64_t block_size) const {
    for (const auto& shard : shards_) {
        for (const auto& range : shard.ranges) {
            if (range.contains(block_size)) return shard.id;
        }
    }
    // Unreachable: full coverage is a constructor invariant.
    throw util::Error("partition map: no owner for block size " + std::to_string(block_size));
}

std::vector<std::uint32_t> PartitionMap::shards_for_probe(std::uint64_t block_size) const {
    // The ladder a probe's digest parts can pair with: its own bucket plus
    // the coarser and finer neighbors (SimilarityIndex's block-size rule).
    const std::uint64_t coarser =
        block_size > (~0ull >> 1) ? ~0ull : block_size * 2;
    const std::uint64_t rungs[3] = {block_size / 2, block_size, coarser};
    std::vector<std::uint32_t> owners;
    for (const auto rung : rungs) {
        const auto owner = owner_of(rung);
        if (std::find(owners.begin(), owners.end(), owner) == owners.end()) {
            owners.push_back(owner);
        }
    }
    std::sort(owners.begin(), owners.end());
    return owners;
}

std::string PartitionMap::serialize() const {
    std::string out = "partmap ";
    util::append_number(out, kPartitionMapFormat);
    out += "\nversion ";
    util::append_number(out, version_);
    out.push_back('\n');
    for (const auto& shard : shards_) {
        out += "shard ";
        util::append_number(out, shard.id);
        out.push_back(' ');
        append_endpoint(out, shard.leader);
        out.push_back(' ');
        if (shard.followers.empty()) {
            out.push_back('-');
        } else {
            for (std::size_t i = 0; i < shard.followers.size(); ++i) {
                if (i > 0) out.push_back(',');
                append_endpoint(out, shard.followers[i]);
            }
        }
        out.push_back('\n');
        for (const auto& range : shard.ranges) {
            out += "range ";
            util::append_number(out, shard.id);
            out.push_back(' ');
            util::append_number(out, range.lo);
            out.push_back(' ');
            util::append_number(out, range.hi);
            out.push_back('\n');
        }
    }
    return out;
}

PartitionMap PartitionMap::parse(std::string_view text) {
    std::uint64_t version = 0;
    bool saw_header = false;
    bool saw_version = false;
    std::vector<ShardInfo> shards;
    std::vector<std::string_view> lines;
    util::split_view_into(text, '\n', lines);
    const auto find_shard = [&shards](std::uint32_t id) -> ShardInfo* {
        for (auto& shard : shards) {
            if (shard.id == id) return &shard;
        }
        return nullptr;
    };
    for (const auto raw_line : lines) {
        const auto line = util::trim(raw_line);
        if (line.empty() || line.front() == '#') continue;
        std::vector<std::string_view> words;
        util::split_view_into(line, ' ', words);
        std::erase(words, std::string_view{});
        const auto word = words.front();
        if (word == "partmap") {
            long format = 0;
            if (words.size() != 2 || !util::parse_decimal(words[1], format)) {
                throw util::ParseError("partition map: bad header '" + std::string(line) + "'");
            }
            if (format != kPartitionMapFormat) {
                throw util::ParseError("partition map: unsupported format " +
                                       std::to_string(format));
            }
            saw_header = true;
        } else if (word == "version") {
            unsigned long long v = 0;
            if (words.size() != 2 || !util::parse_decimal(words[1], v)) {
                throw util::ParseError("partition map: bad version line '" +
                                       std::string(line) + "'");
            }
            version = v;
            saw_version = true;
        } else if (word == "shard") {
            if (words.size() != 4) {
                throw util::ParseError("partition map: bad shard line '" + std::string(line) +
                                       "' (want: shard ID LEADER FOLLOWERS|-)");
            }
            ShardInfo shard;
            if (!parse_shard_id(words[1], shard.id)) {
                throw util::ParseError("partition map: bad shard id '" + std::string(words[1]) +
                                       "'");
            }
            if (find_shard(shard.id) != nullptr) {
                throw util::ParseError("partition map: duplicate shard " +
                                       std::to_string(shard.id));
            }
            shard.leader = parse_replica_list(words[2]).front();
            if (words[3] != "-") shard.followers = parse_replica_list(words[3]);
            shards.push_back(std::move(shard));
        } else if (word == "range") {
            unsigned long long lo = 0;
            unsigned long long hi = 0;
            std::uint32_t id = 0;
            if (words.size() != 4 || !parse_shard_id(words[1], id) ||
                !util::parse_decimal(words[2], lo) || !util::parse_decimal(words[3], hi)) {
                throw util::ParseError("partition map: bad range line '" + std::string(line) +
                                       "' (want: range SHARD LO HI)");
            }
            ShardInfo* shard = find_shard(id);
            if (shard == nullptr) {
                throw util::ParseError("partition map: range names unknown shard " +
                                       std::to_string(id));
            }
            shard->ranges.push_back({lo, hi});
        } else {
            throw util::ParseError("partition map: unknown directive '" + std::string(word) +
                                   "'");
        }
    }
    if (!saw_header) throw util::ParseError("partition map: missing 'partmap' header");
    if (!saw_version) throw util::ParseError("partition map: missing 'version' line");
    return PartitionMap(version, std::move(shards));
}

void save_partition_map(const PartitionMap& map, const std::string& path) {
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out) throw util::SystemError("cannot write partition map to " + tmp);
        out << map.serialize();
        if (!out.flush()) throw util::SystemError("short write to " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        throw util::SystemError("cannot rename " + tmp + " to " + path);
    }
}

PartitionMap load_partition_map(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw util::SystemError("cannot read partition map " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return PartitionMap::parse(text.str());
}

}  // namespace siren::serve
