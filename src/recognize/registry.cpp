#include "recognize/registry.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "hashing/fnv.hpp"
#include "util/error.hpp"

namespace siren::recognize {

/// Family names live inside the line-oriented, space-separated save format,
/// so every whitespace byte and every control character is a format
/// injection vector: a name carrying '\n' would terminate its `family` line
/// early and leave the remainder to be parsed as an attacker-shaped record.
/// Map the whole hostile class to '_' (labels in the wild are token-shaped
/// already).
std::string sanitize_label(std::string_view name) {
    std::string out(name);
    for (char& c : out) {
        const auto u = static_cast<unsigned char>(c);
        if (u <= ' ' || u == 0x7F) c = '_';
    }
    return out;
}

namespace {

/// Every internal rename path funnels through this: the save format needs
/// names to be nonempty single tokens, so an empty name falls back to the
/// anonymous "family-<id>" form instead of emitting a missing-token line
/// that load() would reject.
std::string family_name_or_default(std::string_view name, FamilyId id) {
    if (name.empty()) return "family-" + std::to_string(id);
    return sanitize_label(name);
}

}  // namespace

Registry::Registry(RegistryOptions options) : options_(options) {}

FamilyId Registry::found_family(std::string_view name_hint) {
    const auto id = static_cast<FamilyId>(families_.size());
    FamilyInfo info;
    info.id = id;
    info.name = family_name_or_default(name_hint, id);
    families_.push_back(std::move(info));
    return id;
}

Observation Registry::observe(const fuzzy::FuzzyDigest& digest, std::string_view name_hint) {
    ++total_sightings_;
    Observation obs;

    const auto matches = index_.query(digest, options_.match_threshold, 1);
    if (matches.empty()) {
        obs.family = found_family(name_hint);
        obs.new_family = true;
        obs.new_exemplar = true;
        exemplar_owner_.push_back(obs.family);
        index_.add(digest);
        auto& fam = families_.mutate(obs.family);
        fam.sightings = 1;
        fam.exemplars = 1;
        return obs;
    }

    obs.family = exemplar_owner_[matches.front().id];
    obs.best_score = matches.front().score;
    auto& fam = families_.mutate(obs.family);
    ++fam.sightings;

    // Post-analysis labeling: the first labeled sighting names an
    // anonymous family (UNKNOWN -> icon in the paper's Table 7 flow).
    if (!name_hint.empty() && fam.name.starts_with("family-")) {
        fam.name = sanitize_label(name_hint);
    }

    // Retain drifted variants as exemplars so the family's reach extends
    // across version chains; near-duplicates (score >= exemplar_add_below)
    // add nothing and are not stored.
    if (obs.best_score < options_.exemplar_add_below &&
        fam.exemplars < options_.max_exemplars_per_family) {
        exemplar_owner_.push_back(obs.family);
        index_.add(digest);
        ++fam.exemplars;
        obs.new_exemplar = true;
    }
    return obs;
}

std::optional<FamilyId> Registry::family_named(std::string_view name) const {
    if (name.empty()) return std::nullopt;
    const std::string wanted = sanitize_label(name);
    // Linear scan: this runs only when a behavioral sighting missed every
    // behavior exemplar (new trace shapes are rare once a fleet warms up),
    // and names mutate through rename/lazy-labeling, which a side map
    // would have to chase through every path.
    for (std::size_t f = 0; f < families_.size(); ++f) {
        const FamilyInfo& fam = families_[f];
        if (fam.name == wanted) return fam.id;
    }
    return std::nullopt;
}

Observation Registry::observe_behavior(const fuzzy::FuzzyDigest& digest,
                                       std::string_view name_hint) {
    ++total_sightings_;
    Observation obs;

    const auto matches = behavior_index_.query(digest, options_.match_threshold, 1);
    if (matches.empty()) {
        // No known trace shape. Prefer attaching to the family the hint
        // names (that is how content-founded families gain a behavioral
        // signature); found a behavior-only family otherwise.
        if (const auto named = family_named(name_hint)) {
            obs.family = *named;
            auto& fam = families_.mutate(obs.family);
            ++fam.sightings;
            if (fam.behavior_exemplars < options_.max_exemplars_per_family) {
                behavior_owner_.push_back(obs.family);
                behavior_index_.add(digest);
                ++fam.behavior_exemplars;
                obs.new_exemplar = true;
            }
            return obs;
        }
        obs.family = found_family(name_hint);
        obs.new_family = true;
        obs.new_exemplar = true;
        behavior_owner_.push_back(obs.family);
        behavior_index_.add(digest);
        auto& fam = families_.mutate(obs.family);
        fam.sightings = 1;
        fam.behavior_exemplars = 1;
        return obs;
    }

    obs.family = behavior_owner_[matches.front().id];
    obs.best_score = matches.front().score;
    auto& fam = families_.mutate(obs.family);
    ++fam.sightings;
    if (!name_hint.empty() && fam.name.starts_with("family-")) {
        fam.name = sanitize_label(name_hint);
    }
    if (obs.best_score < options_.exemplar_add_below &&
        fam.behavior_exemplars < options_.max_exemplars_per_family) {
        behavior_owner_.push_back(obs.family);
        behavior_index_.add(digest);
        ++fam.behavior_exemplars;
        obs.new_exemplar = true;
    }
    return obs;
}

std::optional<Observation> Registry::best_match(const fuzzy::FuzzyDigest& digest) const {
    const auto matches = index_.query(digest, options_.match_threshold, 1);
    if (matches.empty()) return std::nullopt;
    Observation obs;
    obs.family = exemplar_owner_[matches.front().id];
    obs.best_score = matches.front().score;
    return obs;
}

std::optional<Observation> Registry::best_match_behavior(
    const fuzzy::FuzzyDigest& digest) const {
    const auto matches = behavior_index_.query(digest, options_.match_threshold, 1);
    if (matches.empty()) return std::nullopt;
    Observation obs;
    obs.family = behavior_owner_[matches.front().id];
    obs.best_score = matches.front().score;
    return obs;
}

int Registry::fuse_scores(int content_score, int behavior_score, bool both_probed) const {
    // With a single probe only that channel can score, so the fused value
    // is a pass-through. With both probes supplied, a channel that found
    // nothing contributes its zero to the weighted mean — a family the
    // probe matched on both channels must outrank a family one channel
    // matched marginally harder, or fusion would be worse than either
    // channel alone whenever they disagree.
    if (!both_probed) return std::max(content_score, behavior_score);
    const int wc = options_.content_weight;
    const int wb = options_.behavior_weight;
    if (wc + wb <= 0) return std::max(content_score, behavior_score);
    return (wc * content_score + wb * behavior_score) / (wc + wb);
}

std::vector<FusedMatch> Registry::top_families_fused(const fuzzy::FuzzyDigest* content,
                                                     const fuzzy::FuzzyDigest* behavior,
                                                     std::size_t k) const {
    std::vector<FusedMatch> out;
    if (k == 0) return out;
    // Best per-channel score per family; 0 = "this channel had no match at
    // or above threshold" (channel scores of matched exemplars are always
    // >= match_threshold > 0, so 0 is unambiguous as a sentinel).
    std::vector<int> content_best(families_.size(), 0);
    std::vector<int> behavior_best(families_.size(), 0);
    if (content != nullptr) {
        for (const auto& m : index_.query(*content, options_.match_threshold, 0)) {
            int& best = content_best[exemplar_owner_[m.id]];
            if (m.score > best) best = m.score;
        }
    }
    if (behavior != nullptr) {
        for (const auto& m :
             behavior_index_.query(*behavior, options_.match_threshold, 0)) {
            int& best = behavior_best[behavior_owner_[m.id]];
            if (m.score > best) best = m.score;
        }
    }
    const bool both_probed = content != nullptr && behavior != nullptr;
    for (FamilyId fam = 0; fam < families_.size(); ++fam) {
        if (content_best[fam] == 0 && behavior_best[fam] == 0) continue;
        FusedMatch match;
        match.family = fam;
        match.content_score = content_best[fam];
        match.behavior_score = behavior_best[fam];
        match.score = fuse_scores(match.content_score, match.behavior_score, both_probed);
        out.push_back(match);
    }
    // Fused score descending, family id ascending on ties: the ranking
    // must be bit-deterministic for the replication convergence audit and
    // the gated bench.
    std::sort(out.begin(), out.end(), [](const FusedMatch& a, const FusedMatch& b) {
        if (a.score != b.score) return a.score > b.score;
        return a.family < b.family;
    });
    if (out.size() > k) out.resize(k);
    return out;
}

std::size_t Registry::fused_family_count() const {
    std::size_t fused = 0;
    for (std::size_t f = 0; f < families_.size(); ++f) {
        const FamilyInfo& fam = families_[f];
        if (fam.exemplars > 0 && fam.behavior_exemplars > 0) ++fused;
    }
    return fused;
}

std::vector<FamilyInfo> Registry::families() const {
    std::vector<FamilyInfo> out;
    out.reserve(families_.size());
    for (std::size_t f = 0; f < families_.size(); ++f) out.push_back(families_[f]);
    return out;
}

const FamilyInfo& Registry::family(FamilyId id) const { return families_.at(id); }

void Registry::rename(FamilyId id, std::string_view name) {
    if (id >= families_.size()) throw std::out_of_range("registry: unknown family id");
    families_.mutate(id).name = family_name_or_default(name, id);
}

void Registry::merge(const Registry& other) {
    // Group the other registry's exemplars by family and channel, in
    // digest-id order (the order they were retained, oldest anchor first).
    std::vector<std::vector<DigestId>> exemplars_of(other.families_.size());
    for (std::size_t i = 0; i < other.exemplar_owner_.size(); ++i) {
        exemplars_of[other.exemplar_owner_[i]].push_back(static_cast<DigestId>(i));
    }
    std::vector<std::vector<DigestId>> behavior_of(other.families_.size());
    for (std::size_t i = 0; i < other.behavior_owner_.size(); ++i) {
        behavior_of[other.behavior_owner_[i]].push_back(static_cast<DigestId>(i));
    }

    for (std::size_t f = 0; f < other.families_.size(); ++f) {
        const FamilyInfo& fam = other.families_[f];
        // Anchor: the first exemplar that matches an existing family here —
        // content first (the stronger signal), behavior as fallback for
        // behavior-only families.
        FamilyId target = 0;
        bool matched = false;
        for (const DigestId ex : exemplars_of[fam.id]) {
            const auto hits =
                index_.query(other.index_.digest(ex), options_.match_threshold, 1);
            if (!hits.empty()) {
                target = exemplar_owner_[hits.front().id];
                matched = true;
                break;
            }
        }
        for (std::size_t i = 0; !matched && i < behavior_of[fam.id].size(); ++i) {
            const auto hits = behavior_index_.query(
                other.behavior_index_.digest(behavior_of[fam.id][i]),
                options_.match_threshold, 1);
            if (!hits.empty()) {
                target = behavior_owner_[hits.front().id];
                matched = true;
            }
        }
        if (!matched) {
            const bool anonymous = fam.name.starts_with("family-");
            target = found_family(anonymous ? std::string_view{} : std::string_view(fam.name));
        } else if (!fam.name.starts_with("family-") &&
                   families_[target].name.starts_with("family-")) {
            families_.mutate(target).name = fam.name;  // the incoming side had the label
        }

        auto& target_fam = families_.mutate(target);
        target_fam.sightings += fam.sightings;
        total_sightings_ += fam.sightings;

        // Import exemplars that add reach, under each channel's budget.
        for (const DigestId ex : exemplars_of[fam.id]) {
            if (target_fam.exemplars >= options_.max_exemplars_per_family) break;
            const auto& digest = other.index_.digest(ex);
            const auto near = index_.query(digest, options_.exemplar_add_below, 1);
            const bool redundant =
                !near.empty() && exemplar_owner_[near.front().id] == target;
            if (redundant) continue;
            exemplar_owner_.push_back(target);
            index_.add(digest);
            ++target_fam.exemplars;
        }
        for (const DigestId ex : behavior_of[fam.id]) {
            if (target_fam.behavior_exemplars >= options_.max_exemplars_per_family) break;
            const auto& digest = other.behavior_index_.digest(ex);
            const auto near =
                behavior_index_.query(digest, options_.exemplar_add_below, 1);
            const bool redundant =
                !near.empty() && behavior_owner_[near.front().id] == target;
            if (redundant) continue;
            behavior_owner_.push_back(target);
            behavior_index_.add(digest);
            ++target_fam.behavior_exemplars;
        }
    }
}

void Registry::save(std::ostream& out) const {
    for (std::size_t f = 0; f < families_.size(); ++f) {
        const FamilyInfo& fam = families_[f];
        // Names were sanitized on the way in (found_family/rename/merge),
        // but save is the format boundary — re-sanitize so no future code
        // path that smuggles raw bytes into FamilyInfo::name can corrupt
        // the line framing.
        out << "family " << fam.id << ' ' << fam.sightings << ' '
            << family_name_or_default(fam.name, fam.id) << '\n';
    }
    for (std::size_t i = 0; i < exemplar_owner_.size(); ++i) {
        out << "exemplar " << exemplar_owner_[i] << ' '
            << index_.digest(static_cast<DigestId>(i)).to_string() << '\n';
    }
    // Behavior exemplars follow content ones: old save files (no
    // bexemplar lines) stay loadable, and fingerprint() — which hashes
    // this text — covers the behavior channel with no extra code, so
    // behavioral divergence between replicas is as loud as content
    // divergence.
    for (std::size_t i = 0; i < behavior_owner_.size(); ++i) {
        out << "bexemplar " << behavior_owner_[i] << ' '
            << behavior_index_.digest(static_cast<DigestId>(i)).to_string() << '\n';
    }
}

std::uint64_t Registry::fingerprint() const {
    // Incremental form of "hash the save-format text": each storage chunk
    // memoizes the fnv1a64 of exactly the save() lines its elements emit,
    // and the fingerprint hashes the ordered sequence of chunk hashes
    // (with a tag byte per section so family/exemplar/bexemplar chunk
    // sequences cannot alias). The chunk layout is a pure function of the
    // element counts the save text encodes, so registries with identical
    // save() text — the replication-convergence equivalence — still have
    // identical fingerprints; a registry that changed by a small delta
    // re-hashes only the chunks the delta touched (memos invalidate on
    // mutation/clone, see util::CowVec).
    std::string combined;
    combined.reserve(8 * (families_.chunk_count() + exemplar_owner_.chunk_count() +
                          behavior_owner_.chunk_count()) +
                     3);
    const auto append_hash = [&combined](std::uint64_t h) {
        for (int b = 0; b < 8; ++b) {
            combined.push_back(static_cast<char>((h >> (8 * b)) & 0xFF));
        }
    };
    std::string scratch;

    combined.push_back('f');
    for (std::size_t c = 0; c < families_.chunk_count(); ++c) {
        append_hash(families_.chunk_memo(
            c, [&](std::size_t base, const std::vector<FamilyInfo>& items) {
                (void)base;
                scratch.clear();
                for (const FamilyInfo& fam : items) {
                    scratch += "family ";
                    scratch += std::to_string(fam.id);
                    scratch += ' ';
                    scratch += std::to_string(fam.sightings);
                    scratch += ' ';
                    scratch += family_name_or_default(fam.name, fam.id);
                    scratch += '\n';
                }
                return hash::fnv1a64(scratch);
            }));
    }
    // Owner chunks memoize their whole section slice — owner ids *and* the
    // digest text of the same id range. Digests are immutable once added
    // and every index add pairs with exactly one owner push_back, so an
    // owner chunk's memo invalidates exactly when its slice changes.
    const auto exemplar_section = [&](const char tag, const auto& owners,
                                      const SimilarityIndex& index, std::string_view kind) {
        combined.push_back(tag);
        for (std::size_t c = 0; c < owners.chunk_count(); ++c) {
            append_hash(owners.chunk_memo(
                c, [&](std::size_t base, const std::vector<FamilyId>& items) {
                    scratch.clear();
                    for (std::size_t i = 0; i < items.size(); ++i) {
                        scratch += kind;
                        scratch += ' ';
                        scratch += std::to_string(items[i]);
                        scratch += ' ';
                        scratch += index.digest(static_cast<DigestId>(base + i)).to_string();
                        scratch += '\n';
                    }
                    return hash::fnv1a64(scratch);
                }));
        }
    };
    exemplar_section('e', exemplar_owner_, index_, "exemplar");
    exemplar_section('b', behavior_owner_, behavior_index_, "bexemplar");

    return hash::fnv1a64(combined);
}

std::string Registry::export_range(std::uint64_t lo, std::uint64_t hi) const {
    std::vector<std::string> lines;
    const auto collect = [&](const char kind, const auto& owners, const SimilarityIndex& index) {
        for (std::size_t i = 0; i < owners.size(); ++i) {
            const auto& digest = index.digest(static_cast<DigestId>(i));
            if (digest.block_size < lo || digest.block_size > hi) continue;
            const FamilyInfo& fam = families_[owners[i]];
            // Anonymous families carry the auto-derived "family-<id>" name;
            // the id is registry-local, so canonicalize to "-" or the same
            // stream replayed on another shard would never converge.
            const bool anonymous = fam.name == "family-" + std::to_string(fam.id);
            std::string line(1, kind);
            line.push_back(' ');
            line += digest.to_string();
            line.push_back(' ');
            line += anonymous ? "-" : family_name_or_default(fam.name, fam.id);
            line.push_back('\n');
            lines.push_back(std::move(line));
        }
    };
    collect('x', exemplar_owner_, index_);
    collect('b', behavior_owner_, behavior_index_);
    std::sort(lines.begin(), lines.end());
    std::string out;
    for (const auto& line : lines) out += line;
    return out;
}

std::uint64_t Registry::fingerprint_range(std::uint64_t lo, std::uint64_t hi) const {
    return hash::fnv1a64(export_range(lo, hi));
}

Registry::Sharing Registry::sharing_with(const Registry& prev) const {
    Sharing s;
    const auto add_index = [&s](const SimilarityIndex& mine, const SimilarityIndex& theirs) {
        const auto is = mine.sharing_with(theirs);
        s.shared_buckets += is.shared_buckets;
        s.total_buckets += is.total_buckets;
        s.shared_chunks += is.shared_chunks;
        s.total_chunks += is.total_chunks;
    };
    add_index(index_, prev.index_);
    add_index(behavior_index_, prev.behavior_index_);
    const auto add_column = [&s](const auto& mine, const auto& theirs) {
        s.shared_chunks += mine.shared_chunks_with(theirs);
        s.total_chunks += mine.chunk_count();
    };
    add_column(families_, prev.families_);
    add_column(exemplar_owner_, prev.exemplar_owner_);
    add_column(behavior_owner_, prev.behavior_owner_);
    return s;
}

bool Registry::self_check(std::string* why) const {
    const auto fail = [why](std::string message) {
        if (why != nullptr) *why = std::move(message);
        return false;
    };
    if (exemplar_owner_.size() != index_.size()) {
        return fail("content owner column and index sizes disagree");
    }
    if (behavior_owner_.size() != behavior_index_.size()) {
        return fail("behavior owner column and index sizes disagree");
    }
    std::vector<std::size_t> exemplars(families_.size(), 0);
    std::vector<std::size_t> behavior_exemplars(families_.size(), 0);
    for (std::size_t i = 0; i < exemplar_owner_.size(); ++i) {
        const FamilyId owner = exemplar_owner_[i];
        if (owner >= families_.size()) return fail("content exemplar owned by unknown family");
        ++exemplars[owner];
    }
    for (std::size_t i = 0; i < behavior_owner_.size(); ++i) {
        const FamilyId owner = behavior_owner_[i];
        if (owner >= families_.size()) return fail("behavior exemplar owned by unknown family");
        ++behavior_exemplars[owner];
    }
    std::uint64_t sightings = 0;
    for (std::size_t f = 0; f < families_.size(); ++f) {
        const FamilyInfo& fam = families_[f];
        if (fam.id != f) return fail("family ids are not dense");
        if (fam.exemplars != exemplars[f]) {
            return fail("family content exemplar tally disagrees with owner column");
        }
        if (fam.behavior_exemplars != behavior_exemplars[f]) {
            return fail("family behavior exemplar tally disagrees with owner column");
        }
        sightings += fam.sightings;
    }
    if (sightings != total_sightings_) {
        return fail("total_sightings disagrees with per-family sum");
    }
    return true;
}

Registry Registry::load(std::istream& in, RegistryOptions options) {
    Registry reg(options);
    std::string line;
    std::string trailing;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty()) continue;
        std::istringstream fields(line);
        std::string kind;
        fields >> kind;
        if (kind == "family") {
            FamilyInfo info;
            fields >> info.id >> info.sightings >> info.name;
            if (fields.fail() || info.id != reg.families_.size() || (fields >> trailing)) {
                throw util::ParseError("registry: bad family line " + std::to_string(line_no));
            }
            reg.families_.push_back(info);
            reg.total_sightings_ += info.sightings;
        } else if (kind == "exemplar") {
            FamilyId owner = 0;
            std::string digest;
            fields >> owner >> digest;
            if (fields.fail() || owner >= reg.families_.size() || (fields >> trailing)) {
                throw util::ParseError("registry: bad exemplar line " + std::to_string(line_no));
            }
            // Clamp to this registry's exemplar budget: a file saved under a
            // larger max_exemplars_per_family must not overshoot the new
            // budget forever (observe() only checks the budget on *add*).
            // Exemplars were saved in retention order, so skipping the
            // overflow keeps the oldest — the family's original anchors.
            if (reg.families_[owner].exemplars >= options.max_exemplars_per_family) continue;
            reg.exemplar_owner_.push_back(owner);
            reg.index_.add(fuzzy::FuzzyDigest::parse(digest));
            ++reg.families_.mutate(owner).exemplars;
        } else if (kind == "bexemplar") {
            FamilyId owner = 0;
            std::string digest;
            fields >> owner >> digest;
            if (fields.fail() || owner >= reg.families_.size() || (fields >> trailing)) {
                throw util::ParseError("registry: bad bexemplar line " +
                                       std::to_string(line_no));
            }
            if (reg.families_[owner].behavior_exemplars >= options.max_exemplars_per_family) {
                continue;
            }
            reg.behavior_owner_.push_back(owner);
            reg.behavior_index_.add(fuzzy::FuzzyDigest::parse(digest));
            ++reg.families_.mutate(owner).behavior_exemplars;
        } else {
            throw util::ParseError("registry: unknown record '" + kind + "' at line " +
                                   std::to_string(line_no));
        }
    }
    return reg;
}

}  // namespace siren::recognize
