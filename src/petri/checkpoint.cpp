#include "petri/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "petri/compiled.hpp"
#include "util/strings.hpp"

namespace rap::petri {

namespace {

// "RAPCKPT1" as a little-endian word. kVersion numbers the layout behind
// it; a file of any other version is refused on load, never parsed.
constexpr std::uint64_t kMagic = 0x3154504B43504152ULL;
constexpr std::uint64_t kVersion = 2;

// Fixed header words before the variable sections (magic .. records
// offset, inclusive).
constexpr std::size_t kHeaderWords = 19;

[[noreturn]] void reject(const std::string& path, const char* what) {
    throw std::runtime_error("StoreCheckpoint: '" + path + "' " + what);
}

/// acc += n * width, false on uint64 overflow: section lengths come from
/// the file, so a header whose sum wraps must not pass the length check.
bool add_section(std::uint64_t& acc, std::uint64_t n, std::uint64_t width) {
    std::uint64_t words = 0;
    return !__builtin_mul_overflow(n, width, &words) &&
           !__builtin_add_overflow(acc, words, &acc);
}

[[noreturn]] void refuse(const char* what) {
    throw std::runtime_error(std::string("resume: checkpoint ") + what);
}

}  // namespace

void StoreCheckpoint::save(const std::string& path) const {
    const std::size_t stride = record_stride();
    if (records.size() != record_count * stride) {
        throw std::runtime_error(
            "StoreCheckpoint::save: records length does not match "
            "record_count * (marking_words + meta_words)");
    }

    std::vector<std::uint64_t> words;
    words.reserve(kHeaderWords + goal_hits.size() + deadlocks.size() +
                  violations.size() * 2 + records.size() + 1);
    words.push_back(kMagic);
    words.push_back(kVersion);
    words.push_back(static_cast<std::uint64_t>(engine));
    words.push_back(structure_digest);
    words.push_back((std::uint64_t{marking_words} << 32) | meta_words);
    words.push_back(record_count);
    words.push_back(edges_explored);
    words.push_back(head);
    words.push_back(next_layer_begin);
    words.push_back(goal_hits.size());
    words.push_back(deadlocks.size());
    words.push_back(violations.size());
    words.push_back(por.active ? 1 : 0);
    words.push_back(por.expansions);
    words.push_back(por.reduced_expansions);
    words.push_back(por.proviso_expansions);
    words.push_back(por.enabled_transitions);
    words.push_back(por.expanded_transitions);
    // Word offset of the records run from the start of the file: the
    // mmap hook — map the file, add this, and the arena payload is one
    // aligned contiguous span.
    words.push_back(kHeaderWords + goal_hits.size() + deadlocks.size() +
                    violations.size() * 2);

    for (std::uint32_t id : goal_hits) words.push_back(id);
    for (std::uint32_t id : deadlocks) words.push_back(id);
    for (const Violation& v : violations) {
        words.push_back(v.state);
        words.push_back((std::uint64_t{v.fired} << 32) | v.disabled);
    }
    words.insert(words.end(), records.begin(), records.end());
    words.push_back(hash_marking_words(words.data(), words.size()));

    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) reject(tmp, "cannot be opened for writing");
        out.write(reinterpret_cast<const char*>(words.data()),
                  static_cast<std::streamsize>(words.size() *
                                               sizeof(std::uint64_t)));
        out.flush();
        if (!out) reject(tmp, "write failed");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        reject(path, "rename from .tmp failed");
    }
}

void StoreCheckpoint::check_resumable(const CompiledNet& compiled,
                                      std::size_t max_states,
                                      std::size_t goals) const {
    if (engine != Engine::kSequential) {
        refuse("was not written by the sequential engine");
    }
    if (structure_digest != compiled.structure_digest()) {
        refuse("structural digest does not match this net — the interned "
               "ids describe a different structure");
    }
    if (marking_words != compiled.marking_words() || meta_words != 1) {
        refuse("record geometry does not match");
    }
    if (record_count == 0 || record_count > max_states) {
        refuse("record count is out of range for this pass's max_states");
    }
    if (goal_hits.size() != goals) {
        refuse("goal count does not match the query");
    }
    check_ids(compiled.transition_count());
    const Marking m0 = compiled.net().initial_marking();
    if (!std::equal(m0.word_data(), m0.word_data() + m0.word_count(),
                    record(0))) {
        refuse("root marking differs from this net's initial marking "
               "(reconfigured since the checkpoint?)");
    }
}

void StoreCheckpoint::check_ids(std::size_t transitions) const {
    std::uint64_t words = 0;
    if (meta_words == 0 ||
        !add_section(words, record_count, record_stride()) ||
        records.size() != words) {
        refuse("records do not match its record count and geometry");
    }
    if (head > record_count || next_layer_begin > record_count) {
        refuse("cursor lies beyond its own records");
    }
    auto in_range = [this](std::uint32_t id) { return id < record_count; };
    for (const std::uint32_t hit : goal_hits) {
        if (hit != UINT32_MAX && !in_range(hit)) {
            refuse("goal hit references an id beyond its own records");
        }
    }
    if (!std::all_of(deadlocks.begin(), deadlocks.end(), in_range)) {
        refuse("deadlock references an id beyond its own records");
    }
    for (const Violation& v : violations) {
        if (!in_range(v.state) || v.fired >= transitions ||
            v.disabled >= transitions) {
            refuse("violation references a state or transition out of "
                   "range");
        }
    }
    for (std::uint64_t id = 0; id < record_count; ++id) {
        const std::uint64_t link = record(id)[marking_words];
        const auto parent = static_cast<std::uint32_t>(link);
        const auto via = static_cast<std::uint32_t>(link >> 32);
        const bool ok = id == 0 ? parent == UINT32_MAX
                                : parent < id && via < transitions;
        if (!ok) refuse("witness link is not a BFS-tree edge");
    }
}

StoreCheckpoint StoreCheckpoint::load(const std::string& path) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) reject(path, "cannot be opened");
    const auto bytes = static_cast<std::size_t>(in.tellg());
    if (bytes % sizeof(std::uint64_t) != 0 ||
        bytes < (kHeaderWords + 1) * sizeof(std::uint64_t)) {
        reject(path, "is truncated (not a whole checkpoint header)");
    }
    std::vector<std::uint64_t> words(bytes / sizeof(std::uint64_t));
    in.seekg(0);
    in.read(reinterpret_cast<char*>(words.data()),
            static_cast<std::streamsize>(bytes));
    if (!in) reject(path, "read failed");

    // Checksum first: any flipped bit anywhere (header included) is
    // reported as corruption, not as whatever the bit happens to mean.
    const std::uint64_t sum =
        hash_marking_words(words.data(), words.size() - 1);
    if (sum != words.back()) reject(path, "failed its checksum");
    if (words[0] != kMagic) reject(path, "is not a RAP checkpoint");
    if (words[1] != kVersion) {
        reject(path, "uses an unsupported checkpoint version");
    }

    StoreCheckpoint c;
    c.engine = static_cast<Engine>(words[2]);
    c.structure_digest = words[3];
    c.marking_words = static_cast<std::uint32_t>(words[4] >> 32);
    c.meta_words = static_cast<std::uint32_t>(words[4]);
    c.record_count = words[5];
    c.edges_explored = words[6];
    c.head = words[7];
    c.next_layer_begin = words[8];
    const std::uint64_t goals_n = words[9];
    const std::uint64_t deadlocks_n = words[10];
    const std::uint64_t violations_n = words[11];
    c.por.active = words[12] != 0;
    c.por.expansions = words[13];
    c.por.reduced_expansions = words[14];
    c.por.proviso_expansions = words[15];
    c.por.enabled_transitions = words[16];
    c.por.expanded_transitions = words[17];
    const std::uint64_t records_off = words[18];

    const std::uint64_t payload = words.size() - 1;  // minus checksum
    std::uint64_t expected_off = kHeaderWords;
    const bool sections_fit = add_section(expected_off, goals_n, 1) &&
                              add_section(expected_off, deadlocks_n, 1) &&
                              add_section(expected_off, violations_n, 2);
    std::uint64_t end = expected_off;
    if (!sections_fit ||
        !add_section(end, c.record_count, c.record_stride()) ||
        records_off != expected_off || payload != end) {
        reject(path, "has inconsistent section lengths");
    }

    std::size_t at = kHeaderWords;
    auto take_ids = [&](std::uint64_t n) {
        std::vector<std::uint32_t> ids(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            ids[i] = static_cast<std::uint32_t>(words[at++]);
        }
        return ids;
    };
    c.goal_hits = take_ids(goals_n);
    c.deadlocks = take_ids(deadlocks_n);
    c.violations.resize(violations_n);
    for (Violation& v : c.violations) {
        v.state = static_cast<std::uint32_t>(words[at++]);
        v.fired = static_cast<std::uint32_t>(words[at] >> 32);
        v.disabled = static_cast<std::uint32_t>(words[at++]);
    }
    c.records.assign(words.begin() + static_cast<std::ptrdiff_t>(at),
                     words.end() - 1);
    return c;
}

}  // namespace rap::petri
