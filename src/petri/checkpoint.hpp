#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "petri/por.hpp"

namespace rap::petri {

/// Serialized resume point of one reachability exploration: the interned
/// marking arena (payload + witness link, in dense id order), the BFS
/// cursor, and every per-pass verdict accumulator — enough that a
/// ReachabilityExplorer handed this object continues to the exact
/// `(states, edges, verdicts, witnesses)` of the uninterrupted run.
///
/// The on-disk format is versioned, checksummed and mmap-friendly: a
/// fixed-width little-endian header of 64-bit words, the variable-length
/// verdict arrays, then the record payload as one contiguous 8-byte-aligned
/// word run (by far the dominant section at the 100M-state tier — a
/// future reader can map it and hand the engine the mapping directly),
/// closed by an FNV-1a checksum over everything before it. `load` rejects
/// a bad magic/version, a truncated file and a checksum mismatch loudly
/// (std::runtime_error) — a corrupted checkpoint must never resume as a
/// silently wrong exploration.
///
/// What is deliberately NOT serialized: enabled-set rows (recomputed for
/// the frontier on resume — they are derived data and dominate transient
/// memory, not information) and memory statistics (machine-dependent).
class StoreCheckpoint {
public:
    /// Engine kind the checkpoint came from. One kind is left; the header
    /// word stays so a file written by any other kind is refused on
    /// resume.
    enum class Engine : std::uint64_t {
        kSequential = 0,
    };

    /// One recorded persistence violation, by state id (materialized
    /// lazily at the end of the resumed pass, like in-pass ones).
    struct Violation {
        std::uint32_t state = 0;
        std::uint32_t fired = 0;
        std::uint32_t disabled = 0;
    };

    Engine engine = Engine::kSequential;
    /// CompiledNet::structure_digest() of the explored net. Resume
    /// refuses a mismatch: after a structural edit the interned ids mean
    /// nothing (a reconfiguration that only flips initial markings also
    /// changes record 0, caught separately).
    std::uint64_t structure_digest = 0;
    std::uint32_t marking_words = 0;
    std::uint32_t meta_words = 0;

    /// Interned records in dense id order, `marking_words + meta_words`
    /// words each (payload first, then the witness link).
    /// records.size() == record_count * that stride.
    std::uint64_t record_count = 0;
    std::vector<std::uint64_t> records;

    // -- pass counters / cursor ------------------------------------------
    std::uint64_t edges_explored = 0;
    /// Next state index to expand, and the POR freshness watermark that
    /// goes with it.
    std::uint64_t head = 0;
    std::uint64_t next_layer_begin = 0;

    // -- verdict accumulators --------------------------------------------
    /// Per-goal first-hit state id, UINT32_MAX while unmatched. Sized by
    /// the checkpointed query's goal count; resume refuses a query whose
    /// goal count differs.
    std::vector<std::uint32_t> goal_hits;
    std::vector<std::uint32_t> deadlocks;  ///< deadlocked state ids
    std::vector<Violation> violations;
    PorStats por;

    std::size_t record_stride() const noexcept {
        return static_cast<std::size_t>(marking_words) + meta_words;
    }
    const std::uint64_t* record(std::uint64_t id) const noexcept {
        return records.data() + id * record_stride();
    }

    /// Resume-time refusals, run before any record is re-interned: the
    /// checkpoint must come from the sequential engine with one meta word
    /// per record, match `compiled`'s structural digest and marking width,
    /// hold between 1 and `max_states` records, answer `goals` goals, pass
    /// check_ids, and start from `compiled`'s initial marking. Throws
    /// std::runtime_error naming the first mismatch.
    void check_resumable(const CompiledNet& compiled, std::size_t max_states,
                         std::size_t goals) const;

    /// Resume-time range checks (part of check_resumable): the cursor
    /// (head, next_layer_begin) and every id the checkpoint names (goal
    /// hits, deadlocks, violations) lie within its records, every
    /// violation names transitions below `transitions`, and every
    /// record's witness link (meta word 0, via << 32 | parent) is the
    /// root's "no parent" or points at an earlier record — BFS discovery
    /// order guarantees parent < id — through a transition below
    /// `transitions`. A file that passes its checksum can still carry ids
    /// that would index out of range or make trace rebuilding loop;
    /// throws std::runtime_error (also when records does not hold
    /// record_count records of at least one meta word).
    void check_ids(std::size_t transitions) const;

    /// Atomic save: writes `path + ".tmp"` then renames over `path`, so a
    /// crash mid-write leaves the previous checkpoint intact. Throws
    /// std::runtime_error on any IO failure.
    void save(const std::string& path) const;

    /// Loads and fully validates framing (magic, version, section
    /// lengths, trailing checksum), throwing std::runtime_error on any
    /// defect. Structural/geometry validation against a net happens at
    /// resume time, where the net is known.
    static StoreCheckpoint load(const std::string& path);
};

}  // namespace rap::petri
