#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "petri/net.hpp"
#include "util/arena.hpp"

namespace rap::petri {

/// Marking payload hash of the interning store: FNV-1a over the words
/// plus a splitmix64 finisher (FNV alone clusters under linear probing).
inline std::uint64_t hash_marking_words(const std::uint64_t* words,
                                        std::size_t count) noexcept {
    std::uint64_t h = 1469598103934665603ULL;
    for (std::size_t i = 0; i < count; ++i) {
        h ^= words[i];
        h *= 1099511628211ULL;
    }
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return h;
}

/// Flattened, cache-friendly form of a Net for the reachability hot path.
///
/// Construction packs every transition's enabling condition and firing
/// effect into CSR-indexed (word, mask) term arrays over the marking's
/// 64-bit payload words:
///
///   enabled(t) <=> forall (w,m) in require(t): (marking[w] & m) == m
///               && forall (w,m) in forbid(t):  (marking[w] & m) == 0
///   fire(t):       marking[w] = (marking[w] & ~consume(t)) | produce(t)
///
/// `require` covers consume + read arcs, `forbid` the produce-only places
/// (1-safe contact-freeness) — mirroring Net::is_enabled exactly, but in
/// a handful of word ops instead of per-place bit probes.
///
/// An affected-transition index (per transition, the union over the
/// places its firing toggles of each place's dependent transitions)
/// enables incremental enabled-set maintenance: after firing t, only
/// affected(t) can change enabledness, so a successor's enabled set is
/// its parent's with just those bits refreshed. Its subset that firing
/// t can only ever *disable* is kept as one bitset row per transition
/// (disables(t)), the structural relation behind the persistence scan,
/// the stubborn-set dependence, and the bits update_enabled clears
/// without a test.
class CompiledNet {
public:
    explicit CompiledNet(const Net& net);

    /// Delta compilation: when `parent` was compiled from a net with the
    /// same place and transition counts and the same preset, postset and
    /// readset for every transition — a reconfiguration that only moved
    /// initial markings, the flow::Design set_depth case — its tables
    /// are copied instead of packed again; any other parent falls back
    /// to a full build. Either way the result equals CompiledNet(net).
    /// `parent` (and its net) only needs to stay alive for the duration
    /// of this constructor.
    CompiledNet(const Net& net, const CompiledNet& parent);

    const Net& net() const noexcept { return *net_; }

    /// FNV-1a digest of the net's structure — place/transition counts and
    /// every arc, but NOT initial markings. Two nets that differ only in
    /// initial marking (a run-time reconfiguration) share it.
    static std::uint64_t digest_structure(const Net& net) noexcept;

    std::size_t place_count() const noexcept { return place_count_; }
    std::size_t transition_count() const noexcept {
        return transition_count_;
    }

    /// 64-bit words per marking payload / per transition-enabled bitset.
    std::size_t marking_words() const noexcept { return marking_words_; }
    std::size_t enabled_words() const noexcept { return enabled_words_; }

    bool is_enabled(const std::uint64_t* marking,
                    TransitionId t) const noexcept;

    /// Fires `t` in place. Precondition: is_enabled(marking, t).
    void fire(std::uint64_t* marking, TransitionId t) const noexcept;

    /// Computes the full enabled bitset of `marking` into
    /// `out[0 .. enabled_words())` (bit i <=> transition i enabled).
    void enabled_set(const std::uint64_t* marking,
                     std::uint64_t* out) const noexcept;

    /// Incremental maintenance: given `marking` obtained by firing the
    /// enabled transition `fired`, refreshes in `enabled` (the parent's
    /// enabled bitset) the bits of exactly the transitions firing `fired`
    /// can have changed, affected(fired). The members of
    /// disables(fired) are cleared without a test: the firing unmarked
    /// a place each of them requires or marked one it forbids, so they
    /// are disabled at every marking it produces. Only the rest of
    /// affected(fired) is re-tested with is_enabled.
    void update_enabled(const std::uint64_t* marking, TransitionId fired,
                        std::uint64_t* enabled) const noexcept;

    /// Transitions whose enabledness can change when `t` fires,
    /// ascending by id.
    std::span<const std::uint32_t> affected(TransitionId t) const noexcept {
        return {affected_.data() + affected_off_[t.value],
                affected_.data() + affected_off_[t.value + 1]};
    }

    /// The transitions u != t that firing `t` disables wherever both are
    /// enabled, as an enabled_words()-wide bitset row:
    ///
    ///   disables(t,u) <=> toff(t) ∩ require(u) ≠ ∅ ∨ ton(t) ∩ forbid(u) ≠ ∅
    ///
    /// with toff(t) = pre ∖ post and ton(t) = post ∖ pre. An enabled t
    /// unmarks exactly toff(t) and marks exactly ton(t), so for u enabled
    /// alongside t the relation holds at every marking: the persistence
    /// scan of an edge is `enabled & disables(t)`.
    const std::uint64_t* disables(TransitionId t) const noexcept {
        return disables_.data() + std::size_t{t.value} * enabled_words_;
    }

private:
    struct Term {
        std::uint32_t word;
        std::uint64_t mask;
    };
    struct Effect {
        std::uint32_t word;
        std::uint64_t clear_mask;  // consume-arc places in this word
        std::uint64_t set_mask;    // produce-arc places in this word
    };

    /// Place -> the transitions that need it marked (require = pre ∪
    /// read) or unmarked (forbid = post ∖ pre) to be enabled, ascending,
    /// as two CSR tables.
    struct PlaceReaders {
        explicit PlaceReaders(const Net& net);
        std::span<const std::uint32_t> require(PlaceId p) const noexcept {
            return {requirers.data() + require_off[p.value],
                    requirers.data() + require_off[p.value + 1]};
        }
        std::span<const std::uint32_t> forbid(PlaceId p) const noexcept {
            return {forbidders.data() + forbid_off[p.value],
                    forbidders.data() + forbid_off[p.value + 1]};
        }
        std::vector<std::uint32_t> require_off;
        std::vector<std::uint32_t> requirers;
        std::vector<std::uint32_t> forbid_off;
        std::vector<std::uint32_t> forbidders;
    };

    /// Appends affected(t) and writes disables(t) (zeroed beforehand)
    /// from the places t toggles and `readers`.
    void index_toggles(const Net& net, std::uint32_t t,
                       const PlaceReaders& readers,
                       std::vector<std::uint32_t>& scratch);

    const Net* net_;
    std::size_t place_count_;
    std::size_t transition_count_;
    std::size_t marking_words_;
    std::size_t enabled_words_;

    // Per-transition CSR offsets into the shared term arrays; offsets
    // have transition_count_+1 entries each.
    std::vector<std::uint32_t> require_off_;
    std::vector<std::uint32_t> forbid_off_;
    std::vector<std::uint32_t> effect_off_;
    std::vector<Term> require_;
    std::vector<Term> forbid_;
    std::vector<Effect> effect_;

    std::vector<std::uint32_t> affected_off_;
    std::vector<std::uint32_t> affected_;
    std::vector<std::uint64_t> disables_;  // transition_count_ rows
};

/// Interning-table geometry of one store, for capacity planning and the
/// rap_store_* metrics: how many slots the dedup table holds and how its
/// bytes split against the record arena.
struct StoreStats {
    std::size_t records = 0;      ///< interned markings
    std::size_t slots = 0;        ///< dedup-table capacity (slots)
    std::size_t table_bytes = 0;  ///< dedup table
    std::size_t arena_bytes = 0;  ///< record payload blocks
    double load_factor() const noexcept {
        return slots == 0 ? 0.0
                          : static_cast<double>(records) /
                                static_cast<double>(slots);
    }
};

/// Interned store of markings: fixed-size records in a WordArena, deduped
/// through an id-less robin-hood hash table whose slots carry arena
/// back-references. Ids are dense discovery-order indices, so BFS
/// bookkeeping can run on plain arrays. No per-marking heap allocation.
///
/// The table runs at a 7/8 load ceiling with no per-id hash index: the
/// slot's back-reference doubles as identity, and growth re-inserts the
/// entries from the old table's own slots.
///
/// Callers hash a marking once (hash()) and hand the hash to intern().
/// That lets an expansion hash all of a state's successors first and
/// prefetch their home slots, so the probes that follow overlap their
/// cache misses instead of paying them one after another.
///
/// Each record optionally carries `meta_words` extra payload words after
/// the marking (zero-initialised on intern, ignored by hashing and
/// dedup). The reachability engine keeps per-state bookkeeping that must
/// survive any visiting order — predecessor links for witness traces —
/// directly in the record instead of in side arrays indexed by insertion
/// order.
class MarkingStore {
public:
    static constexpr std::uint32_t kNone = UINT32_MAX;

    explicit MarkingStore(std::size_t marking_words,
                          std::size_t meta_words = 0);

    std::size_t size() const noexcept { return count_; }
    const std::uint64_t* operator[](std::uint32_t id) const noexcept {
        return arena_[id];
    }

    /// The record's meta area: `meta_words()` words owned by the caller.
    std::uint64_t* meta(std::uint32_t id) noexcept {
        return arena_[id] + words_;
    }
    const std::uint64_t* meta(std::uint32_t id) const noexcept {
        return arena_[id] + words_;
    }
    std::size_t meta_words() const noexcept { return meta_words_; }

    struct InternResult {
        std::uint32_t id = kNone;  ///< kNone when the limit blocked insert
        bool inserted = false;
    };

    /// The interning hash of the marking `words`.
    std::uint64_t hash(const std::uint64_t* words) const noexcept {
        return hash_marking_words(words, words_);
    }

    /// Starts loading the home slot of hash `h` into the cache; a hint
    /// only, so a table that grows before the probe costs nothing but
    /// the wasted load.
    void prefetch(std::uint64_t h) const noexcept {
        __builtin_prefetch(table_.data() +
                           (static_cast<std::size_t>(h) & (table_.size() - 1)));
    }

    /// Looks `words` up under its hash `h`, which must be hash(words);
    /// inserts when absent and size() < capacity_limit.
    InternResult intern(const std::uint64_t* words, std::uint64_t h,
                        std::size_t capacity_limit);

    /// Drops every marking, keeping the arena blocks and table storage.
    void clear();

    /// Record payload bytes resident in the arena.
    std::size_t record_bytes() const noexcept {
        return arena_.resident_bytes();
    }

    /// Records + interning table.
    std::size_t resident_bytes() const noexcept {
        return record_bytes() + table_.capacity() * sizeof(std::uint64_t);
    }

    StoreStats stats() const noexcept {
        StoreStats s;
        s.records = count_;
        s.slots = table_.size();
        s.table_bytes = table_.capacity() * sizeof(std::uint64_t);
        s.arena_bytes = record_bytes();
        return s;
    }

private:
    void insert_displacing(std::uint64_t entry, std::size_t slot,
                           std::size_t dist) noexcept;
    void grow();

    // Table slots pack (hash fragment << 32 | id) so probes reject
    // non-matches without touching the arena. A real entry never equals
    // kEmptySlot: kNone is not a valid id. The fragment is the hash's LOW
    // 32 bits, because robin-hood probing must recover an entry's home
    // slot from the slot value alone (home = fragment & mask) to compute
    // probe distances and to re-insert it on growth — sound while the
    // table holds <= 2^32 slots, far past the 100M-state tier at 7/8
    // load.
    static constexpr std::uint64_t kEmptySlot = UINT64_MAX;
    static std::uint64_t pack(std::uint64_t h, std::uint32_t id) noexcept {
        return (h << 32) | id;
    }

    std::size_t words_;
    std::size_t meta_words_;
    std::size_t count_ = 0;
    util::WordArena arena_;
    std::vector<std::uint64_t> table_;
};

}  // namespace rap::petri
